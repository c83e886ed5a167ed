#include "common/fault.h"

#include <chrono>
#include <thread>

namespace discsec {
namespace fault {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kError:
      return "error";
    case Kind::kCorrupt:
      return "corrupt";
    case Kind::kTruncate:
      return "truncate";
    case Kind::kDelay:
      return "delay";
  }
  return "unknown";
}

Result<Kind> KindFromName(std::string_view name) {
  if (name == "error") return Kind::kError;
  if (name == "corrupt") return Kind::kCorrupt;
  if (name == "truncate") return Kind::kTruncate;
  if (name == "delay") return Kind::kDelay;
  return Status::InvalidArgument("unknown fault kind '" + std::string(name) +
                                 "' (want error|corrupt|truncate|delay)");
}

void FaultInjector::Arm(FaultSpec spec) {
  PointState state;
  std::string point = spec.point;
  state.spec = std::move(spec);
  std::lock_guard<std::mutex> lock(mu_);
  points_[point] = std::move(state);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm(std::string_view point) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it != points_.end()) points_.erase(it);
  armed_.store(!points_.empty(), std::memory_order_release);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  armed_.store(false, std::memory_order_release);
}

std::vector<std::string> FaultInjector::armed_points() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [point, state] : points_) names.push_back(point);
  return names;
}

uint64_t FaultInjector::hits(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::fires(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

uint64_t FaultInjector::total_fires() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [point, state] : points_) total += state.fires;
  return total;
}

bool FaultInjector::ShouldFire(PointState* state, std::string_view detail) {
  const FaultSpec& spec = state->spec;
  ++state->hits;
  if (!spec.detail_filter.empty() &&
      detail.find(spec.detail_filter) == std::string_view::npos) {
    return false;
  }
  if (state->hits <= spec.skip_first) return false;
  if (spec.max_fires != 0 && state->fires >= spec.max_fires) return false;
  if (spec.every_nth > 1 && state->hits % spec.every_nth != 0) return false;
  if (spec.probability < 1.0) {
    // 53 uniform bits -> [0, 1); same construction as std::generate_canonical.
    double roll = static_cast<double>(rng_.NextUint64() >> 11) * 0x1.0p-53;
    if (roll >= spec.probability) return false;
  }
  return true;
}

template <typename Container>
bool FaultInjector::ApplyDataFault(Kind kind, Container* data) {
  if (data == nullptr || data->empty()) return false;
  switch (kind) {
    case Kind::kCorrupt: {
      size_t pos = static_cast<size_t>(rng_.NextBelow(data->size()));
      (*data)[pos] ^= static_cast<typename Container::value_type>(
          1u << rng_.NextBelow(8));
      return true;
    }
    case Kind::kTruncate:
      data->resize(static_cast<size_t>(rng_.NextBelow(data->size())));
      return true;
    case Kind::kError:
    case Kind::kDelay:
      return true;  // unreachable; handled by the caller
  }
  return false;
}

template <typename Container>
Status FaultInjector::HitImpl(std::string_view point, std::string_view detail,
                              Container* data, int64_t* deferred_delay_us) {
  if (deferred_delay_us != nullptr) *deferred_delay_us = 0;
  // Disarmed fast path: no lock, one relaxed-ish load. Arm/Hit races are
  // benign — a hit that overlaps Arm may miss the brand-new spec, exactly
  // as if it had run a moment earlier.
  if (!armed_.load(std::memory_order_acquire)) return Status::OK();
  int64_t sleep_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(point);
    if (it == points_.end()) return Status::OK();
    PointState& state = it->second;
    if (!ShouldFire(&state, detail)) return Status::OK();
    if (state.spec.kind == Kind::kError) {
      ++state.fires;
      std::string msg = state.spec.message.empty() ? "injected fault"
                                                   : state.spec.message;
      msg += " at '" + std::string(point) + "'";
      if (!detail.empty()) msg += " (" + std::string(detail) + ")";
      return Status::Make(state.spec.code, std::move(msg));
    }
    if (state.spec.kind == Kind::kDelay) {
      if (state.spec.delay_us > 0) {
        ++state.fires;
        sleep_us = state.spec.delay_us;
      }
    } else if (ApplyDataFault(state.spec.kind, data)) {
      // Data faults on payload-less or empty operations have nothing to
      // mangle; they do not count as fires, so a chaos sweep can tell
      // "fault landed" from "fault had no effect here".
      ++state.fires;
    }
  }
  if (sleep_us > 0) {
    // Delay is served outside the injector lock so concurrent hitters are
    // delayed, not serialized. Async callers take the deferred route and
    // park the latency on a timer wheel instead of a sleeping thread.
    if (deferred_delay_us != nullptr) {
      *deferred_delay_us = sleep_us;
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    }
  }
  return Status::OK();
}

template Status FaultInjector::HitImpl<Bytes>(std::string_view,
                                              std::string_view, Bytes*,
                                              int64_t*);
template Status FaultInjector::HitImpl<std::string>(std::string_view,
                                                    std::string_view,
                                                    std::string*, int64_t*);

FaultInjector& GlobalFaultInjector() {
  static FaultInjector injector;
  return injector;
}

}  // namespace fault
}  // namespace discsec
