#include "xkms/locate_cache.h"

#include <chrono>
#include <utility>

#include "common/wait.h"

namespace discsec {
namespace xkms {

namespace {

/// Entry budget; the oldest-expiring entry is dropped past it.
constexpr size_t kMaxEntries = 1024;

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LocateCache::LocateCache(XkmsClient* client, Options options)
    : client_(client),
      options_(std::move(options)),
      clock_(options_.clock ? options_.clock
                            : std::function<int64_t()>(SteadyNowUs)) {
  obs::MetricsRegistry* metrics =
      options_.metrics != nullptr ? options_.metrics : &own_metrics_;
  hits_ = metrics->GetCounter("locate_cache.hits");
  misses_ = metrics->GetCounter("locate_cache.misses");
  expirations_ = metrics->GetCounter("locate_cache.expirations");
  coalesced_ = metrics->GetCounter("locate_cache.coalesced");
}

void LocateCache::LocateAsync(const std::string& name,
                              std::function<void(Result<KeyBinding>)> done) {
  obs::ScopedSpan span(tracer_, "xkms.locate_cache");
  span.SetAttr("name", name);
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      if (clock_() < it->second.expires_us) {
        hits_->Add();
        span.SetAttr("outcome", "hit");
        KeyBinding binding = it->second.binding;
        lock.unlock();
        done(std::move(binding));
        return;
      }
      entries_.erase(it);
      expirations_->Add();
    }
    auto [flight, leader] = flights_.try_emplace(name);
    flight->second.push_back(std::move(done));
    if (!leader) {
      coalesced_->Add();
      span.SetAttr("outcome", "coalesced");
      return;
    }
    misses_->Add();
    span.SetAttr("outcome", "miss");
  }
  // Leader: the transport call happens outside every cache lock, so slow
  // lookups for one name never block hits on others.
  client_->LocateAsync(name, [this, name](Result<KeyBinding> result) {
    Land(name, std::move(result));
  });
}

void LocateCache::Land(const std::string& name, Result<KeyBinding> result) {
  // Caching the verdict and retiring the flight happen under one lock, so
  // every caller attached before this point gets this verdict — crucially
  // including an error verdict, which is never cached: without the shared
  // flight a failure storm turns every arrival into a fresh leader and each
  // one hammers the struggling upstream in series. After the retire, the
  // next caller hits the cache or starts a clean flight (one retry per
  // storm wave, not one per caller).
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.ok()) {
      entries_[name] = Entry{result.value(), clock_() + options_.ttl_us};
      while (entries_.size() > kMaxEntries) {
        auto victim = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          if (it->second.expires_us < victim->second.expires_us) victim = it;
        }
        entries_.erase(victim);
      }
    }
    auto flight = flights_.find(name);
    waiters = std::move(flight->second);
    flights_.erase(flight);
  }
  for (Waiter& waiter : waiters) waiter(result);
}

Result<KeyBinding> LocateCache::Locate(const std::string& name) {
  return WaitForCompletion<Result<KeyBinding>>(
      [&](Waiter done) { LocateAsync(name, std::move(done)); });
}

void LocateCache::Invalidate(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(name);
}

LocateCacheStats LocateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LocateCacheStats out;
  out.hits = hits_->value();
  out.misses = misses_->value();
  out.expirations = expirations_->value();
  out.coalesced = coalesced_->value();
  return out;
}

size_t LocateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace xkms
}  // namespace discsec
