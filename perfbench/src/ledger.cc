#include "perfbench/src/ledger.h"

#include <string>

#include "perfbench/src/stats.h"

namespace perfbench {

namespace {

struct LayerNames {
  const char* span;
  const char* metric;
};

constexpr LayerNames kNames[kLayerCount] = {
    {"net.handshake", "net.handshake_us"},
    {"net.records", "net.records_us"},
    {"disc.read", "disc.read_us"},
    {"xml.parse", "xml.parse_us"},
    {"xmldsig.verify", "xmldsig.verify_us"},
    {"xmlenc.decrypt", "xmlenc.decrypt_us"},
    {"access.policy", "access.policy_us"},
    {"xrml.exercise", "xrml.exercise_us"},
    {"smil.layout", "smil.layout_us"},
    {"script.run", "script.run_us"},
    {"xkms.validate", "xkms.validate_us"},
    {"authoring.sign", "authoring.sign_us"},
    {"authoring.protect", "authoring.protect_us"},
    {"authoring.master", "authoring.master_us"},
};

}  // namespace

const char* LayerSpanName(Layer layer) {
  return kNames[static_cast<size_t>(layer)].span;
}

const char* LayerMetricName(Layer layer) {
  return kNames[static_cast<size_t>(layer)].metric;
}

void Ledger::BeginOp(uint64_t op_id) {
  op_id_ = op_id;
  op_self_ns_.fill(0);
  op_called_.fill(false);
  op_span_.emplace(tracer_, "bench.op");
  op_span_->SetAttr("op", op_id);
  op_start_ns_ = NowNs();
}

void Ledger::EndReplay() {
  op_wall_ns_ = NowNs() - op_start_ns_;
  op_span_.reset();
}

void Ledger::Commit(int64_t engine_wall_ns) {
  RecordOp(op_self_ns_, op_called_, op_wall_ns_, engine_wall_ns);
}

void Ledger::RecordOp(const std::array<int64_t, kLayerCount>& self_ns,
                      const std::array<bool, kLayerCount>& called,
                      int64_t decomposed_wall_ns, int64_t engine_wall_ns) {
  int64_t layers = 0;
  for (size_t i = 0; i < kLayerCount; ++i) {
    if (!called[i]) continue;
    layers += self_ns[i];
    self_us_[i].push_back(static_cast<double>(self_ns[i]) / 1e3);
  }
  glue_us_.push_back(static_cast<double>(engine_wall_ns - layers) / 1e3);
  engine_wall_us_.push_back(static_cast<double>(engine_wall_ns) / 1e3);
  decomposed_wall_us_.push_back(static_cast<double>(decomposed_wall_ns) /
                                1e3);
  total_engine_ns_ += engine_wall_ns;
  total_layer_ns_ += layers;
}

discsec::Status Ledger::Check(double tolerance) const {
  const double wall = static_cast<double>(total_engine_ns_);
  const double glue = wall - static_cast<double>(total_layer_ns_);
  if (ops() == 0 || wall <= 0) {
    return discsec::Status::InvalidArgument("ledger has no ops");
  }
  if (glue < -tolerance * wall) {
    return discsec::Status::Corruption(
        "layer self times exceed the engine wall by " +
        std::to_string(-glue / wall * 100.0) +
        "% (decomposition double-counts)");
  }
  return discsec::Status::OK();
}

Ledger::Scope::Scope(Ledger* ledger, Layer layer)
    : ledger_(ledger), layer_(layer) {
  if (ledger_ == nullptr) return;
  parent_ = ledger_->current_;
  ledger_->current_ = this;
  span_.emplace(ledger_->tracer_, LayerSpanName(layer));
  span_->SetAttr("op", ledger_->op_id_);
  start_ns_ = NowNs();
}

Ledger::Scope::~Scope() {
  if (ledger_ == nullptr) return;
  const int64_t wall = NowNs() - start_ns_;
  span_.reset();
  const size_t i = static_cast<size_t>(layer_);
  ledger_->op_self_ns_[i] += wall - child_ns_;
  ledger_->op_called_[i] = true;
  if (parent_ != nullptr) parent_->child_ns_ += wall;
  ledger_->current_ = parent_;
}

}  // namespace perfbench
