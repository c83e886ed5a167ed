#ifndef DISCSEC_PERFBENCH_LEDGER_H_
#define DISCSEC_PERFBENCH_LEDGER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace perfbench {

/// The layers the traced run times, each at the public call named in
/// README.md's layer table.
enum class Layer {
  kNetHandshake,
  kNetRecords,
  kDiscRead,
  kXmlParse,
  kXmldsigVerify,
  kXmlencDecrypt,
  kAccessPolicy,
  kXrmlExercise,
  kSmilLayout,
  kScriptRun,
  kXkmsValidate,
  kAuthoringSign,
  kAuthoringProtect,
  kAuthoringMaster,
};
inline constexpr size_t kLayerCount = 14;

/// Span name ("xml.parse") and metric name ("xml.parse_us") of a layer.
const char* LayerSpanName(Layer layer);
const char* LayerMetricName(Layer layer);

/// The outside-in layer ledger of the traced run. The decomposed replay of
/// an op opens one Scope around every layer call it makes; the ledger keeps
/// each layer's *self* time (its wall minus the nested layer calls inside
/// it) in nanoseconds, and mirrors every scope as an obs::ScopedSpan (with
/// the op id as attribute) so the run can be written as a Chrome trace.
///
/// Glue is what the layers do not explain: the same op's wall time through
/// the production engine minus the sum of the layer self times. A glue far
/// below zero means the decomposition double-counts. Single-threaded.
class Ledger {
 public:
  /// `tracer` may be null (no spans, timing only).
  explicit Ledger(discsec::obs::Tracer* tracer) : tracer_(tracer) {}

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Opens op `op_id`'s decomposed replay; EndReplay closes it.
  void BeginOp(uint64_t op_id);
  void EndReplay();
  /// Books the op; `engine_wall_ns` is its wall time through the engine
  /// (the untraced run of the same op).
  void Commit(int64_t engine_wall_ns);

  /// Times one layer call. A null ledger makes the scope a no-op, so the
  /// decomposed pipeline can run untraced too.
  class Scope {
   public:
    Scope(Ledger* ledger, Layer layer);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;
    Layer layer_;
    Scope* parent_ = nullptr;
    int64_t start_ns_ = 0;
    int64_t child_ns_ = 0;
    std::optional<discsec::obs::ScopedSpan> span_;
  };

  size_t ops() const { return engine_wall_us_.size(); }

  /// Per-op self time (µs) of `layer`, over the ops that called it.
  const std::vector<double>& SelfUs(Layer layer) const {
    return self_us_[static_cast<size_t>(layer)];
  }
  /// Per-op glue (µs): engine wall minus the op's summed layer self time.
  const std::vector<double>& GlueUs() const { return glue_us_; }
  const std::vector<double>& EngineWallUs() const { return engine_wall_us_; }
  const std::vector<double>& DecomposedWallUs() const {
    return decomposed_wall_us_;
  }

  /// Run totals (ns) the ledger check works on.
  int64_t total_engine_ns() const { return total_engine_ns_; }
  int64_t total_layer_ns() const { return total_layer_ns_; }

  /// Layers plus glue equal the engine wall by construction; the check is
  /// that glue stays above -`tolerance` of the engine wall over the run.
  discsec::Status Check(double tolerance) const;

  /// Records one op from already-measured self times (the unit self-test
  /// drives the arithmetic through this).
  void RecordOp(const std::array<int64_t, kLayerCount>& self_ns,
                const std::array<bool, kLayerCount>& called,
                int64_t decomposed_wall_ns, int64_t engine_wall_ns);

 private:
  discsec::obs::Tracer* tracer_;
  Scope* current_ = nullptr;
  std::optional<discsec::obs::ScopedSpan> op_span_;
  uint64_t op_id_ = 0;
  int64_t op_start_ns_ = 0;
  int64_t op_wall_ns_ = 0;
  std::array<int64_t, kLayerCount> op_self_ns_{};
  std::array<bool, kLayerCount> op_called_{};

  std::array<std::vector<double>, kLayerCount> self_us_;
  std::vector<double> glue_us_;
  std::vector<double> engine_wall_us_;
  std::vector<double> decomposed_wall_us_;
  int64_t total_engine_ns_ = 0;
  int64_t total_layer_ns_ = 0;
};

}  // namespace perfbench

#endif  // DISCSEC_PERFBENCH_LEDGER_H_
