#ifndef DISCSEC_PERFBENCH_WORKLOAD_H_
#define DISCSEC_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "perfbench/src/ledger.h"
#include "perfbench/src/pipeline.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/world.h"

namespace perfbench {

/// Command-line settings of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test mode: a few ops per workload, every check armed.
  bool smoke = false;
  /// Where the traced run writes its Chrome-trace JSON (empty: nowhere).
  std::string trace_out;
};

/// What one op produced, engine or decomposed: the status and a digest of
/// the outputs (pipeline.h Summary), compared op by op in the traced run.
struct Verdict {
  Status status;
  std::string summary;

  bool SameAs(const Verdict& other) const {
    return status.code() == other.status.code() && summary == other.summary;
  }
};

/// A closed-loop workload: one client issuing the seeded ops back to back.
/// Setup() builds every input from the seed before anything is timed; op i
/// is a pure function of (seed, i), so the traced run can replay it.
class ClosedLoopWorkload {
 public:
  virtual ~ClosedLoopWorkload() = default;

  /// Keys, content, mastering, publishing and responder seeding.
  virtual Status Setup(uint64_t seed) = 0;

  /// Ops excluded from the measurement at the start of a run, and of each
  /// epoch of the untraced run.
  virtual uint64_t WarmupOps() const = 0;

  /// Measured ops per epoch of the untraced run. Each epoch is a forked copy
  /// of the set-up process; peak RSS is read at its end, so a faster build
  /// is not charged for the extra ops it fits into the window.
  virtual uint64_t EpochOps() const = 0;

  /// Runs op `i` through the production API and checks its output; a
  /// non-OK return is a failed op. `verdict`, when non-null, receives the
  /// outcome for the traced run's comparison.
  virtual Status RunOp(uint64_t i, Verdict* verdict) = 0;

  /// Replays op `i` decomposed into layer calls under `ledger`; a null
  /// ledger replays the same calls untraced.
  virtual void ReplayOp(uint64_t i, Ledger* ledger, OpCounts* counts,
                        Verdict* verdict) = 0;

  /// Checks made outside the timed region once the ops have run.
  virtual Status CheckAfterRun() { return Status::OK(); }

  /// Whether the traced run enforces the ledger check on this workload.
  virtual bool LedgerChecked() const = 0;

  /// The world whose keys the crypto calibration uses, and the payload size
  /// (bytes) typical of this workload's symmetric crypto.
  virtual const World& world() const = 0;
  virtual size_t CalibrationBytes() const = 0;

  /// Adds workload-specific per-layer counters over the traced run's engine
  /// ops (XKMS responder stats).
  virtual void AddCounters(RunResult* result) const { (void)result; }
};

using WorkloadFactory = std::function<std::unique_ptr<ClosedLoopWorkload>()>;

std::unique_ptr<ClosedLoopWorkload> MakeNetLaunch();
std::unique_ptr<ClosedLoopWorkload> MakeDiscInsert();
std::unique_ptr<ClosedLoopWorkload> MakeStudioMaster();

/// Closed-loop runs: end-to-end metrics (untraced) or the traced ledger run.
RunResult RunClosedLoop(const WorkloadFactory& factory, const Options& options);
RunResult RunClosedLoopTraced(const WorkloadFactory& factory,
                              const Options& options);

/// The seeds an untraced run sets up with, timed for setup_s; the last is
/// the run's own seed, whose set-up the measured ops use.
std::vector<uint64_t> SetupSeeds(const Options& options);

/// Sets every per-layer metric a traced run reports to zero, so each
/// workload reports the full set and overwrites the ones it exercises.
void AddZeroPerLayer(RunResult* result);
void SetMetric(RunResult* result, const std::string& name, double value);

/// Crypto calibration on the workload's own keys and payload size.
void AddCryptoCalibration(const World& world, size_t bytes,
                          RunResult* result);

}  // namespace perfbench

#endif  // DISCSEC_PERFBENCH_WORKLOAD_H_
