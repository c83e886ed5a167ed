#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>

#include "crypto/aes.h"
#include "crypto/algorithms.h"
#include "crypto/sha256.h"
#include "perfbench/src/workload.h"

namespace perfbench {

namespace {

struct PerLayerSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric besides the layer self times, in report order.
constexpr PerLayerSpec kPerLayerExtras[] = {
    {"player.glue_us", "us"},
    {"net.wire_bytes", "bytes"},
    {"xml.doc_bytes", "bytes"},
    {"xmldsig.references", "count"},
    {"xmlenc.plaintext_bytes", "bytes"},
    {"script.steps", "count"},
    {"xkms.store_lookups", "count"},
    {"crypto.rsa_private_us", "us"},
    {"crypto.rsa_public_us", "us"},
    {"crypto.aes_cbc_decrypt_mb_s", "MB/s"},
    {"crypto.aes_cbc_encrypt_mb_s", "MB/s"},
    {"crypto.sha256_mb_s", "MB/s"},
    {"bench.trace_overhead", "ratio"},
};

/// Median of the µs it takes `fn` to run, over `reps` calls.
template <typename Fn>
double MedianUs(int reps, Fn fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const int64_t start = NowNs();
    fn();
    us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return Median(us);
}

void PrintLatencyLine(const char* label, std::vector<double> ms) {
  const size_t n = ms.size();
  const size_t beyond = SamplesBeyond(ms, 99.0);
  const double p50 = NearestRank(&ms, 50.0);
  const double p99 = NearestRank(&ms, 99.0);
  std::printf("%s: samples=%zu p50=%.4f ms p99=%.4f ms (nearest rank; %zu "
              "samples beyond p99)\n",
              label, n, p50, p99, beyond);
}

/// What one epoch process reports back to the parent.
struct EpochReport {
  std::vector<double> latency_ms;
  int64_t wall_ns = 0;  ///< the measured ops' loop, warm-up excluded
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mb = 0.0;
  std::string violation;
};

/// The fixed-size part of an EpochReport on the pipe; the latencies and
/// the violation text follow it.
struct EpochHeader {
  uint64_t samples;
  int64_t wall_ns;
  uint64_t attempted;
  uint64_t failed;
  double peak_rss_mb;
  uint64_t violation_bytes;
};

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

/// One epoch, in the forked process: `warmup` unmeasured ops, then `ops`
/// measured ones, every output checked, then the after-run checks.
EpochReport RunEpoch(ClosedLoopWorkload* workload, uint64_t first_op,
                     uint64_t warmup, uint64_t ops) {
  EpochReport report;
  auto run_checked = [&](uint64_t i) {
    Status status = workload->RunOp(i, nullptr);
    ++report.attempted;
    if (!status.ok()) {
      ++report.failed;
      if (report.violation.empty()) {
        report.violation = "op " + std::to_string(i) + ": " + status.ToString();
      }
    }
  };
  uint64_t op = first_op;
  for (uint64_t k = 0; k < warmup; ++k) run_checked(op++);
  report.latency_ms.reserve(ops);
  const int64_t start = NowNs();
  for (uint64_t k = 0; k < ops; ++k) {
    const int64_t t0 = NowNs();
    run_checked(op++);
    report.latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  report.wall_ns = NowNs() - start;
  report.peak_rss_mb = PeakRssMb();
  Status after = workload->CheckAfterRun();
  if (!after.ok() && report.violation.empty()) {
    report.violation = "after-run check: " + after.ToString();
  }
  return report;
}

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: never pin
  return cpus;
}

/// Restricts this process to `cpus` (a negative entry: no restriction).
void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    if (cpu < 0) return;
    CPU_SET(cpu, &set);
  }
  (void)sched_setaffinity(0, sizeof(set), &set);
}

/// Runs one epoch on `cpu` in a forked copy of this process, so the heap
/// every epoch starts from is the set-up's and the known script-session
/// leak builds up over the same op count in every epoch and every build.
/// Waits for the process to end.
Status ForkEpoch(ClosedLoopWorkload* workload, uint64_t first_op,
                 uint64_t warmup, uint64_t ops, int cpu, EpochReport* out) {
  int fds[2];
  if (pipe(fds) != 0) return Status::IOError("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::IOError("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    PinTo({cpu});
    const EpochReport report = RunEpoch(workload, first_op, warmup, ops);
    const EpochHeader header{report.latency_ms.size(), report.wall_ns,
                             report.attempted,         report.failed,
                             report.peak_rss_mb,       report.violation.size()};
    const bool ok =
        WriteAll(fds[1], &header, sizeof(header)) &&
        WriteAll(fds[1], report.latency_ms.data(),
                 report.latency_ms.size() * sizeof(double)) &&
        WriteAll(fds[1], report.violation.data(), report.violation.size());
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  EpochHeader header{};
  bool ok = ReadAll(fds[0], &header, sizeof(header)) && header.samples <= ops;
  if (ok) {
    out->latency_ms.resize(header.samples);
    out->violation.resize(header.violation_bytes);
    ok = ReadAll(fds[0], out->latency_ms.data(),
                 header.samples * sizeof(double)) &&
         ReadAll(fds[0], out->violation.data(), header.violation_bytes);
  }
  close(fds[0]);
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!ok || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::IOError("epoch process at op " + std::to_string(first_op) +
                            " ended without a report");
  }
  out->wall_ns = header.wall_ns;
  out->attempted = header.attempted;
  out->failed = header.failed;
  out->peak_rss_mb = header.peak_rss_mb;
  return Status::OK();
}

}  // namespace

std::vector<uint64_t> SetupSeeds(const Options& options) {
  if (options.smoke) return {options.seed};
  // Key generation time depends on how far the prime search runs for a
  // seed, so one seed's set-up is a noisy figure. Four extra set-ups on
  // derived seeds go first; the run keeps the last one, on the run's seed.
  return {Mix(options.seed, 7001), Mix(options.seed, 7002),
          Mix(options.seed, 7003), Mix(options.seed, 7004), options.seed};
}

void SetMetric(RunResult* result, const std::string& name, double value) {
  for (Metric& m : result->metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
}

void AddZeroPerLayer(RunResult* result) {
  for (size_t i = 0; i < kLayerCount; ++i) {
    result->Add(LayerMetricName(static_cast<Layer>(i)), 0.0, "us");
  }
  for (const PerLayerSpec& spec : kPerLayerExtras) {
    result->Add(spec.name, 0.0, spec.unit);
  }
}

void AddCryptoCalibration(const World& world, size_t bytes,
                          RunResult* result) {
  const Bytes digest = crypto::Sha256::Hash(ToBytes("perfbench calibration"));
  Bytes signature;
  SetMetric(result, "crypto.rsa_private_us", MedianUs(15, [&] {
              signature = crypto::RsaSignDigest(world.studio_key.private_key,
                                                crypto::kAlgSha256, digest)
                              .value();
            }));
  SetMetric(result, "crypto.rsa_public_us", MedianUs(101, [&] {
              (void)crypto::RsaVerifyDigest(world.studio_key.public_key,
                                            crypto::kAlgSha256, digest,
                                            signature);
            }));
  Rng rng(7);
  const Bytes plain = rng.NextBytes(bytes);
  const Bytes iv = rng.NextBytes(16);
  const int reps = static_cast<int>(
      std::max<size_t>(9, (4u << 20) / std::max<size_t>(bytes, 1)));
  Bytes sealed;
  const double enc_us = MedianUs(reps, [&] {
    sealed = crypto::AesCbcEncrypt(world.content_key, iv, plain).value();
  });
  const double dec_us = MedianUs(reps, [&] {
    (void)crypto::AesCbcDecrypt(world.content_key, sealed);
  });
  const double sha_us =
      MedianUs(reps, [&] { (void)crypto::Sha256::Hash(plain); });
  const double mb = static_cast<double>(bytes) / 1e6;
  SetMetric(result, "crypto.aes_cbc_encrypt_mb_s", mb / (enc_us / 1e6));
  SetMetric(result, "crypto.aes_cbc_decrypt_mb_s", mb / (dec_us / 1e6));
  SetMetric(result, "crypto.sha256_mb_s", mb / (sha_us / 1e6));
}

RunResult RunClosedLoop(const WorkloadFactory& factory,
                        const Options& options) {
  RunResult result;
  // On a shared box one core can run half as fast as another for seconds
  // at a time. Set-ups and epochs therefore rotate over every CPU this
  // process may use, so each run samples all of them alike.
  const std::vector<int> cpus = AllowedCpus();
  std::vector<double> setup_s;
  std::unique_ptr<ClosedLoopWorkload> workload;
  for (uint64_t seed : SetupSeeds(options)) {
    PinTo({cpus[setup_s.size() % cpus.size()]});
    workload.reset();
    workload = factory();
    const int64_t start = NowNs();
    Status status = workload->Setup(seed);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) {
      result.Violate("setup failed: " + status.ToString());
      return result;
    }
  }
  PinTo(cpus);

  // Epochs run until the window is spent and the last rotation over the
  // CPUs is whole; each runs to its end, so every epoch has the same op
  // count whatever the build's speed.
  const uint64_t warmup = options.smoke ? 1 : workload->WarmupOps();
  const uint64_t epoch_ops = options.smoke ? 3 : workload->EpochOps();
  std::vector<double> latency_ms;
  std::vector<double> rss_mb;
  int64_t measured_ns = 0;
  uint64_t first_op = 0;
  const int64_t budget = static_cast<int64_t>(options.seconds * 1e9);
  const int64_t start = NowNs();
  do {
    EpochReport epoch;
    Status status =
        ForkEpoch(workload.get(), first_op, warmup, epoch_ops,
                  cpus[rss_mb.size() % cpus.size()], &epoch);
    first_op += warmup + epoch_ops;
    if (!status.ok()) {
      result.Violate(status.ToString());
      break;
    }
    result.attempted += epoch.attempted;
    result.failed += epoch.failed;
    if (!epoch.violation.empty()) result.Violate(epoch.violation);
    latency_ms.insert(latency_ms.end(), epoch.latency_ms.begin(),
                      epoch.latency_ms.end());
    rss_mb.push_back(epoch.peak_rss_mb);
    measured_ns += epoch.wall_ns;
  } while (!options.smoke && result.correct &&
           (NowNs() - start < budget || rss_mb.size() % cpus.size() != 0));

  std::printf("workload=%s seed=%llu mode=measure epochs=%zu x (%llu warm-up "
              "+ %llu measured ops) over %zu CPUs\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), rss_mb.size(),
              static_cast<unsigned long long>(warmup),
              static_cast<unsigned long long>(epoch_ops), cpus.size());
  std::printf("setup_s samples:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  PrintLatencyLine("op latency", latency_ms);

  std::vector<double> sorted = latency_ms;
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("op_p50_ms", NearestRank(&sorted, 50.0), "ms");
  result.Add("op_p99_ms", NearestRank(&sorted, 99.0), "ms");
  result.Add("ops_per_s",
             measured_ns > 0 ? static_cast<double>(latency_ms.size()) /
                                   (static_cast<double>(measured_ns) / 1e9)
                             : 0.0,
             "1/s");
  result.Add("peak_rss_mb", Median(rss_mb), "MB");
  return result;
}

RunResult RunClosedLoopTraced(const WorkloadFactory& factory,
                              const Options& options) {
  RunResult result;
  AddZeroPerLayer(&result);
  std::unique_ptr<ClosedLoopWorkload> workload = factory();
  Status status = workload->Setup(options.seed);
  if (!status.ok()) {
    result.Violate("setup failed: " + status.ToString());
    return result;
  }
  const uint64_t warmup = options.smoke ? 1 : workload->WarmupOps();
  for (uint64_t i = 0; i < warmup; ++i) {
    ++result.attempted;
    Status op = workload->RunOp(i, nullptr);
    if (!op.ok()) {
      ++result.failed;
      result.Violate("warm-up op: " + op.ToString());
    }
  }

  // Every op runs three times: through the engine, untraced (wall time and
  // verdict), and twice decomposed into layer calls — once with the tracing
  // ledger, once with a null ledger (no spans, no scopes), whose p50s give
  // the trace overhead. The runs rotate which goes first, so none always
  // finds the caches warm, and they see the same process state (heap growth
  // from leaking sessions included).
  obs::Tracer tracer;
  Ledger ledger(&tracer);
  std::vector<double> wire, doc, refs, plain, steps, untraced_us;
  uint64_t mismatches = 0;
  const int64_t budget = static_cast<int64_t>(options.seconds * 1e9);
  const int64_t start = NowNs();
  for (uint64_t i = warmup;; ++i) {
    Verdict engine_verdict;
    int64_t engine_ns = 0;
    auto run_engine = [&] {
      const int64_t t0 = NowNs();
      Status op = workload->RunOp(i, &engine_verdict);
      engine_ns = NowNs() - t0;
      ++result.attempted;
      if (!op.ok()) {
        ++result.failed;
        result.Violate("op " + std::to_string(i) + ": " + op.ToString());
      }
    };
    Verdict untraced_verdict;
    auto run_untraced = [&] {
      OpCounts ignored;
      const int64_t t0 = NowNs();
      workload->ReplayOp(i, nullptr, &ignored, &untraced_verdict);
      untraced_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    };
    OpCounts counts;
    Verdict verdict;
    const bool engine_first = i % 2 == 0;
    const bool untraced_first = (i / 2) % 2 == 0;
    if (engine_first) run_engine();
    if (untraced_first) run_untraced();
    ledger.BeginOp(i);
    workload->ReplayOp(i, &ledger, &counts, &verdict);
    ledger.EndReplay();
    if (!untraced_first) run_untraced();
    if (!engine_first) run_engine();
    ledger.Commit(engine_ns);
    for (const Verdict* replay : {&verdict, &untraced_verdict}) {
      if (replay->SameAs(engine_verdict)) continue;
      ++mismatches;
      result.Violate("op " + std::to_string(i) +
                     ": decomposed verdict differs from the engine: " +
                     replay->status.ToString() + " vs " +
                     engine_verdict.status.ToString());
    }
    wire.push_back(static_cast<double>(counts.wire_bytes));
    doc.push_back(static_cast<double>(counts.doc_bytes));
    refs.push_back(static_cast<double>(counts.references));
    plain.push_back(static_cast<double>(counts.plaintext_bytes));
    steps.push_back(static_cast<double>(counts.script_steps));
    if (options.smoke ? ledger.ops() >= 3 : NowNs() - start >= budget) break;
  }
  // A smoke pass has too few ops for run totals to settle; the arithmetic
  // itself is covered by tests/selftest.cc.
  const bool check_ledger = workload->LedgerChecked() && !options.smoke;
  if (check_ledger) {
    Status ledger_ok = ledger.Check(0.05);
    if (!ledger_ok.ok()) result.Violate("ledger: " + ledger_ok.ToString());
  }
  Status after = workload->CheckAfterRun();
  if (!after.ok()) result.Violate("after-run check: " + after.ToString());

  for (size_t l = 0; l < kLayerCount; ++l) {
    const Layer layer = static_cast<Layer>(l);
    SetMetric(&result, LayerMetricName(layer), Median(ledger.SelfUs(layer)));
  }
  SetMetric(&result, "player.glue_us", Median(ledger.GlueUs()));
  SetMetric(&result, "net.wire_bytes", Median(wire));
  SetMetric(&result, "xml.doc_bytes", Median(doc));
  SetMetric(&result, "xmldsig.references", Median(refs));
  SetMetric(&result, "xmlenc.plaintext_bytes", Median(plain));
  SetMetric(&result, "script.steps", Median(steps));
  const double untraced_p50 = Median(untraced_us);
  const double traced_p50 = Median(ledger.DecomposedWallUs());
  SetMetric(&result, "bench.trace_overhead",
            untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0.0);
  workload->AddCounters(&result);
  AddCryptoCalibration(workload->world(), workload->CalibrationBytes(),
                       &result);

  const double wall_ms = static_cast<double>(ledger.total_engine_ns()) / 1e6;
  const double layer_ms = static_cast<double>(ledger.total_layer_ns()) / 1e6;
  std::printf("workload=%s seed=%llu mode=trace ops=%zu verdict_mismatches="
              "%llu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), ledger.ops(),
              static_cast<unsigned long long>(mismatches));
  std::printf("ledger: engine wall %.3f ms = layers %.3f ms + glue %.3f ms "
              "(glue share %.2f%%, check %s)\n",
              wall_ms, layer_ms, wall_ms - layer_ms,
              wall_ms > 0 ? (wall_ms - layer_ms) / wall_ms * 100.0 : 0.0,
              check_ledger ? "armed" : "not armed");
  for (size_t l = 0; l < kLayerCount; ++l) {
    const Layer layer = static_cast<Layer>(l);
    const std::vector<double>& us = ledger.SelfUs(layer);
    double total = 0;
    for (double v : us) total += v;
    std::printf("  %-22s ops=%-6zu median=%10.2f us  total=%10.3f ms\n",
                LayerMetricName(layer), us.size(), Median(us), total / 1e3);
  }
  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    out << tracer.ChromeTraceJson();
    std::printf("trace: %zu spans written to %s\n", tracer.size(),
                options.trace_out.c_str());
  }
  return result;
}

}  // namespace perfbench
