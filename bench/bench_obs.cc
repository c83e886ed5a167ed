// E13 — observability overhead (BENCH_obs.json): the tracing/metrics layer
// must be near-free when disabled. The end-to-end sweep runs the same
// security pipeline (parse -> verify -> decrypt -> policy -> markup ->
// script) with observability off / tracing / metrics / both; the
// microbenches price a single disabled span (which must also make zero heap
// allocations — the alloc tracker is linked into this binary) against an
// enabled one. Acceptance: obs_off within 2% of the pre-instrumentation
// baseline, i.e. the disabled-path work is a handful of null checks.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include "bench/alloc_tracker.h"
#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "player/engine.h"

namespace discsec {
namespace {

using bench::SharedWorld;

enum ObsMode : int {
  kObsOff = 0,
  kObsTrace = 1,
  kObsMetrics = 2,
  kObsBoth = 3,
};

std::string SignedClusterXml() {
  static const std::string* xml = [] {
    auto& world = SharedWorld();
    auto doc = world.MakeAuthor()
                   .BuildSigned(world.DemoCluster(),
                                authoring::SignLevel::kCluster)
                   .value();
    return new std::string(xml::Serialize(doc));
  }();
  return *xml;
}

void BM_LaunchCluster(benchmark::State& state) {
  auto& world = SharedWorld();
  std::string cluster_xml = SignedClusterXml();
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  player::PlayerConfig config = world.MakePlayerConfig();
  int mode = static_cast<int>(state.range(0));
  if (mode & kObsTrace) config.tracer = &tracer;
  if (mode & kObsMetrics) config.metrics = &metrics;
  player::InteractiveApplicationEngine engine(std::move(config));

  bench::ResetAllocStats();
  size_t iterations = 0;
  for (auto _ : state) {
    auto report = engine.LaunchClusterXml(cluster_xml, player::Origin::kDisc);
    if (!report.ok()) state.SkipWithError("launch failed");
    benchmark::DoNotOptimize(report->script_steps);
    // Keep the tracer's buffer from growing without bound (and from
    // turning the enabled run into a memory benchmark).
    tracer.Clear();
    ++iterations;
  }
  if (iterations > 0) {
    state.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(bench::AllocCount()) /
        static_cast<double>(iterations));
  }
  static const char* kNames[] = {"obs_off", "tracing", "metrics", "both"};
  state.SetLabel(kNames[mode]);
}
BENCHMARK(BM_LaunchCluster)
    ->Arg(kObsOff)
    ->Arg(kObsTrace)
    ->Arg(kObsMetrics)
    ->Arg(kObsBoth)
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------- parse allocations

void BM_ParseAllocs(benchmark::State& state) {
  // allocs_per_iter is the heap-allocation count the alloc tracker sees per
  // parse of the signed demo cluster: one per node plus its strings.
  std::string cluster_xml = SignedClusterXml();
  bench::ResetAllocStats();
  size_t iterations = 0;
  for (auto _ : state) {
    auto doc = xml::Parse(cluster_xml);
    if (!doc.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(doc.value().root());
    ++iterations;
  }
  if (iterations > 0) {
    state.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(bench::AllocCount()) /
        static_cast<double>(iterations));
  }
}
BENCHMARK(BM_ParseAllocs)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------ span cost

void BM_SpanDisabled(benchmark::State& state) {
  // The instrumented hot path with no tracer configured: a null check per
  // span and per attribute, no clock reads, no heap. allocs_per_iter must
  // be exactly zero.
  bench::ResetAllocStats();
  size_t iterations = 0;
  for (auto _ : state) {
    obs::ScopedSpan span(static_cast<obs::Tracer*>(nullptr),
                         "xmldsig.reference");
    span.SetAttr("uri", "#track-app");
    span.SetAttr("bytes", uint64_t{4096});
    benchmark::DoNotOptimize(span.enabled());
    ++iterations;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      iterations == 0 ? 0.0
                      : static_cast<double>(bench::AllocCount()) /
                            static_cast<double>(iterations));
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  bench::ResetAllocStats();
  size_t iterations = 0;
  for (auto _ : state) {
    {
      obs::ScopedSpan span(&tracer, "xmldsig.reference");
      span.SetAttr("uri", "#track-app");
      span.SetAttr("bytes", uint64_t{4096});
    }
    if (tracer.size() >= 4096) tracer.Clear();
    ++iterations;
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      iterations == 0 ? 0.0
                      : static_cast<double>(bench::AllocCount()) /
                            static_cast<double>(iterations));
}
BENCHMARK(BM_SpanEnabled);

void BM_ScopedLatencyDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::ScopedLatency latency(nullptr);
    benchmark::DoNotOptimize(&latency);
  }
}
BENCHMARK(BM_ScopedLatencyDisabled);

void BM_CounterAdd(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  obs::Counter* counter = metrics.GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Add();
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  obs::Histogram* histogram = metrics.GetHistogram("bench.latency_us");
  uint64_t value = 1;
  for (auto _ : state) {
    histogram->Observe(value);
    value = (value * 13 + 7) & 0xffff;
  }
  benchmark::DoNotOptimize(histogram->count());
}
BENCHMARK(BM_HistogramObserve);

}  // namespace
}  // namespace discsec

DISCSEC_BENCH_MAIN("obs");
