// Unit checks of the benchmark's own arithmetic: nearest-rank percentiles,
// the tail count behind a percentile, the ledger's self-time / glue
// bookkeeping and its double-counting check, and the result line format.
// Prints every failed check and exits non-zero if there was one.

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/ledger.h"
#include "perfbench/src/stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestNearestRank() {
  using perfbench::NearestRank;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  Expect(Near(NearestRank(&v, 50.0), 50.0), "p50 of 1..100 is 50");
  Expect(Near(NearestRank(&v, 99.0), 99.0), "p99 of 1..100 is 99");
  Expect(Near(NearestRank(&v, 100.0), 100.0), "p100 is the max");
  Expect(Near(NearestRank(&v, 0.0), 1.0), "p0 clamps to the min");

  // Nearest rank picks a sample, never interpolates.
  std::vector<double> four = {10, 20, 30, 40};
  Expect(Near(NearestRank(&four, 50.0), 20.0), "p50 of 4 samples is rank 2");
  Expect(Near(NearestRank(&four, 51.0), 30.0), "p51 of 4 samples is rank 3");
  std::vector<double> one = {7};
  Expect(Near(NearestRank(&one, 99.0), 7.0), "p99 of one sample");
  std::vector<double> none;
  Expect(Near(NearestRank(&none, 50.0), 0.0), "empty set reads 0");

  // 1000 samples leave 10 beyond p99; 100 samples leave 1.
  std::vector<double> k;
  for (int i = 1; i <= 1000; ++i) k.push_back(i);
  Expect(perfbench::SamplesBeyond(k, 99.0) == 10, "10 samples beyond p99");
  Expect(perfbench::SamplesBeyond(v, 99.0) == 1, "1 sample beyond p99");
  std::vector<double> ties(50, 3.0);
  Expect(perfbench::SamplesBeyond(ties, 99.0) == 0, "ties are not beyond");
}

void TestLedgerArithmetic() {
  using perfbench::Layer;
  using perfbench::kLayerCount;
  perfbench::Ledger ledger(nullptr);
  std::array<int64_t, kLayerCount> self{};
  std::array<bool, kLayerCount> called{};
  self[static_cast<size_t>(Layer::kXmlParse)] = 300000;
  called[static_cast<size_t>(Layer::kXmlParse)] = true;
  self[static_cast<size_t>(Layer::kXmldsigVerify)] = 500000;
  called[static_cast<size_t>(Layer::kXmldsigVerify)] = true;
  ledger.RecordOp(self, called, 900000, 1000000);  // 1 ms engine wall
  Expect(Near(ledger.GlueUs().back(), 200.0), "glue = wall - layers");
  Expect(ledger.SelfUs(Layer::kXmlParse).size() == 1, "called layer kept");
  Expect(ledger.SelfUs(Layer::kScriptRun).empty(), "uncalled layer empty");
  Expect(ledger.total_layer_ns() + 200000 == ledger.total_engine_ns(),
         "layers + glue = engine wall");
  Expect(ledger.Check(0.05).ok(), "positive glue passes");

  // Layers exceeding the engine wall by 10% is double counting.
  perfbench::Ledger over(nullptr);
  self[static_cast<size_t>(Layer::kXmldsigVerify)] = 800000;
  over.RecordOp(self, called, 1100000, 1000000);
  Expect(!over.Check(0.05).ok(), "glue below -5% fails the check");
  Expect(Near(over.GlueUs().back(), -100.0), "negative glue reported");
  // ... while 4% over stays inside the tolerance.
  perfbench::Ledger slight(nullptr);
  self[static_cast<size_t>(Layer::kXmldsigVerify)] = 740000;
  slight.RecordOp(self, called, 1040000, 1000000);
  Expect(slight.Check(0.05).ok(), "glue above -5% passes");
  perfbench::Ledger empty(nullptr);
  Expect(!empty.Check(0.05).ok(), "an empty ledger fails");
}

void TestLedgerScopes() {
  using perfbench::Layer;
  // A nested scope's time is charged to the child, not the parent.
  perfbench::Ledger ledger(nullptr);
  ledger.BeginOp(1);
  {
    perfbench::Ledger::Scope outer(&ledger, Layer::kXmldsigVerify);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    perfbench::Ledger::Scope inner(&ledger, Layer::kXmlencDecrypt);
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
  }
  ledger.EndReplay();
  ledger.Commit(10000000);
  Expect(ledger.DecomposedWallUs().at(0) >= 6000.0, "replay wall measured");
  const double verify = ledger.SelfUs(Layer::kXmldsigVerify).at(0);
  const double decrypt = ledger.SelfUs(Layer::kXmlencDecrypt).at(0);
  Expect(decrypt >= 4000.0, "child self time covers its sleep");
  Expect(verify >= 2000.0 && verify < 4000.0,
         "parent self time excludes the child");
  Expect(Near(ledger.GlueUs().at(0), 10000.0 - verify - decrypt),
         "glue from nested scopes");
  perfbench::Ledger::Scope noop(nullptr, Layer::kXmlParse);  // null ledger
}

void TestResultLine() {
  perfbench::RunResult result;
  result.attempted = 12;
  result.failed = 1;
  result.Add("op_p50_ms", 1.2034567890123, "ms");
  const std::string line = perfbench::ResultJson(result);
  Expect(line ==
             "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
             "\"metrics\": {\"op_p50_ms\": {\"value\": 1.2034567890123, "
             "\"unit\": \"ms\"}}}",
         "result line format: " + line);
  result.Violate("first");
  result.Violate("second");
  Expect(!result.correct && result.violation == "first",
         "first violation is kept");
}

}  // namespace

int main() {
  TestNearestRank();
  TestLedgerArithmetic();
  TestLedgerScopes();
  TestResultLine();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
