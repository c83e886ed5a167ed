// Observability-layer correctness: span nesting (including across
// ThreadPool workers), exporter round-trips through the in-tree JSON
// parser, metrics arithmetic, and the zero-allocation guarantee of
// the disabled fast path (checked with the bench heap tracker linked into
// this binary).

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "authoring/author.h"
#include "bench/alloc_tracker.h"
#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "crypto/algorithms.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_world.h"
#include "xml/serializer.h"
#include "xmldsig/verifier.h"

namespace discsec {
namespace {

// ------------------------------------------------------------ tracing

TEST(TracerTest, NestedSpansRecordParentAndAttributes) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan outer(&tracer, "outer");
    outer.SetAttr("key", "value");
    outer.SetAttr("count", uint64_t{42});
    {
      obs::ScopedSpan inner(&tracer, "inner");
    }
  }
  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // End order: inner finishes first.
  const obs::SpanRecord& inner = spans[0];
  const obs::SpanRecord& outer = spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.parent_id, outer.id);
  EXPECT_EQ(outer.parent_id, 0u);
  ASSERT_EQ(outer.attributes.size(), 2u);
  EXPECT_EQ(outer.attributes[0].first, "key");
  EXPECT_EQ(outer.attributes[0].second, "value");
  EXPECT_EQ(outer.attributes[1].second, "42");
  EXPECT_EQ(inner.thread_id, outer.thread_id);
}

TEST(TracerTest, SiblingAfterNestedChildRestoresParent) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan a(&tracer, "a");
    { obs::ScopedSpan b(&tracer, "b"); }
    { obs::ScopedSpan c(&tracer, "c"); }
  }
  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  uint64_t a_id = spans[2].id;
  EXPECT_EQ(spans[0].name, "b");
  EXPECT_EQ(spans[0].parent_id, a_id);
  EXPECT_EQ(spans[1].name, "c");
  EXPECT_EQ(spans[1].parent_id, a_id);
}

TEST(TracerTest, ExplicitParentNestsCorrectlyAcrossThreadPoolWorkers) {
  obs::Tracer tracer;
  std::vector<obs::SpanRecord> spans;
  uint64_t root_id = 0;
  {
    obs::ScopedSpan root(&tracer, "root");
    root_id = root.context().span_id;
    const obs::SpanContext ctx = root.context();
    ThreadPool pool(4);
    taskgraph::TaskGraph graph;
    for (size_t i = 0; i < 32; ++i) {
      graph.AddNode("child", [&, i] {
        obs::ScopedSpan child(ctx, "child");
        child.SetAttr("index", static_cast<uint64_t>(i));
        // Implicit nesting must follow the explicit parent on this worker.
        obs::ScopedSpan grandchild(&tracer, "grandchild");
        return Status::OK();
      });
    }
    taskgraph::TaskGraph::RunOptions run;
    run.pool = &pool;
    ASSERT_TRUE(graph.Run(run).ok());
  }
  spans = tracer.Snapshot();
  std::set<uint64_t> child_ids;
  size_t children = 0, grandchildren = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "child") {
      ++children;
      EXPECT_EQ(span.parent_id, root_id);
      child_ids.insert(span.id);
    }
  }
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "grandchild") {
      ++grandchildren;
      EXPECT_TRUE(child_ids.count(span.parent_id))
          << "grandchild " << span.id << " parented to " << span.parent_id;
    }
  }
  EXPECT_EQ(children, 32u);
  EXPECT_EQ(grandchildren, 32u);
}

TEST(TracerTest, DisabledTracerMakesZeroAllocations) {
  // The whole point of the null fast path: instrumented hot-path code with
  // no tracer configured must not touch the heap (or the clock).
  bench::ResetAllocStats();
  for (int i = 0; i < 1000; ++i) {
    obs::ScopedSpan span(static_cast<obs::Tracer*>(nullptr), "hot.path");
    span.SetAttr("uri", "#some-reference");
    span.SetAttr("bytes", static_cast<uint64_t>(i));
    obs::ScopedLatency latency(nullptr);
  }
  size_t allocations = bench::AllocCount();
  EXPECT_EQ(allocations, 0u);
}

TEST(TracerTest, ChromeTraceJsonRoundTripsThroughParser) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan outer(&tracer, "outer");
    outer.SetAttr("tricky", "quote\" backslash\\ newline\n tab\t");
    { obs::ScopedSpan inner(&tracer, "inner"); }
  }
  std::string json = tracer.ChromeTraceJson();
  auto parsed = obs::json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  const obs::json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  ASSERT_EQ(events->items.size(), 2u);
  bool saw_outer = false;
  for (const obs::json::Value& event : events->items) {
    ASSERT_TRUE(event.IsObject());
    const obs::json::Value* name = event.Find("name");
    ASSERT_NE(name, nullptr);
    const obs::json::Value* phase = event.Find("ph");
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(phase->string_value, "X");
    const obs::json::Value* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_TRUE(args->IsObject());
    if (name->string_value == "outer") {
      saw_outer = true;
      const obs::json::Value* tricky = args->Find("tricky");
      ASSERT_NE(tricky, nullptr);
      // The escaped attribute must decode back to the original bytes.
      EXPECT_EQ(tricky->string_value, "quote\" backslash\\ newline\n tab\t");
    }
  }
  EXPECT_TRUE(saw_outer);
}

TEST(TracerTest, TextReportIndentsChildrenUnderParents) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan outer(&tracer, "parent.span");
    { obs::ScopedSpan inner(&tracer, "child.span"); }
  }
  std::string report = tracer.TextReport();
  size_t parent_at = report.find("parent.span");
  size_t child_at = report.find("  child.span");
  ASSERT_NE(parent_at, std::string::npos) << report;
  ASSERT_NE(child_at, std::string::npos) << report;
  EXPECT_LT(parent_at, child_at);
}

// ------------------------------------------------------------ metrics

TEST(MetricsTest, CounterAddAndSet) {
  obs::Counter counter;
  counter.Add();
  counter.Add(4);
  EXPECT_EQ(counter.value(), 5u);
  counter.Set(2);  // gauges may decrease
  EXPECT_EQ(counter.value(), 2u);
}

TEST(MetricsTest, HistogramBucketsAndQuantiles) {
  obs::Histogram histogram;
  histogram.Observe(1);   // bucket 0: [0, 2)
  histogram.Observe(3);   // bucket 1: [2, 4)
  histogram.Observe(100); // bucket 6: [64, 128)
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.sum_micros(), 104u);
  EXPECT_EQ(histogram.max_micros(), 100u);
  EXPECT_EQ(histogram.bucket(0), 1u);
  EXPECT_EQ(histogram.bucket(1), 1u);
  EXPECT_EQ(histogram.bucket(6), 1u);
  // Quantiles report bucket upper edges, and are monotone in q.
  EXPECT_EQ(histogram.ApproxQuantileMicros(0.5), 4u);
  EXPECT_EQ(histogram.ApproxQuantileMicros(0.99), 128u);
}

TEST(MetricsTest, SnapshotIsSortedAndJsonRoundTrips) {
  obs::MetricsRegistry registry;
  registry.GetCounter("zeta.count")->Add(7);
  registry.GetCounter("alpha.count")->Add(1);
  registry.GetHistogram("latency_us")->Observe(10);
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "alpha.count");
  EXPECT_EQ(snapshot.counters[1].first, "zeta.count");
  EXPECT_EQ(snapshot.counter("zeta.count"), 7u);
  EXPECT_EQ(snapshot.counter("missing"), 0u);
  ASSERT_NE(snapshot.histogram("latency_us"), nullptr);

  auto parsed = obs::json::Parse(snapshot.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::json::Value* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::json::Value* zeta = counters->Find("zeta.count");
  ASSERT_NE(zeta, nullptr);
  EXPECT_EQ(zeta->number_value, 7.0);
  const obs::json::Value* histograms = parsed->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const obs::json::Value* latency = histograms->Find("latency_us");
  ASSERT_NE(latency, nullptr);
  const obs::json::Value* count = latency->Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->number_value, 1.0);
}

// ------------------------------------------------- pipeline integration

class ObsPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new testing_world::World(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static testing_world::World* world_;
};

testing_world::World* ObsPipelineTest::world_ = nullptr;

std::vector<obs::SpanRecord> SpansNamed(
    const std::vector<obs::SpanRecord>& spans, std::string_view name) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == name) out.push_back(span);
  }
  return out;
}

std::string Attr(const obs::SpanRecord& span, std::string_view key) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key) return v;
  }
  return {};
}

TEST_F(ObsPipelineTest, VerifierEmitsReferenceSpansWithAttributes) {
  authoring::Author author = world_->MakeAuthor();
  disc::InteractiveCluster cluster = world_->DemoCluster();
  auto doc = author.BuildSigned(cluster, authoring::SignLevel::kTrack);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  pki::CertStore store;
  ASSERT_TRUE(store.AddTrustedRoot(world_->root_cert).ok());
  xmldsig::VerifyOptions options;
  options.cert_store = &store;
  options.now = testing_world::kNow;
  options.tracer = &tracer;
  options.metrics = &metrics;

  ASSERT_TRUE(
      xmldsig::Verifier::VerifyFirstSignature(doc.value(), options).ok());
  auto refs = SpansNamed(tracer.Snapshot(), "xmldsig.reference");
  ASSERT_EQ(refs.size(), 1u);  // one detached reference to the track
  EXPECT_EQ(Attr(refs[0], "uri"), "#" + cluster.FirstApplicationTrack()->id);
  EXPECT_EQ(Attr(refs[0], "transforms"), crypto::kAlgC14N);
  EXPECT_FALSE(Attr(refs[0], "digest_alg").empty());

  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counter("xmldsig.references_verified"), 1u);
  const obs::HistogramSnapshot* verify_us =
      snapshot.histogram("xmldsig.verify_us");
  ASSERT_NE(verify_us, nullptr);
  EXPECT_EQ(verify_us->count, 1u);
}

TEST_F(ObsPipelineTest, PlayDiscSpansNestCorrectlyAcrossPoolWorkers) {
  authoring::Author author = world_->MakeAuthor();
  disc::InteractiveCluster cluster = world_->DemoCluster();
  auto doc = author.BuildSigned(cluster, authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto image = author.Master(cluster, doc.value());
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  ThreadPool pool(4);
  player::PlayerConfig config = world_->MakePlayerConfig();
  config.pool = &pool;
  config.tracer = &tracer;
  config.metrics = &metrics;
  player::InteractiveApplicationEngine engine(std::move(config));
  auto playback = engine.PlayDisc(image.value());
  ASSERT_TRUE(playback.ok()) << playback.status().ToString();

  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  auto disc_spans = SpansNamed(spans, "player.play_disc");
  ASSERT_EQ(disc_spans.size(), 1u);
  auto track_spans = SpansNamed(spans, "player.track");
  ASSERT_EQ(track_spans.size(), 2u);  // movie + app
  for (const obs::SpanRecord& span : track_spans) {
    EXPECT_EQ(span.parent_id, disc_spans[0].id);
    EXPECT_EQ(Attr(span, "outcome"), "ok");
  }
  // Phase spans from the app track's pipeline are present too.
  EXPECT_FALSE(SpansNamed(spans, "player.verify").empty());
  EXPECT_FALSE(SpansNamed(spans, "xml.parse").empty());
  EXPECT_FALSE(SpansNamed(spans, "xmldsig.verify").empty());

  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counter("player.discs_inserted"), 1u);
  EXPECT_EQ(snapshot.counter("player.tracks_played"), 2u);
  EXPECT_EQ(snapshot.counter("player.tracks_quarantined"), 0u);
  const obs::HistogramSnapshot* verify_us =
      snapshot.histogram("player.verify_us");
  ASSERT_NE(verify_us, nullptr);
  EXPECT_GE(verify_us->count, 1u);
}

}  // namespace
}  // namespace discsec
