// Differential property harness: xrml::RightsManager versus the independent
// Halpern–Weissman-style formal semantics in src/xrml/formal/.
//
// A seeded generator produces random license sets (overlapping grants,
// wildcard principals/resources, validity windows with boundary and empty
// cases, territory lists, exercise limits including zero, duplicate license
// ids, varying issuers) and random operation streams (IsPermitted queries,
// counted Exercises, mid-stream installs). Every operation's outcome is
// checked against the oracle:
//
//   - IsPermitted(r, res, ctx)  ==  RuleSet::Permitted(..., mirror uses)
//   - Exercise ok               ==  oracle Permitted before the exercise
//   - a successful Exercise changes the recorded-use counters by exactly
//     0 (an unlimited grant was active) or 1, and a consumed counter must
//     belong to a grant the oracle derives grant_active for — scheduler-
//     independent, so the same predicate also holds under ThreadPool races.
//
// On divergence the failing case is shrunk (drop ops, licenses, grants
// until minimal) and printed with the generator seed. The seed comes from
// CHAOS_SEED (default 8081215, the oracle paper's arXiv id) and is echoed
// so CI's rotating-seed runs are replayable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "pki/cert_store.h"
#include "tests/test_world.h"
#include "xrml/formal/semantics.h"
#include "xrml/license.h"
#include "xrml/rights_manager.h"

namespace discsec {
namespace xrml {
namespace {

using testing_world::kNow;
using testing_world::World;

uint64_t OracleSeed() {
  const char* env = std::getenv("CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 8081215;
}

class OracleSeedEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    std::fprintf(stderr,
                 "[oracle] generator seed = %llu (override with CHAOS_SEED)\n",
                 static_cast<unsigned long long>(OracleSeed()));
  }
};

const auto* const kSeedEnvironment =
    ::testing::AddGlobalTestEnvironment(new OracleSeedEnvironment);

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

using Rng = std::mt19937_64;

size_t Pick(Rng& rng, size_t bound) {
  return static_cast<size_t>(rng() % bound);
}

const char* const kPrincipals[] = {"player-A", "player-B", "kiosk-1", "*"};
const char* const kResources[] = {"track-1", "track-2", "menu", "*"};
const char* const kTerritories[] = {"US", "EU", "JP"};
const char* const kIssuers[] = {"studio-x", "studio-y", "aggregator-z"};
// Only four ids for up to eight licenses: duplicate license_ids (which alias
// exercise counters across licenses) are generated on purpose.
const char* const kLicenseIds[] = {"lic-1", "lic-2", "lic-3", "lic-4"};

// Instants straddling kNow, including the exact boundaries.
const int64_t kInstants[] = {kNow - 1000, kNow - 1, kNow, kNow + 1,
                             kNow + 1000};

Conditions GenConditions(Rng& rng) {
  Conditions c;
  if (Pick(rng, 2) == 0) c.not_before = kInstants[Pick(rng, 5)];
  // Empty windows (not_after < not_before) are legal to express and must
  // simply never activate; the generator produces them freely.
  if (Pick(rng, 2) == 0) c.not_after = kInstants[Pick(rng, 5)];
  if (Pick(rng, 3) == 0) {
    size_t n = 1 + Pick(rng, 2);
    for (size_t i = 0; i < n; ++i) {
      c.territories.push_back(kTerritories[Pick(rng, 3)]);
    }
  }
  // limit 0 is a grant that can never be exercised — a boundary the scan
  // and the uses_below atom must agree on.
  if (Pick(rng, 3) == 0) c.exercise_limit = static_cast<uint32_t>(Pick(rng, 4));
  return c;
}

Grant GenGrant(Rng& rng) {
  Grant g;
  g.key_holder = kPrincipals[Pick(rng, 4)];
  g.right = static_cast<Right>(Pick(rng, 4));
  g.resource = kResources[Pick(rng, 4)];
  g.conditions = GenConditions(rng);
  return g;
}

License GenLicense(Rng& rng) {
  License license;
  license.license_id = kLicenseIds[Pick(rng, 4)];
  license.issuer = kIssuers[Pick(rng, 3)];
  size_t grants = 1 + Pick(rng, 3);
  for (size_t i = 0; i < grants; ++i) license.grants.push_back(GenGrant(rng));
  return license;
}

ExerciseContext GenContext(Rng& rng) {
  ExerciseContext ctx;
  ctx.principal = kPrincipals[Pick(rng, 3)];  // concrete principals only
  ctx.territory = kTerritories[Pick(rng, 3)];
  ctx.now = kInstants[Pick(rng, 5)];
  return ctx;
}

struct Op {
  enum Kind { kQuery, kExercise, kInstall } kind = kQuery;
  Right right = Right::kPlay;
  std::string resource;
  ExerciseContext ctx;
  License license;  // kInstall only

  std::string ToString() const {
    if (kind == kInstall) {
      return "install " + license.ToXmlString();
    }
    std::string out = kind == kQuery ? "query    " : "exercise ";
    out += std::string(RightName(right)) + " on '" + resource + "' by '" +
           ctx.principal + "' in " + ctx.territory + " at t=" +
           std::to_string(ctx.now);
    return out;
  }
};

struct Case {
  std::vector<License> initial;
  std::vector<Op> ops;
};

Op GenOp(Rng& rng) {
  Op op;
  size_t roll = Pick(rng, 10);
  if (roll < 6) {
    op.kind = Op::kQuery;
  } else if (roll < 9) {
    op.kind = Op::kExercise;
  } else {
    op.kind = Op::kInstall;
    op.license = GenLicense(rng);
    return op;
  }
  op.right = static_cast<Right>(Pick(rng, 4));
  op.resource = kResources[Pick(rng, 3)];  // concrete resources only
  op.ctx = GenContext(rng);
  return op;
}

Case GenCase(Rng& rng, size_t ops) {
  Case c;
  size_t licenses = 1 + Pick(rng, 5);
  for (size_t i = 0; i < licenses; ++i) c.initial.push_back(GenLicense(rng));
  for (size_t i = 0; i < ops; ++i) c.ops.push_back(GenOp(rng));
  return c;
}

// ---------------------------------------------------------------------------
// Differential execution
// ---------------------------------------------------------------------------

/// Every (license_id, grant_index) pair the store can count against.
std::set<std::pair<std::string, size_t>> CounterKeys(
    const std::vector<License>& store) {
  std::set<std::pair<std::string, size_t>> keys;
  for (const License& license : store) {
    for (size_t gi = 0; gi < license.grants.size(); ++gi) {
      keys.insert({license.license_id, gi});
    }
  }
  return keys;
}

formal::UseCounts SnapshotUses(const RightsManager& rm,
                               const std::vector<License>& store) {
  formal::UseCounts uses;
  for (const auto& key : CounterKeys(store)) {
    uint32_t used = rm.UsesRecorded(key.first, key.second);
    if (used > 0) uses[key] = used;
  }
  return uses;
}

/// Runs `c` against a fresh RightsManager while checking every operation
/// against the formal oracle. Returns a divergence description, or nullopt
/// if the whole stream agrees; `*fail_op` receives the index of the
/// diverging operation.
std::optional<std::string> RunCase(const Case& c, size_t* fail_op) {
  RightsManager rm(nullptr, kNow);

  std::vector<License> store;
  for (const License& license : c.initial) {
    Status s = rm.InstallUnsigned(license);
    if (!s.ok()) {
      *fail_op = 0;
      return "InstallUnsigned of initial license failed: " + s.message();
    }
    store.push_back(license);
  }
  formal::RuleSet rules = formal::RuleSet::Compile(store);
  formal::UseCounts uses;

  for (size_t i = 0; i < c.ops.size(); ++i) {
    const Op& op = c.ops[i];
    *fail_op = i;
    if (op.kind == Op::kInstall) {
      Status s = rm.InstallUnsigned(op.license);
      if (!s.ok()) return "mid-stream install failed: " + s.message();
      store.push_back(op.license);
      rules = formal::RuleSet::Compile(store);
      continue;
    }
    if (op.kind == Op::kQuery) {
      bool got = rm.IsPermitted(op.right, op.resource, op.ctx);
      bool want =
          rules.Permitted(op.ctx.principal, op.right, op.resource, op.ctx,
                          uses);
      if (got != want) {
        std::vector<std::string> trace;
        rules.Permitted(op.ctx.principal, op.right, op.resource, op.ctx, uses,
                        &trace);
        std::string detail = "IsPermitted=" + std::string(got ? "true"
                                                              : "false") +
                             " but oracle says " + (want ? "true" : "false");
        for (const std::string& step : trace) detail += "\n    " + step;
        return detail;
      }
      continue;
    }
    // Exercise: verdict parity, then conservation of the use counters.
    bool want = rules.Permitted(op.ctx.principal, op.right, op.resource,
                                op.ctx, uses);
    Status s = rm.Exercise(op.right, op.resource, op.ctx);
    if (s.ok() != want) {
      return "Exercise " + std::string(s.ok() ? "succeeded" : "failed") +
             " but oracle says " + (want ? "permitted" : "denied") + " (" +
             s.message() + ")";
    }
    formal::UseCounts after = SnapshotUses(rm, store);
    uint64_t total_delta = 0;
    std::pair<std::string, size_t> consumed;
    for (const auto& key : CounterKeys(store)) {
      auto a = after.find(key);
      auto b = uses.find(key);
      uint32_t now_used = a == after.end() ? 0 : a->second;
      uint32_t was_used = b == uses.end() ? 0 : b->second;
      if (now_used < was_used) return "a use counter went backwards";
      if (now_used > was_used) {
        total_delta += now_used - was_used;
        consumed = key;
      }
    }
    if (!s.ok()) {
      if (total_delta != 0) return "denied Exercise consumed a use";
      continue;
    }
    if (total_delta > 1) {
      return "one Exercise consumed " + std::to_string(total_delta) + " uses";
    }
    std::vector<formal::ActiveGrant> active =
        rules.ActiveGrants(op.ctx.principal, op.right, op.resource, op.ctx,
                           uses);
    if (total_delta == 1) {
      bool legitimate = false;
      for (const formal::ActiveGrant& ag : active) {
        if (ag.limited && ag.license_id == consumed.first &&
            ag.grant_index == consumed.second) {
          legitimate = true;
          break;
        }
      }
      if (!legitimate) {
        return "Exercise consumed counter (" + consumed.first + ", " +
               std::to_string(consumed.second) +
               ") which the oracle does not derive as an active limited "
               "grant";
      }
    } else {
      bool any_unlimited = false;
      for (const formal::ActiveGrant& ag : active) {
        if (!ag.limited) {
          any_unlimited = true;
          break;
        }
      }
      if (!any_unlimited) {
        return "successful Exercise consumed no use, but every active grant "
               "is exercise-limited";
      }
    }
    uses = std::move(after);
  }
  return std::nullopt;
}

bool Diverges(const Case& c) {
  size_t fail_op = 0;
  return RunCase(c, &fail_op).has_value();
}

/// Delta-debugging shrinker: drop trailing ops, then individual ops,
/// licenses and grants while the divergence persists.
Case Shrink(Case c) {
  bool progress = true;
  while (progress) {
    progress = false;
    size_t fail_op = 0;
    if (RunCase(c, &fail_op).has_value() &&
        fail_op + 1 < c.ops.size()) {
      c.ops.resize(fail_op + 1);
      progress = true;
    }
    for (size_t i = 0; i < c.ops.size();) {
      Case cand = c;
      cand.ops.erase(cand.ops.begin() + static_cast<long>(i));
      if (Diverges(cand)) {
        c = std::move(cand);
        progress = true;
      } else {
        ++i;
      }
    }
    for (size_t i = 0; i < c.initial.size();) {
      Case cand = c;
      cand.initial.erase(cand.initial.begin() + static_cast<long>(i));
      if (Diverges(cand)) {
        c = std::move(cand);
        progress = true;
      } else {
        ++i;
      }
    }
    for (size_t li = 0; li < c.initial.size(); ++li) {
      for (size_t gi = 0; gi < c.initial[li].grants.size();) {
        Case cand = c;
        cand.initial[li].grants.erase(cand.initial[li].grants.begin() +
                                      static_cast<long>(gi));
        if (Diverges(cand)) {
          c = std::move(cand);
          progress = true;
        } else {
          ++gi;
        }
      }
    }
  }
  return c;
}

std::string Describe(const Case& c) {
  std::string out = "licenses:\n";
  for (const License& license : c.initial) {
    out += "  " + license.ToXmlString() + "\n";
  }
  out += "ops:\n";
  for (const Op& op : c.ops) out += "  " + op.ToString() + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// The differential property
// ---------------------------------------------------------------------------

// >= 10^4 generated (license-set, query) cases per run: 256 cases x 48 ops
// = 12288 checked operations.
constexpr size_t kCaseCount = 256;
constexpr size_t kOpsPerCase = 48;

TEST(XrmlOracleDifferential, RightsManagerMatchesFormalSemantics) {
  Rng rng(OracleSeed());
  size_t checked = 0;
  for (size_t iter = 0; iter < kCaseCount; ++iter) {
    Case c = GenCase(rng, kOpsPerCase);
    size_t fail_op = 0;
    std::optional<std::string> divergence = RunCase(c, &fail_op);
    if (divergence.has_value()) {
      Case minimal = Shrink(c);
      size_t minimal_op = 0;
      std::optional<std::string> minimal_divergence =
          RunCase(minimal, &minimal_op);
      FAIL() << "divergence (seed " << OracleSeed() << ", case " << iter
             << ", op " << fail_op << "): " << *divergence
             << "\nshrunk to op " << minimal_op << ": "
             << (minimal_divergence.has_value() ? *minimal_divergence
                                                : std::string("(gone)"))
             << "\n" << Describe(minimal);
    }
    checked += c.ops.size();
  }
  EXPECT_GE(checked, 10000u) << "harness shrank below the 10^4-case floor";
}

// The shrinker itself must terminate and preserve divergence on a case that
// is known-divergent by construction (a deliberately broken oracle claim).
// We fake one by checking the shrinker's fixed point over an artificial
// predicate: a case "diverges" iff it still contains an exercise op on
// 'track-1'. The minimal fixed point is a single op and no licenses.
TEST(XrmlOracleDifferential, ShrinkerReachesMinimalCase) {
  Rng rng(OracleSeed() ^ 0x5eed);
  Case c = GenCase(rng, 24);
  Op needle;
  needle.kind = Op::kExercise;
  needle.right = Right::kPlay;
  needle.resource = "track-1";
  needle.ctx = GenContext(rng);
  c.ops.insert(c.ops.begin() + static_cast<long>(c.ops.size() / 2), needle);

  auto contains_needle = [](const Case& cand) {
    for (const Op& op : cand.ops) {
      if (op.kind == Op::kExercise && op.resource == "track-1") return true;
    }
    return false;
  };
  // Inline re-statement of Shrink's loop over the artificial predicate.
  Case minimal = c;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < minimal.ops.size();) {
      Case cand = minimal;
      cand.ops.erase(cand.ops.begin() + static_cast<long>(i));
      if (contains_needle(cand)) {
        minimal = std::move(cand);
        progress = true;
      } else {
        ++i;
      }
    }
    for (size_t i = 0; i < minimal.initial.size();) {
      Case cand = minimal;
      cand.initial.erase(cand.initial.begin() + static_cast<long>(i));
      if (contains_needle(cand)) {
        minimal = std::move(cand);
        progress = true;
      } else {
        ++i;
      }
    }
  }
  EXPECT_TRUE(contains_needle(minimal));
  EXPECT_EQ(minimal.ops.size(), 1u);
  EXPECT_TRUE(minimal.initial.empty());
}

// The oracle also holds across the *signed* install path: licenses issued
// with real issuer chains, admitted through InstallLicense's signature +
// trust checks, then differentially queried.
TEST(XrmlOracleDifferential, SignedInstallPathMatchesOracle) {
  World world;
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world.root_cert).ok());

  Rng rng(OracleSeed() ^ 0xc4a1);
  RightsManager rm(&trust, kNow);

  std::vector<License> store;
  for (size_t i = 0; i < 4; ++i) {
    License license = GenLicense(rng);
    license.license_id = "signed-" + std::to_string(i);
    auto signed_xml = IssueSignedLicense(
        license, world.studio_key.private_key,
        {world.studio_cert, world.root_cert});
    ASSERT_TRUE(signed_xml.ok()) << signed_xml.status().message();
    ASSERT_TRUE(rm.InstallLicense(*signed_xml).ok());
    store.push_back(license);
  }
  ASSERT_EQ(rm.LicenseCount(), 4u);

  formal::RuleSet rules = formal::RuleSet::Compile(store);
  formal::UseCounts uses;
  for (size_t i = 0; i < 256; ++i) {
    Op op = GenOp(rng);
    if (op.kind != Op::kQuery) continue;
    bool got = rm.IsPermitted(op.right, op.resource, op.ctx);
    bool want = rules.Permitted(op.ctx.principal, op.right, op.resource,
                                op.ctx, uses);
    EXPECT_EQ(got, want) << op.ToString();
  }
}

// ---------------------------------------------------------------------------
// Oracle self-checks
// ---------------------------------------------------------------------------

TEST(FormalSemantics, DerivationTraceShowsProvenance) {
  License license;
  license.license_id = "lic-trace";
  license.issuer = "studio-x";
  Grant g;
  g.key_holder = "player-A";
  g.right = Right::kPlay;
  g.resource = "track-1";
  license.grants.push_back(g);

  formal::RuleSet rules = formal::RuleSet::Compile({license});
  EXPECT_EQ(rules.clause_count(), 3u);  // issued, grant_active, permitted

  ExerciseContext ctx;
  ctx.principal = "player-A";
  ctx.now = kNow;
  std::vector<std::string> trace;
  EXPECT_TRUE(rules.Permitted("player-A", Right::kPlay, "track-1", ctx, {},
                              &trace));
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_NE(trace[0].find("issued"), std::string::npos);
  EXPECT_NE(trace[1].find("grant_active"), std::string::npos);
  EXPECT_NE(trace[2].find("permitted"), std::string::npos);
  EXPECT_NE(trace[2].find("license[0]/grant[0]"), std::string::npos);
}

TEST(FormalSemantics, WildcardsGroundToTheQuery) {
  License license;
  license.license_id = "lic-wild";
  license.issuer = "studio-x";
  Grant g;
  g.key_holder = "*";
  g.right = Right::kExecute;
  g.resource = "*";
  license.grants.push_back(g);

  formal::RuleSet rules = formal::RuleSet::Compile({license});
  ExerciseContext ctx;
  ctx.principal = "anything-at-all";
  ctx.now = kNow;
  EXPECT_TRUE(
      rules.Permitted("anything-at-all", Right::kExecute, "any-res", ctx, {}));
  EXPECT_FALSE(
      rules.Permitted("anything-at-all", Right::kPlay, "any-res", ctx, {}));
}

TEST(FormalSemantics, UsesBelowReadsTheEnvironment) {
  License license;
  license.license_id = "lic-uses";
  license.issuer = "studio-x";
  Grant g;
  g.key_holder = "player-A";
  g.right = Right::kCopy;
  g.resource = "track-2";
  g.conditions.exercise_limit = 2;
  license.grants.push_back(g);

  formal::RuleSet rules = formal::RuleSet::Compile({license});
  ExerciseContext ctx;
  ctx.principal = "player-A";
  ctx.now = kNow;
  formal::UseCounts uses;
  EXPECT_TRUE(rules.Permitted("player-A", Right::kCopy, "track-2", ctx, uses));
  uses[{"lic-uses", 0}] = 1;
  EXPECT_TRUE(rules.Permitted("player-A", Right::kCopy, "track-2", ctx, uses));
  uses[{"lic-uses", 0}] = 2;
  EXPECT_FALSE(rules.Permitted("player-A", Right::kCopy, "track-2", ctx, uses));
  std::vector<formal::ActiveGrant> active =
      rules.ActiveGrants("player-A", Right::kCopy, "track-2", ctx, uses);
  EXPECT_TRUE(active.empty());
}

// ---------------------------------------------------------------------------
// Concurrency properties (the TSan targets)
// ---------------------------------------------------------------------------

// Runs body(i) for every i in [0, n) as independent task-graph nodes on an
// 8-worker pool and asserts that every node succeeded.
void RunOnPool(size_t n, const std::function<Status(size_t)>& body) {
  ThreadPool pool(8);
  taskgraph::TaskGraph graph;
  for (size_t i = 0; i < n; ++i) {
    graph.AddNode("op#" + std::to_string(i), [&body, i] { return body(i); });
  }
  taskgraph::TaskGraph::RunOptions run;
  run.pool = &pool;
  Status status = graph.Run(run);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// Racing exercisers on a nearly-exhausted grant: exactly `limit` of them
// may win, the recorded counter must equal the limit, and the final state
// must agree with the oracle evaluated at exhaustion. Queries race the
// exercises too.
TEST(XrmlOracleConcurrent, ExhaustionRaceConservesUses) {
  constexpr uint32_t kLimit = 8;
  License license;
  license.license_id = "lic-race";
  license.issuer = "studio-x";
  Grant g;
  g.key_holder = "*";
  g.right = Right::kPlay;
  g.resource = "track-1";
  g.conditions.exercise_limit = kLimit;
  license.grants.push_back(g);

  RightsManager rm(nullptr, kNow);
  ASSERT_TRUE(rm.InstallUnsigned(license).ok());

  std::atomic<uint32_t> successes{0};
  RunOnPool(64, [&](size_t i) {
    ExerciseContext ctx;
    ctx.principal = "player-" + std::to_string(i % 4);
    ctx.now = kNow;
    if (rm.Exercise(Right::kPlay, "track-1", ctx).ok()) {
      successes.fetch_add(1, std::memory_order_relaxed);
    }
    (void)rm.IsPermitted(Right::kPlay, "track-1", ctx);  // raced reads
    return Status::OK();
  });

  EXPECT_EQ(successes.load(), kLimit);
  EXPECT_EQ(rm.UsesRecorded("lic-race", 0), kLimit);

  formal::RuleSet rules = formal::RuleSet::Compile({license});
  formal::UseCounts uses;
  uses[{"lic-race", 0}] = kLimit;
  ExerciseContext ctx;
  ctx.principal = "player-0";
  ctx.now = kNow;
  EXPECT_FALSE(rules.Permitted("player-0", Right::kPlay, "track-1", ctx,
                               uses));
  EXPECT_FALSE(rm.IsPermitted(Right::kPlay, "track-1", ctx));
  EXPECT_FALSE(rm.Exercise(Right::kPlay, "track-1", ctx).ok());
}

// Installs racing queries: once the race quiesces, every installed grant
// must be visible — no query may be left answering "denied".
TEST(XrmlOracleConcurrent, InstallRaceNeverServesStaleDenial) {
  constexpr size_t kInstalls = 16;
  RightsManager rm(nullptr, kNow);

  RunOnPool(kInstalls * 2, [&](size_t i) {
    if (i < kInstalls) {
      License license;
      license.license_id = "lic-" + std::to_string(i);
      license.issuer = "studio-x";
      Grant g;
      g.key_holder = "*";
      g.right = Right::kPlay;
      g.resource = "res-" + std::to_string(i);
      license.grants.push_back(g);
      return rm.InstallUnsigned(license);
    }
    ExerciseContext ctx;
    ctx.principal = "player-A";
    ctx.now = kNow;
    for (size_t q = 0; q < 100; ++q) {
      (void)rm.IsPermitted(Right::kPlay,
                           "res-" + std::to_string(q % kInstalls), ctx);
    }
    return Status::OK();
  });

  ExerciseContext ctx;
  ctx.principal = "player-A";
  ctx.now = kNow;
  for (size_t i = 0; i < kInstalls; ++i) {
    EXPECT_TRUE(rm.IsPermitted(Right::kPlay, "res-" + std::to_string(i), ctx))
        << "stale denial survived for res-" << i;
  }
}

// Seeded random op streams hammered concurrently per-thread (each thread
// owns a disjoint resource namespace, so the final per-resource state is
// deterministic), then the quiesced store is swept against the oracle.
TEST(XrmlOracleConcurrent, ConcurrentStreamsAgreeWithOracleAtQuiescence) {
  constexpr size_t kThreads = 4;
  constexpr uint32_t kLimit = 3;
  RightsManager rm(nullptr, kNow);

  std::vector<License> store;
  for (size_t t = 0; t < kThreads; ++t) {
    License license;
    license.license_id = "lic-t" + std::to_string(t);
    license.issuer = "studio-x";
    Grant g;
    g.key_holder = "*";
    g.right = Right::kExtract;
    g.resource = "zone-" + std::to_string(t);
    g.conditions.exercise_limit = kLimit;
    license.grants.push_back(g);
    ASSERT_TRUE(rm.InstallUnsigned(license).ok());
    store.push_back(license);
  }

  std::vector<std::thread> streams;
  for (size_t t = 0; t < kThreads; ++t) {
    streams.emplace_back([&, t] {
      ExerciseContext ctx;
      ctx.principal = "player-" + std::to_string(t);
      ctx.now = kNow;
      std::string resource = "zone-" + std::to_string(t);
      for (uint32_t i = 0; i < kLimit + 4; ++i) {
        (void)rm.IsPermitted(Right::kExtract, resource, ctx);
        (void)rm.Exercise(Right::kExtract, resource, ctx);
      }
    });
  }
  for (std::thread& stream : streams) stream.join();

  formal::RuleSet rules = formal::RuleSet::Compile(store);
  formal::UseCounts uses = SnapshotUses(rm, store);
  ExerciseContext ctx;
  ctx.principal = "player-X";
  ctx.now = kNow;
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(rm.UsesRecorded("lic-t" + std::to_string(t), 0), kLimit);
    std::string resource = "zone-" + std::to_string(t);
    EXPECT_EQ(rm.IsPermitted(Right::kExtract, resource, ctx),
              rules.Permitted("player-X", Right::kExtract, resource, ctx,
                              uses));
  }
}

}  // namespace
}  // namespace xrml
}  // namespace discsec
