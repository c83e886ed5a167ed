#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "common/base64.h"
#include "common/byte_sink.h"
#include "common/bytes.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/strings.h"
#include "tests/base64_reference.h"

namespace discsec {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::VerificationFailed("digest mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsVerificationFailed());
  EXPECT_EQ(s.ToString(), "VerificationFailed: digest mismatch");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::NotFound("key k1").WithContext("XKMS locate");
  EXPECT_EQ(s.ToString(), "NotFound: XKMS locate: key k1");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0x00, 0x7f, 0x80, 0xff};
  EXPECT_EQ(ToHex(b), "007f80ff");
  auto parsed = FromHex("007F80Ff");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), b);
}

TEST(BytesTest, HexRejectsBadInput) {
  EXPECT_FALSE(FromHex("abc").ok());   // odd length
  EXPECT_FALSE(FromHex("zz").ok());    // non-hex
}

TEST(BytesTest, ConstantTimeEquals) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEquals(a, b));
  EXPECT_FALSE(ConstantTimeEquals(a, c));
  EXPECT_FALSE(ConstantTimeEquals(a, d));
  EXPECT_TRUE(ConstantTimeEquals({}, {}));
}

TEST(BytesTest, BigEndianHelpers) {
  Bytes b;
  AppendUint32BE(&b, 0x01020304u);
  AppendUint64BE(&b, 0x0102030405060708ULL);
  ASSERT_EQ(b.size(), 12u);
  EXPECT_EQ(ReadUint32BE(b.data()), 0x01020304u);
  EXPECT_EQ(ReadUint64BE(b.data() + 4), 0x0102030405060708ULL);
}

// RFC 4648 §10 test vectors.
struct B64Case {
  const char* plain;
  const char* encoded;
};

class Base64Rfc4648Test : public ::testing::TestWithParam<B64Case> {};

TEST_P(Base64Rfc4648Test, EncodeMatchesRfc) {
  const auto& c = GetParam();
  EXPECT_EQ(Base64Encode(ToBytes(c.plain)), c.encoded);
}

TEST_P(Base64Rfc4648Test, DecodeMatchesRfc) {
  const auto& c = GetParam();
  auto decoded = Base64Decode(c.encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(ToString(decoded.value()), c.plain);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc4648, Base64Rfc4648Test,
    ::testing::Values(B64Case{"", ""}, B64Case{"f", "Zg=="},
                      B64Case{"fo", "Zm8="}, B64Case{"foo", "Zm9v"},
                      B64Case{"foob", "Zm9vYg=="},
                      B64Case{"fooba", "Zm9vYmE="},
                      B64Case{"foobar", "Zm9vYmFy"}));

TEST(Base64Test, IgnoresWhitespace) {
  auto decoded = Base64Decode("Zm9v\nYmFy  \t");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(ToString(decoded.value()), "foobar");
}

TEST(Base64Test, RejectsGarbage) {
  EXPECT_FALSE(Base64Decode("Zm9v!").ok());
  EXPECT_FALSE(Base64Decode("Zg==Zg").ok());  // data after padding
}

TEST(Base64Test, RandomRoundTrip) {
  Rng rng(1234);
  for (size_t len = 0; len < 100; ++len) {
    Bytes data = rng.NextBytes(len);
    auto decoded = Base64Decode(Base64Encode(data));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), data) << "len=" << len;
  }
}

TEST(Base64Test, RejectsMalformedFinalQuantum) {
  // A lone final character, even one whose bits are all zero, is rejected
  // instead of being dropped.
  auto lone = Base64Decode("QUJDA");
  ASSERT_FALSE(lone.ok());
  EXPECT_EQ(lone.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(lone.status().message(), "base64: final quantum of one character");
  EXPECT_EQ(Base64Decode("A").status().message(),
            "base64: final quantum of one character");
  EXPECT_EQ(Base64Decode("A=").status().message(),
            "base64: final quantum of one character");
  // Padding must complete the final quantum to four characters.
  auto short_pad = Base64Decode("QQ=");
  ASSERT_FALSE(short_pad.ok());
  EXPECT_EQ(short_pad.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(short_pad.status().message(),
            "base64: padding does not complete the final quantum");
  EXPECT_EQ(Base64Decode("QUJD=").status().message(),
            "base64: padding does not complete the final quantum");
  EXPECT_EQ(Base64Decode("QUI==").status().message(),
            "base64: padding does not complete the final quantum");
  EXPECT_EQ(Base64Decode("==").status().message(),
            "base64: padding does not complete the final quantum");
  // Unpadded final quanta of two or three characters stay accepted.
  EXPECT_EQ(ToString(Base64Decode("QQ").value()), "A");
  EXPECT_EQ(ToString(Base64Decode("QUI").value()), "AB");
  EXPECT_EQ(ToString(Base64Decode("QUJDQQ").value()), "ABCA");
}

/// Decodes `text` with Base64Decode and with the per-character reference:
/// the same bytes, or the same status code and message.
void ExpectMatchesReference(const std::string& text) {
  Result<Bytes> got = Base64Decode(text);
  Result<Bytes> want = testing_base64::ReferenceBase64Decode(text);
  ASSERT_EQ(got.ok(), want.ok())
      << "input '" << text << "': " << got.status().ToString() << " vs "
      << want.status().ToString();
  if (want.ok()) {
    EXPECT_EQ(got.value(), want.value()) << "input '" << text << "'";
  } else {
    EXPECT_EQ(got.status().ToString(), want.status().ToString())
        << "input '" << text << "'";
  }
}

TEST(Base64DifferentialTest, ValidEncodingsWithWhitespaceMatchReference) {
  static const char kWhitespace[] = " \t\r\n";
  Rng rng(20050915);
  for (size_t len = 0; len <= 3000; len += len < 64 ? 1 : 37) {
    const Bytes data = rng.NextBytes(len);
    const std::string text = Base64Encode(data);
    ASSERT_EQ(Base64Decode(text).value(), data) << "len=" << len;
    ExpectMatchesReference(text);
    // Unpadded: a final quantum of two or three characters.
    std::string unpadded = text;
    while (!unpadded.empty() && unpadded.back() == '=') unpadded.pop_back();
    ExpectMatchesReference(unpadded);
    // Whitespace runs inside and between quads.
    std::string spaced;
    for (char c : text) {
      while (rng.NextBelow(6) == 0) {
        spaced.push_back(kWhitespace[rng.NextBelow(4)]);
      }
      spaced.push_back(c);
    }
    ASSERT_EQ(Base64Decode(spaced).value(), data) << "len=" << len;
    ExpectMatchesReference(spaced);
    // Line-wrapped at 76 characters, as XML-DSig producers may emit it.
    std::string wrapped;
    for (size_t i = 0; i < text.size(); i += 76) {
      wrapped += text.substr(i, 76);
      wrapped += "\r\n";
    }
    ExpectMatchesReference(wrapped);
  }
}

TEST(Base64DifferentialTest, PaddingAtEveryPositionMatchesReference) {
  Rng rng(7);
  for (size_t len : {0, 1, 2, 3, 4, 5, 6, 13, 31, 64}) {
    const std::string text = Base64Encode(rng.NextBytes(len));
    for (size_t i = 0; i <= text.size(); ++i) {
      for (const char* pad : {"=", "==", "==="}) {
        std::string inserted = text;
        inserted.insert(i, pad);
        ExpectMatchesReference(inserted);
      }
      if (i < text.size()) {
        std::string replaced = text;
        replaced[i] = '=';
        ExpectMatchesReference(replaced);
      }
    }
  }
}

TEST(Base64DifferentialTest, InvalidByteAtEveryQuadPositionMatchesReference) {
  Rng rng(11);
  // Long enough that the quad loop runs before and after the bad byte.
  const std::string text = Base64Encode(rng.NextBytes(48));
  for (size_t i = 0; i < text.size(); ++i) {
    for (char bad : {'!', '-', '_', '\0', '\x80', '\xff', '.', '<'}) {
      std::string replaced = text;
      replaced[i] = bad;
      ExpectMatchesReference(replaced);
      std::string inserted = text;
      inserted.insert(inserted.begin() + static_cast<std::ptrdiff_t>(i), bad);
      ExpectMatchesReference(inserted);
    }
  }
}

TEST(Base64DifferentialTest, RandomStringsMatchReference) {
  // Short strings over the alphabet, padding, whitespace and a few invalid
  // bytes reach every branch of both decoders.
  static const char kPool[] = "QUJDZm9v+/09=   \n\t\r!-";
  Rng rng(4648);
  for (int n = 0; n < 20000; ++n) {
    std::string text;
    const size_t len = rng.NextBelow(24);
    for (size_t i = 0; i < len; ++i) {
      text.push_back(kPool[rng.NextBelow(sizeof(kPool) - 1)]);
    }
    ExpectMatchesReference(text);
  }
}

TEST(RngTest, DeterministicWithSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(StringsTest, Split) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  x \n"), "x");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("manifest.xml", "manifest"));
  EXPECT_TRUE(EndsWith("manifest.xml", ".xml"));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(StringsTest, JoinAndFormat) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(StringFormat("track-%02d", 7), "track-07");
}

TEST(ByteSinkTest, StringSinkCollectsAllOverloads) {
  std::string out;
  StringSink sink(&out);
  sink.Append("abc");                     // string_view
  sink.Append('d');                       // char
  sink.Append(Bytes{0x65, 0x66});         // Bytes
  const uint8_t raw[] = {0x67};
  sink.Append(raw, sizeof(raw));          // pointer + length
  EXPECT_EQ(out, "abcdefg");
}

TEST(ByteSinkTest, BytesSinkAppendsOctets) {
  Bytes out{0x01};
  BytesSink sink(&out);
  sink.Append("\x02\x03");
  sink.Append('\x04');
  EXPECT_EQ(out, (Bytes{0x01, 0x02, 0x03, 0x04}));
}

TEST(ByteSinkTest, CountingSinkCountsWithoutStoring) {
  CountingSink sink;
  sink.Append("hello");
  sink.Append(' ');
  sink.Append(Bytes{1, 2, 3});
  EXPECT_EQ(sink.count(), 9u);
  sink.Reset();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(ByteSinkTest, PolymorphicUseThroughBasePointer) {
  std::string out;
  StringSink string_sink(&out);
  ByteSink* sink = &string_sink;
  sink->Append("via base");
  EXPECT_EQ(out, "via base");
}

TEST(StatusTest, RetryabilityTaxonomy) {
  EXPECT_TRUE(Status::Unavailable("link down").IsUnavailable());
  EXPECT_TRUE(Status::Unavailable("link down").IsRetryable());
  EXPECT_TRUE(Status::DeadlineExceeded("budget gone").IsDeadlineExceeded());
  // Everything that is not kUnavailable is terminal.
  EXPECT_FALSE(Status::DeadlineExceeded("budget gone").IsRetryable());
  EXPECT_FALSE(Status::VerificationFailed("bad digest").IsRetryable());
  EXPECT_FALSE(Status::NotFound("missing").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
}

TEST(StatusTest, WithContextStacksOutermostFirst) {
  Status s = Status::Unavailable("socket reset")
                 .WithContext("XKMS transport")
                 .WithContext("key-binding validation");
  EXPECT_EQ(s.ToString(),
            "Unavailable: key-binding validation: XKMS transport: "
            "socket reset");
  EXPECT_TRUE(s.IsRetryable());  // context never changes the code
}

TEST(StatusTest, RetryAfterHintSurvivesContextAndPrints) {
  Status s = Status::Unavailable("queue full").WithRetryAfter(12500);
  EXPECT_EQ(s.retry_after_us(), 12500);
  // Context stacking (what every transport layer does on the way up) must
  // not strip the hint, or the client falls back to blind exponential.
  Status wrapped = s.WithContext("XKMS service").WithContext("player");
  EXPECT_EQ(wrapped.retry_after_us(), 12500);
  EXPECT_NE(wrapped.ToString().find("[retry-after 12500us]"),
            std::string::npos)
      << wrapped.ToString();
  EXPECT_EQ(Status::Unavailable("no hint").retry_after_us(), 0);
}

TEST(FaultInjectorTest, DisarmedPointIsPassThrough) {
  fault::FaultInjector injector;
  Bytes data = {1, 2, 3};
  EXPECT_TRUE(injector.HitData(fault::kDiscRead, &data, "x").ok());
  EXPECT_EQ(data, (Bytes{1, 2, 3}));
  EXPECT_EQ(injector.hits(fault::kDiscRead), 0u);  // not even counted
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectorTest, ErrorFaultInjectsConfiguredStatus) {
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kStorageWrite);
  spec.code = Status::Code::kDeadlineExceeded;
  spec.message = "disk went away";
  injector.Arm(spec);
  Status s = injector.Hit(fault::kStorageWrite);
  EXPECT_TRUE(s.IsDeadlineExceeded());
  // The injected message names its fault point for replayability.
  EXPECT_EQ(s.ToString(),
            "DeadlineExceeded: disk went away at 'storage.write'");
  EXPECT_EQ(injector.hits(fault::kStorageWrite), 1u);
  EXPECT_EQ(injector.fires(fault::kStorageWrite), 1u);
  // Other points are unaffected.
  EXPECT_TRUE(injector.Hit(fault::kDiscRead).ok());
}

TEST(FaultInjectorTest, CorruptFlipsExactlyOneByteTruncateShortens) {
  fault::FaultInjector injector(42);
  fault::FaultSpec spec;
  spec.point = std::string(fault::kDiscRead);
  spec.kind = fault::Kind::kCorrupt;
  injector.Arm(spec);
  Bytes original(64, 0xAB);
  Bytes data = original;
  EXPECT_TRUE(injector.HitData(fault::kDiscRead, &data).ok());
  ASSERT_EQ(data.size(), original.size());
  int diffs = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (data[i] != original[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1);

  spec.kind = fault::Kind::kTruncate;
  injector.Arm(spec);
  data = original;
  EXPECT_TRUE(injector.HitData(fault::kDiscRead, &data).ok());
  EXPECT_LT(data.size(), original.size());
}

TEST(FaultInjectorTest, EqualSeedsGiveEqualCorruption) {
  Bytes a(128, 0x5C), b(128, 0x5C);
  for (Bytes* data : {&a, &b}) {
    fault::FaultInjector injector(1234);
    fault::FaultSpec spec;
    spec.point = std::string(fault::kNetWire);
    spec.kind = fault::Kind::kCorrupt;
    injector.Arm(spec);
    EXPECT_TRUE(injector.HitData(fault::kNetWire, data).ok());
  }
  EXPECT_EQ(a, b);  // deterministic replay: same seed, same flipped bit
}

TEST(FaultInjectorTest, TriggerGatesCompose) {
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kStorageRead);
  spec.skip_first = 2;
  spec.every_nth = 2;
  spec.max_fires = 2;
  injector.Arm(spec);
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) {
    fired.push_back(!injector.Hit(fault::kStorageRead).ok());
  }
  // Hits 0,1 skipped; of the eligible hits 2,3,4,... every 2nd fires
  // starting with the first eligible one; budget stops it after 2 fires.
  EXPECT_EQ(injector.hits(fault::kStorageRead), 10u);
  EXPECT_EQ(injector.fires(fault::kStorageRead), 2u);
  EXPECT_EQ(std::count(fired.begin(), fired.end(), true), 2);
  EXPECT_FALSE(fired[0]);
  EXPECT_FALSE(fired[1]);
}

TEST(FaultInjectorTest, DetailFilterTargetsOneFile) {
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kDiscRead);
  spec.detail_filter = "00002.m2ts";
  injector.Arm(spec);
  EXPECT_TRUE(injector.Hit(fault::kDiscRead, "BDMV/STREAM/00001.m2ts").ok());
  EXPECT_FALSE(
      injector.Hit(fault::kDiscRead, "BDMV/STREAM/00002.m2ts").ok());
  EXPECT_EQ(injector.hits(fault::kDiscRead), 2u);
  EXPECT_EQ(injector.fires(fault::kDiscRead), 1u);
}

TEST(FaultInjectorTest, ZeroProbabilityNeverFiresAndResetClears) {
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kNetSeal);
  spec.probability = 0.0;
  injector.Arm(spec);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.Hit(fault::kNetSeal).ok());
  }
  EXPECT_EQ(injector.hits(fault::kNetSeal), 50u);
  EXPECT_EQ(injector.fires(fault::kNetSeal), 0u);
  injector.Reset();
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(injector.hits(fault::kNetSeal), 0u);
  EXPECT_EQ(injector.total_fires(), 0u);
}

TEST(FaultInjectorTest, EffectiveFallsBackToGlobalInjector) {
  fault::FaultInjector local;
  EXPECT_EQ(fault::Effective(&local), &local);
  EXPECT_EQ(fault::Effective(nullptr), &fault::GlobalFaultInjector());
  // The global injector is disarmed by default and can be armed/reset by
  // command-line tools (--inject-fault).
  EXPECT_FALSE(fault::GlobalFaultInjector().armed());
  fault::FaultSpec spec;
  spec.point = std::string(fault::kToolRead);
  fault::GlobalFaultInjector().Arm(spec);
  EXPECT_FALSE(fault::GlobalFaultInjector().Hit(fault::kToolRead).ok());
  fault::GlobalFaultInjector().Reset();
  EXPECT_FALSE(fault::GlobalFaultInjector().armed());
  EXPECT_TRUE(fault::GlobalFaultInjector().Hit(fault::kToolRead).ok());
}

TEST(FaultInjectorTest, KindNamesRoundTrip) {
  for (fault::Kind kind : {fault::Kind::kError, fault::Kind::kCorrupt,
                           fault::Kind::kTruncate}) {
    auto parsed = fault::KindFromName(fault::KindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_TRUE(fault::KindFromName("meltdown").status().IsInvalidArgument());
}

/// Fake time base for the retry-loop tests: clock reads a counter, sleep
/// advances it and records the schedule. No real sleeping anywhere.
struct FakeTime {
  int64_t now_us = 0;
  std::vector<int64_t> sleeps;
  RetryClock clock() {
    return [this] { return now_us; };
  }
  RetrySleepFn sleep() {
    return [this](int64_t us) {
      sleeps.push_back(us);
      now_us += us;
    };
  }
};

/// RetryAsync with a null wheel over inline attempts: the backoff runs
/// through the fake sleep and the verdict is in hand when it returns.
Status RunRetry(const RetryPolicy& policy, FakeTime* time,
                const std::function<Status()>& attempt,
                uint64_t jitter_seed = 0) {
  std::optional<Status> verdict;
  RetryAsync(
      policy, /*wheel=*/nullptr, time->clock(), time->sleep(), jitter_seed,
      [&](std::function<void(Status)> attempt_done) {
        attempt_done(attempt());
      },
      [&](Status s) { verdict = std::move(s); });
  EXPECT_TRUE(verdict.has_value()) << "null-wheel loop did not complete";
  return verdict.value_or(Status::Unavailable("retry loop never completed"));
}

TEST(RetryAsyncTest, SucceedsAfterTransientFailuresWithExponentialBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  FakeTime time;
  int calls = 0;
  Status s = RunRetry(policy, &time, [&]() -> Status {
    ++calls;
    if (calls < 3) return Status::Unavailable("flaky");
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(time.sleeps, (std::vector<int64_t>{1000, 2000}));
}

TEST(RetryAsyncTest, TerminalStatusIsNotRetried) {
  FakeTime time;
  int calls = 0;
  Status s = RunRetry(RetryPolicy{}, &time, [&]() -> Status {
    ++calls;
    return Status::VerificationFailed("bad digest");
  });
  EXPECT_TRUE(s.IsVerificationFailed());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(time.sleeps.empty());
}

TEST(RetryAsyncTest, ExhaustionKeepsLastCodeAndCountsAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  FakeTime time;
  int calls = 0;
  Status s = RunRetry(policy, &time, [&]() -> Status {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 3);
  EXPECT_NE(s.ToString().find("after 3 attempts"), std::string::npos)
      << s.ToString();
}

TEST(RetryAsyncTest, BackoffCapsAtMax) {
  RetryPolicy policy;
  policy.initial_backoff_us = 1000;
  policy.backoff_multiplier = 10.0;
  policy.max_backoff_us = 50000;
  policy.max_attempts = 5;
  FakeTime time;
  RunRetry(policy, &time, [] { return Status::Unavailable("down"); });
  // 1000, 10000, then capped: 100000 and 1000000 both clamp to 50000.
  EXPECT_EQ(time.sleeps, (std::vector<int64_t>{1000, 10000, 50000, 50000}));
}

TEST(RetryAsyncTest, JitterStaysWithinWindowAndIsSeeded) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.jitter = 0.5;
  auto collect = [&](uint64_t seed) {
    FakeTime time;
    RunRetry(policy, &time, [] { return Status::Unavailable("x"); }, seed);
    return time.sleeps;
  };
  std::vector<int64_t> a = collect(7), b = collect(7), c = collect(8);
  EXPECT_EQ(a, b);  // same seed, same schedule
  EXPECT_NE(a, c);  // different seed decorrelates
  ASSERT_EQ(a.size(), 4u);
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t base = 1000 << i;
    EXPECT_GE(a[i], base / 2);
    EXPECT_LE(a[i], base);
  }
}

TEST(RetryAsyncTest, RetryAfterHintOverridesExponentialSchedule) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_us = 1000;  // schedule would be 1000, 2000, 4000
  FakeTime time;
  int calls = 0;
  Status s = RunRetry(policy, &time, [&]() -> Status {
    ++calls;
    // A shed responder tells us when its queues should have drained. The
    // second attempt carries no hint, so the schedule falls back to the
    // exponential step for that round.
    if (calls == 2) return Status::Unavailable("shed, no hint");
    return Status::Unavailable("shed").WithRetryAfter(9000);
  });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(time.sleeps, (std::vector<int64_t>{9000, 2000, 9000}));
}

TEST(RetryAsyncTest, HintedFleetReSpreadsThroughJitter) {
  // Ten clients shed at the same instant with the same retry-after hint.
  // Without jitter they would all come back at hint expiry in lockstep and
  // re-trigger the shed; with jitter each sleeps a distinct fraction of the
  // hint, so the second wave arrives spread out.
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.jitter = 0.5;
  constexpr int64_t kHintUs = 80000;
  std::set<int64_t> wakeups;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FakeTime time;
    RunRetry(
        policy, &time,
        [&] { return Status::Unavailable("shed").WithRetryAfter(kHintUs); },
        seed);
    ASSERT_EQ(time.sleeps.size(), 1u);
    // Jitter only ever shortens: every client honors the hint window.
    EXPECT_GE(time.sleeps[0], kHintUs / 2);
    EXPECT_LE(time.sleeps[0], kHintUs);
    wakeups.insert(time.sleeps[0]);
  }
  // The fleet decorrelated instead of stampeding back together.
  EXPECT_GE(wakeups.size(), 8u) << "fleet woke in lockstep";
}

TEST(RetryAsyncTest, AttemptDeadlineMakesSlowFailureTerminal) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.attempt_deadline_us = 100;
  FakeTime time;
  int calls = 0;
  Status s = RunRetry(policy, &time, [&]() -> Status {
    ++calls;
    time.now_us += 500;  // the attempt itself burns 500us
    return Status::Unavailable("slow and broken");
  });
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_EQ(calls, 1);  // too slow to be worth hammering
  EXPECT_NE(s.ToString().find("per-attempt deadline"), std::string::npos);
}

TEST(RetryAsyncTest, OverallDeadlineBoundsTheRetryBudget) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.overall_deadline_us = 2500;  // admits sleeps of 1000+2000 > budget
  FakeTime time;
  int calls = 0;
  Status s = RunRetry(policy, &time, [&]() -> Status {
    ++calls;
    return Status::Unavailable("down");
  });
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_LE(calls, 3);
  EXPECT_NE(s.ToString().find("retry budget"), std::string::npos);
  // The fake clock never advanced except through fake sleeps — proof no
  // real time was consumed.
  EXPECT_LE(time.now_us, 2500);
}

TEST(CircuitBreakerTest, OpensAfterThresholdAndProbesHalfOpen) {
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.open_duration_us = 1000;
  CircuitBreaker breaker(options);
  int64_t now = 0;

  EXPECT_TRUE(breaker.Allow(now));
  breaker.RecordFailure(now);
  breaker.RecordFailure(now);
  EXPECT_EQ(breaker.state(now), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(now);  // third strike
  EXPECT_EQ(breaker.state(now), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow(now));
  EXPECT_FALSE(breaker.Allow(now + 999));

  now += 1000;  // open period elapses -> half-open, one probe only
  EXPECT_EQ(breaker.state(now), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Allow(now));
  EXPECT_FALSE(breaker.Allow(now));

  breaker.RecordSuccess();  // probe succeeded -> closed again
  EXPECT_EQ(breaker.state(now), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow(now));
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreakerTest, FailedProbeReopensImmediately) {
  CircuitBreaker::Options options;
  options.failure_threshold = 1;
  options.open_duration_us = 100;
  CircuitBreaker breaker(options);
  breaker.RecordFailure(0);
  EXPECT_FALSE(breaker.Allow(50));
  EXPECT_TRUE(breaker.Allow(100));  // the half-open probe
  breaker.RecordFailure(100);       // probe fails -> open again
  EXPECT_EQ(breaker.state(150), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow(150));
  EXPECT_TRUE(breaker.Allow(200));  // next period, next probe
}

TEST(CircuitBreakerTest, StateNames) {
  EXPECT_STREQ(CircuitStateName(CircuitBreaker::State::kClosed), "closed");
  EXPECT_STREQ(CircuitStateName(CircuitBreaker::State::kOpen), "open");
  EXPECT_STREQ(CircuitStateName(CircuitBreaker::State::kHalfOpen),
               "half-open");
}

}  // namespace
}  // namespace discsec
