#include <gtest/gtest.h>

#include "common/fault.h"
#include "obs/metrics.h"
#include "pki/key_codec.h"
#include "xkms/client.h"
#include "xkms/retrying_transport.h"
#include "xkms/xkmsd.h"

namespace discsec {
namespace xkms {
namespace {

class XkmsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(606);
    static crypto::RsaKeyPair a = crypto::RsaGenerateKeyPair(512, &rng).value();
    static crypto::RsaKeyPair b = crypto::RsaGenerateKeyPair(512, &rng).value();
    key_a_ = &a;
    key_b_ = &b;
  }

  KeyBinding MakeBinding(const std::string& name,
                         const crypto::RsaPublicKey& key) {
    KeyBinding binding;
    binding.name = name;
    binding.key = key;
    binding.key_usage = {"Signature"};
    return binding;
  }

  static crypto::RsaKeyPair* key_a_;
  static crypto::RsaKeyPair* key_b_;
};

crypto::RsaKeyPair* XkmsFixture::key_a_ = nullptr;
crypto::RsaKeyPair* XkmsFixture::key_b_ = nullptr;

// --------------------------------------------------------- wire protocol

TEST_F(XkmsFixture, FullClientServerFlowOverXmlMessages) {
  Xkmsd responder{XkmsdOptions{}};
  XkmsClient client(MakeServerTransport(&responder));

  // Register over the wire.
  ASSERT_TRUE(client.Register(MakeBinding("acme", key_a_->public_key)).ok());
  EXPECT_EQ(responder.store().BindingCount(), 1u);

  // Locate over the wire.
  auto located = client.Locate("acme");
  ASSERT_TRUE(located.ok()) << located.status().ToString();
  EXPECT_TRUE(located->key == key_a_->public_key);

  // Validate over the wire.
  auto valid = client.Validate("acme", key_a_->public_key);
  ASSERT_TRUE(valid.ok());
  EXPECT_EQ(valid.value(), KeyStatus::kValid);
  auto invalid = client.Validate("acme", key_b_->public_key);
  ASSERT_TRUE(invalid.ok());
  EXPECT_EQ(invalid.value(), KeyStatus::kInvalid);

  // Revoke over the wire; validation then reports Invalid.
  ASSERT_TRUE(client.Revoke("acme").ok());
  auto revoked = client.Validate("acme", key_a_->public_key);
  ASSERT_TRUE(revoked.ok());
  EXPECT_EQ(revoked.value(), KeyStatus::kInvalid);
}

TEST_F(XkmsFixture, LocateMissOverWire) {
  Xkmsd responder{XkmsdOptions{}};
  XkmsClient client(MakeServerTransport(&responder));
  EXPECT_TRUE(client.Locate("ghost").status().IsNotFound());
}

TEST_F(XkmsFixture, RequestsAreWellFormedXml) {
  std::string locate = BuildLocateRequest("abc");
  EXPECT_NE(locate.find("LocateRequest"), std::string::npos);
  EXPECT_NE(locate.find(kXkmsNamespace), std::string::npos);
  std::string validate = BuildValidateRequest("abc", key_a_->public_key);
  EXPECT_NE(validate.find("ValidateRequest"), std::string::npos);
  EXPECT_NE(validate.find("Modulus"), std::string::npos);
}

TEST_F(XkmsFixture, ServiceRejectsGarbageAndUnknownOps) {
  Xkmsd responder{XkmsdOptions{}};
  EXPECT_TRUE(responder.Handle("not xml").status().IsParseError());
  EXPECT_TRUE(responder.Handle("<xkms:FooRequest xmlns:xkms=\"x\"/>")
                  .status()
                  .IsUnsupported());
  EXPECT_TRUE(responder.Handle("<xkms:LocateRequest xmlns:xkms=\"x\"/>")
                  .status()
                  .IsParseError());
}

TEST_F(XkmsFixture, TransportErrorPropagates) {
  XkmsClient client([](const std::string&, AsyncCallback done) {
    done(Status::IOError("channel down"));
  });
  EXPECT_TRUE(client.Locate("x").status().IsIOError());
}

// ------------------------------------------------ error taxonomy

TEST_F(XkmsFixture, TransportFailureIsRetryableWithTransportContext) {
  // A fault on the wire (before the service ever sees the request) must
  // come back as kUnavailable with the "XKMS transport" layer context.
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsTransport);
  injector.Arm(spec);
  Xkmsd responder{XkmsdOptions{}};
  EXPECT_TRUE(
      responder.SeedBinding(MakeBinding("k1", key_a_->public_key)).ok());
  XkmsClient client(MakeServerTransport(&responder, nullptr, &injector));

  Status s = client.Locate("k1").status();
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_TRUE(s.IsRetryable());
  EXPECT_NE(s.ToString().find("XKMS transport"), std::string::npos)
      << s.ToString();
}

TEST_F(XkmsFixture, ServiceFailureIsTerminalWithServiceContext) {
  // The service handling the request and *rejecting* it is a terminal
  // outcome — retrying an unparseable request cannot help.
  Xkmsd responder{XkmsdOptions{}};
  XkmsClient probe([&responder](const std::string&, AsyncCallback done) {
    MakeServerTransport(&responder)("definitely not xml", std::move(done));
  });
  Status s = probe.Locate("k1").status();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsRetryable());
  EXPECT_NE(s.ToString().find("XKMS service"), std::string::npos)
      << s.ToString();
}

TEST_F(XkmsFixture, ResponderShedKeepsCodeAndHintUnderServiceContext) {
  // A shed is the responder answering: its kUnavailable and retry-after
  // hint cross the transport unchanged, labelled "XKMS service" like any
  // other responder failure.
  XkmsdOptions options;
  options.queue_limits[0] = options.queue_limits[1] = options.queue_limits[2] =
      0;
  options.retry_after_base_us = 3000;
  Xkmsd responder(options);
  XkmsClient client(MakeServerTransport(&responder));

  Status s = client.Locate("k1").status();
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(s.retry_after_us(), 3000);
  EXPECT_EQ(s.message().rfind("XKMS service: xkmsd admission: ", 0), 0u)
      << s.ToString();
}

TEST_F(XkmsFixture, MangledResponseIsAResponseParseErrorNotTransport) {
  // A response that arrives but does not parse is the *parse* layer's
  // failure: terminal, tagged "XKMS response", never retried as if the
  // network were at fault.
  XkmsClient client([](const std::string&, AsyncCallback done) {
    done(std::string("<xkms:LocateResult truncated..."));
  });
  Status s = client.Locate("k1").status();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsRetryable());
  EXPECT_NE(s.ToString().find("XKMS response"), std::string::npos)
      << s.ToString();
}

TEST_F(XkmsFixture, KeyBindingWithoutKeyIsAResponseParseError) {
  // The client decodes a LocateResult's KeyBinding with the codec's one
  // decoder, under the response layer's context.
  XkmsClient client([](const std::string&, AsyncCallback done) {
    auto root = MakeXkmsRoot("LocateResult");
    root->SetAttribute("ResultMajor", "Success");
    xml::Element* kb = root->AppendElement("xkms:KeyBinding");
    kb->AppendElement("xkms:KeyName")->SetTextContent("k1");
    kb->AppendElement("xkms:Status")->SetTextContent("Valid");
    done(SerializeXkmsDocument(std::move(root)));
  });
  Status s = client.Locate("k1").status();
  EXPECT_TRUE(s.IsParseError()) << s.ToString();
  EXPECT_EQ(s.message(),
            "XKMS response: KeyBinding missing KeyName or RSAKeyValue");
}

TEST_F(XkmsFixture, CorruptedResponseBytesSurfaceAsResponseError) {
  fault::FaultInjector injector(7);
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsTransport);
  spec.kind = fault::Kind::kTruncate;
  spec.detail_filter = "response";  // damage only the response leg
  injector.Arm(spec);
  Xkmsd responder{XkmsdOptions{}};
  EXPECT_TRUE(
      responder.SeedBinding(MakeBinding("k1", key_a_->public_key)).ok());
  XkmsClient client(MakeServerTransport(&responder, nullptr, &injector));

  Status s = client.Locate("k1").status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(injector.fires(fault::kXkmsTransport), 1u);
  EXPECT_NE(s.ToString().find("XKMS response"), std::string::npos)
      << s.ToString();
}

// ------------------------------------------------ retrying transport

struct FakeTransportTime {
  int64_t now_us = 0;
  std::vector<int64_t> sleeps;
  RetryingTransportOptions Options() {
    RetryingTransportOptions options;
    options.clock = [this] { return now_us; };
    options.sleep = [this](int64_t us) {
      sleeps.push_back(us);
      now_us += us;
    };
    return options;
  }
};

TEST_F(XkmsFixture, RetryingTransportRecoversWhenFirstTwoAttemptsFail) {
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsTransport);
  spec.max_fires = 2;  // transport fails the first 2 of 3 attempts
  injector.Arm(spec);
  Xkmsd responder{XkmsdOptions{}};
  EXPECT_TRUE(
      responder.SeedBinding(MakeBinding("k1", key_a_->public_key)).ok());

  FakeTransportTime time;
  RetryingTransportOptions options = time.Options();
  options.retry.max_attempts = 3;
  obs::MetricsRegistry metrics;
  XkmsClient client(MakeRetryingTransport(
      MakeServerTransport(&responder, nullptr, &injector), options,
      nullptr, &metrics));

  auto binding = client.Locate("k1");
  ASSERT_TRUE(binding.ok()) << binding.status().ToString();
  EXPECT_EQ(binding->name, "k1");
  obs::MetricsSnapshot counts = metrics.Snapshot();
  EXPECT_EQ(counts.counter("xkms_transport.calls"), 1u);
  EXPECT_EQ(counts.counter("xkms_transport.attempts"), 3u);
  EXPECT_EQ(counts.counter("xkms_transport.retries"), 2u);
  EXPECT_EQ(counts.counter("xkms_transport.breaker_rejections"), 0u);
  // Backoffs came from the fake sleep: no real time passed.
  EXPECT_EQ(time.sleeps, (std::vector<int64_t>{1000, 2000}));
}

TEST_F(XkmsFixture, RetryingTransportHonorsOverallDeadline) {
  FakeTransportTime time;
  RetryingTransportOptions options = time.Options();
  options.retry.max_attempts = 100;
  options.retry.overall_deadline_us = 2500;
  XkmsClient client(MakeRetryingTransport(
      [](const std::string&, AsyncCallback done) {
        done(Status::Unavailable("service melting"));
      },
      options));

  Status s = client.Locate("k1").status();
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_LE(time.now_us, 2500);  // budget respected on the fake clock
}

TEST_F(XkmsFixture, RetryingTransportDoesNotRetryTerminalErrors) {
  int sends = 0;
  FakeTransportTime time;
  XkmsClient client(MakeRetryingTransport(
      [&sends](const std::string&, AsyncCallback done) {
        ++sends;
        done(Status::VerificationFailed("service cert rejected"));
      },
      time.Options()));
  Status s = client.Locate("k1").status();
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
  EXPECT_EQ(sends, 1);
  EXPECT_TRUE(time.sleeps.empty());
}

TEST_F(XkmsFixture, CircuitBreakerFailsFastAfterConsecutiveFailedCalls) {
  FakeTransportTime time;
  RetryingTransportOptions options = time.Options();
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 2;
  options.breaker.open_duration_us = 1000000;
  int sends = 0;
  obs::MetricsRegistry metrics;
  XkmsClient client(MakeRetryingTransport(
      [&sends](const std::string&, AsyncCallback done) {
        ++sends;
        done(Status::Unavailable("down hard"));
      },
      options, nullptr, &metrics));

  EXPECT_TRUE(client.Locate("k1").status().IsUnavailable());
  EXPECT_TRUE(client.Locate("k1").status().IsUnavailable());
  EXPECT_EQ(sends, 2);
  EXPECT_EQ(metrics.Snapshot().counter("xkms_transport.breaker_state"),
            static_cast<uint64_t>(CircuitBreaker::State::kOpen));

  // Circuit open: the next call is rejected without touching the wire.
  Status rejected = client.Locate("k1").status();
  EXPECT_TRUE(rejected.IsUnavailable());
  EXPECT_NE(rejected.ToString().find("circuit breaker"), std::string::npos)
      << rejected.ToString();
  EXPECT_NE(rejected.ToString().find("XKMS transport"), std::string::npos);
  EXPECT_EQ(sends, 2);
  EXPECT_EQ(metrics.Snapshot().counter("xkms_transport.breaker_rejections"),
            1u);

  // After the cool-down the probe goes through; a success closes the
  // circuit and normal service resumes.
  time.now_us += 1000000;
  // (The inner transport still fails; verify the probe was attempted.)
  EXPECT_TRUE(client.Locate("k1").status().IsUnavailable());
  EXPECT_EQ(sends, 3);
}

// ------------------------------------------------- xkmsd admission front door
//
// The responder's front door must reject hostile input using the bounded
// ParseOptions limits *before* any store work — each abuse class with its
// own distinct error, so clients (and dashboards) can tell an oversized
// upload from a depth bomb from plain garbage.

TEST_F(XkmsFixture, XkmsdShedsOversizedRequestBeforeParsing) {
  XkmsdOptions options;
  options.parse.max_input = 4096;  // tight budget for the test
  Xkmsd xkmsd(options);
  ASSERT_TRUE(xkmsd.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());

  std::string huge(8192, 'A');
  Result<std::string> response = xkmsd.Handle(huge);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsResourceExhausted()) << response.status().ToString();
  EXPECT_NE(response.status().ToString().find("max_input"),
            std::string::npos);
  EXPECT_NE(response.status().ToString().find("xkmsd admission"),
            std::string::npos);

  XkmsdStats stats = xkmsd.stats();
  EXPECT_EQ(stats.shed_oversized, 1u);
  EXPECT_EQ(stats.admitted, 0u);      // never made it past the door
  EXPECT_EQ(stats.store_lookups, 0u);  // the store was never touched
}

TEST_F(XkmsFixture, XkmsdRejectsDepthBombWithBoundedParse) {
  Xkmsd xkmsd{XkmsdOptions{}};
  // 300 nested elements beats the default max_depth of 256. The first 256
  // bytes still look like a LocateRequest, so this rides the Locate queue.
  std::string bomb = "<LocateRequest xmlns=\"" + std::string(kXkmsNamespace) +
                     "\">";
  for (int i = 0; i < 300; ++i) bomb += "<d>";
  for (int i = 0; i < 300; ++i) bomb += "</d>";
  bomb += "</LocateRequest>";

  Result<std::string> response = xkmsd.Handle(bomb);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsResourceExhausted()) << response.status().ToString();
  EXPECT_NE(response.status().ToString().find("max_depth"),
            std::string::npos);
  EXPECT_NE(response.status().ToString().find("xkmsd request"),
            std::string::npos);
  EXPECT_EQ(xkmsd.stats().shed_malformed, 1u);
  EXPECT_EQ(xkmsd.stats().store_lookups, 0u);
}

TEST_F(XkmsFixture, XkmsdRejectsAttributeBombWithBoundedParse) {
  Xkmsd xkmsd{XkmsdOptions{}};
  std::string bomb = "<LocateRequest xmlns=\"" + std::string(kXkmsNamespace) +
                     "\"><e";
  for (int i = 0; i < 300; ++i) {
    bomb += " a" + std::to_string(i) + "=\"x\"";
  }
  bomb += "/></LocateRequest>";

  Result<std::string> response = xkmsd.Handle(bomb);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsResourceExhausted()) << response.status().ToString();
  EXPECT_NE(response.status().ToString().find("max_attributes"),
            std::string::npos);
  EXPECT_NE(response.status().ToString().find("xkmsd request"),
            std::string::npos);
  EXPECT_EQ(xkmsd.stats().shed_malformed, 1u);
}

TEST_F(XkmsFixture, XkmsdRejectsGarbageAsMalformedNotServerError) {
  Xkmsd xkmsd{XkmsdOptions{}};
  Result<std::string> response = xkmsd.Handle("this is not xml at all");
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsParseError()) << response.status().ToString();
  EXPECT_NE(response.status().ToString().find("xkmsd request"),
            std::string::npos);

  XkmsdStats stats = xkmsd.stats();
  EXPECT_EQ(stats.shed_malformed, 1u);
  // Distinct classes stay distinct: garbage is not counted as oversized.
  EXPECT_EQ(stats.shed_oversized, 0u);
  EXPECT_EQ(stats.store_lookups, 0u);
}

}  // namespace
}  // namespace xkms
}  // namespace discsec
