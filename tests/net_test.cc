#include <gtest/gtest.h>

#include "net/channel.h"
#include "net/server.h"
#include "pki/key_codec.h"
#include "xkms/client.h"
#include "xkms/xkmsd.h"

namespace discsec {
namespace net {
namespace {

constexpr int64_t kNow = 1120000000;
constexpr int64_t kYear = 365LL * 24 * 3600;

class NetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(9090);
    root_key_ = new crypto::RsaKeyPair(
        crypto::RsaGenerateKeyPair(512, rng_).value());
    server_key_ = new crypto::RsaKeyPair(
        crypto::RsaGenerateKeyPair(512, rng_).value());

    pki::CertificateInfo root_info;
    root_info.subject = "CN=CDN Root";
    root_info.issuer = root_info.subject;
    root_info.serial = 1;
    root_info.not_before = kNow - kYear;
    root_info.not_after = kNow + 10 * kYear;
    root_info.is_ca = true;
    root_info.public_key = root_key_->public_key;
    root_cert_ = new pki::Certificate(
        pki::IssueCertificate(root_info, root_key_->private_key).value());

    pki::CertificateInfo server_info;
    server_info.subject = "CN=cdn.acme.example";
    server_info.issuer = root_info.subject;
    server_info.serial = 2;
    server_info.not_before = kNow - kYear;
    server_info.not_after = kNow + kYear;
    server_info.public_key = server_key_->public_key;
    server_cert_ = new pki::Certificate(
        pki::IssueCertificate(server_info, root_key_->private_key).value());
  }

  pki::CertStore Trust() {
    pki::CertStore store;
    EXPECT_TRUE(store.AddTrustedRoot(*root_cert_).ok());
    return store;
  }

  ContentServer MakeServer() {
    ContentServer server;
    server.SetIdentity({*server_cert_, *root_cert_},
                       server_key_->private_key);
    server.HostText("/apps/bonus.xml", "<cluster Id=\"bonus\"/>");
    return server;
  }

  static Rng* rng_;
  static crypto::RsaKeyPair* root_key_;
  static crypto::RsaKeyPair* server_key_;
  static pki::Certificate* root_cert_;
  static pki::Certificate* server_cert_;
};

Rng* NetFixture::rng_ = nullptr;
crypto::RsaKeyPair* NetFixture::root_key_ = nullptr;
crypto::RsaKeyPair* NetFixture::server_key_ = nullptr;
pki::Certificate* NetFixture::root_cert_ = nullptr;
pki::Certificate* NetFixture::server_cert_ = nullptr;

// --------------------------------------------------------- channel

TEST_F(NetFixture, HandshakeAndSealedExchange) {
  pki::CertStore trust = Trust();
  auto channel = EstablishSecureChannel(trust, {*server_cert_, *root_cert_},
                                        server_key_->private_key, kNow, rng_);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  EXPECT_EQ(channel->server_subject, "CN=cdn.acme.example");

  Bytes request = ToBytes("GET /apps/bonus.xml");
  auto sealed = channel->client.Seal(request);
  ASSERT_TRUE(sealed.ok());
  // The wire carries no plaintext.
  EXPECT_EQ(ToString(sealed.value()).find("bonus"), std::string::npos);
  auto opened = channel->server.Open(sealed.value());
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), request);

  // And the reverse direction.
  auto response = channel->server.Seal(ToBytes("<cluster/>"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ToString(channel->client.Open(response.value()).value()),
            "<cluster/>");
}

TEST_F(NetFixture, HandshakeRejectsUntrustedServer) {
  pki::CertStore empty;
  auto channel = EstablishSecureChannel(empty, {*server_cert_, *root_cert_},
                                        server_key_->private_key, kNow, rng_);
  EXPECT_TRUE(channel.status().IsVerificationFailed());
}

TEST_F(NetFixture, HandshakeRejectsExpiredCertificate) {
  pki::CertStore trust = Trust();
  auto channel =
      EstablishSecureChannel(trust, {*server_cert_, *root_cert_},
                             server_key_->private_key, kNow + 3 * kYear, rng_);
  EXPECT_TRUE(channel.status().IsVerificationFailed());
}

TEST_F(NetFixture, HandshakeRejectsKeyMismatch) {
  // A server presenting a stolen certificate without the matching private
  // key cannot complete the handshake.
  pki::CertStore trust = Trust();
  Rng rng(111);
  auto imposter_key = crypto::RsaGenerateKeyPair(512, &rng).value();
  auto channel = EstablishSecureChannel(trust, {*server_cert_, *root_cert_},
                                        imposter_key.private_key, kNow, rng_);
  EXPECT_FALSE(channel.ok());
}

TEST_F(NetFixture, TamperedRecordRejected) {
  pki::CertStore trust = Trust();
  auto channel = EstablishSecureChannel(trust, {*server_cert_, *root_cert_},
                                        server_key_->private_key, kNow, rng_)
                     .value();
  auto sealed = channel.client.Seal(ToBytes("payload")).value();
  sealed[sealed.size() / 2] ^= 0x01;
  EXPECT_TRUE(channel.server.Open(sealed).status().IsVerificationFailed());
}

TEST_F(NetFixture, ReplayedRecordRejected) {
  pki::CertStore trust = Trust();
  auto channel = EstablishSecureChannel(trust, {*server_cert_, *root_cert_},
                                        server_key_->private_key, kNow, rng_)
                     .value();
  auto sealed = channel.client.Seal(ToBytes("one")).value();
  ASSERT_TRUE(channel.server.Open(sealed).ok());
  // Replaying the same record must fail the sequence check.
  EXPECT_TRUE(channel.server.Open(sealed).status().IsVerificationFailed());
}

TEST_F(NetFixture, DisconnectedEndpointFails) {
  ChannelEndpoint endpoint;
  EXPECT_FALSE(endpoint.Seal(ToBytes("x")).ok());
  EXPECT_FALSE(endpoint.Open(ToBytes("x")).ok());
}

// --------------------------------------------------------- server

TEST_F(NetFixture, ServerHostsContent) {
  ContentServer server = MakeServer();
  EXPECT_TRUE(server.Hosts("/apps/bonus.xml"));
  EXPECT_EQ(server.HostedCount(), 1u);
  EXPECT_TRUE(server.HandleGet("/ghost").status().IsNotFound());
  EXPECT_EQ(ToString(server.HandleGet("/apps/bonus.xml").value()),
            "<cluster Id=\"bonus\"/>");
}

TEST_F(NetFixture, SecureDownloadSucceeds) {
  ContentServer server = MakeServer();
  pki::CertStore trust = Trust();
  Downloader::Options options;
  options.use_secure_channel = true;
  options.trust = &trust;
  options.now = kNow;
  Downloader downloader(&server, options, rng_);
  auto content = downloader.Fetch("/apps/bonus.xml");
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  EXPECT_EQ(ToString(content.value()), "<cluster Id=\"bonus\"/>");
}

TEST_F(NetFixture, SecureDownloadDetectsWireTamper) {
  ContentServer server = MakeServer();
  pki::CertStore trust = Trust();
  Downloader::Options options;
  options.use_secure_channel = true;
  options.trust = &trust;
  options.now = kNow;
  options.tap = [](const Bytes& wire) {
    Bytes tampered = wire;
    tampered[tampered.size() - 5] ^= 0x01;
    return tampered;
  };
  Downloader downloader(&server, options, rng_);
  EXPECT_TRUE(
      downloader.Fetch("/apps/bonus.xml").status().IsVerificationFailed());
}

TEST_F(NetFixture, PlainDownloadLetsTamperThroughSilently) {
  // §3.1 wiretap threat: without the secure channel (or the XML-DSig layer
  // above), the man-in-the-van alters content unnoticed.
  ContentServer server = MakeServer();
  Downloader::Options options;
  options.use_secure_channel = false;
  options.tap = [](const Bytes& wire) {
    // Alter only the response content (the request is just the path).
    std::string s = ToString(wire);
    size_t pos = s.find("Id=\"bonus\"");
    if (pos != std::string::npos) s.replace(pos, 10, "Id=\"EVIL!\"");
    return ToBytes(s);
  };
  Downloader downloader(&server, options, rng_);
  auto content = downloader.Fetch("/apps/bonus.xml");
  ASSERT_TRUE(content.ok());
  EXPECT_NE(ToString(content.value()).find("EVIL!"), std::string::npos);
}

TEST_F(NetFixture, PlainDownloadExposesPlaintextToTap) {
  ContentServer server = MakeServer();
  bool saw_plaintext = false;
  Downloader::Options options;
  options.use_secure_channel = false;
  options.tap = [&saw_plaintext](const Bytes& wire) {
    if (ToString(wire).find("cluster") != std::string::npos) {
      saw_plaintext = true;
    }
    return wire;
  };
  Downloader downloader(&server, options, rng_);
  ASSERT_TRUE(downloader.Fetch("/apps/bonus.xml").ok());
  EXPECT_TRUE(saw_plaintext);
}

TEST_F(NetFixture, SecureChannelHidesPlaintextFromTap) {
  ContentServer server = MakeServer();
  pki::CertStore trust = Trust();
  bool saw_plaintext = false;
  Downloader::Options options;
  options.use_secure_channel = true;
  options.trust = &trust;
  options.now = kNow;
  options.tap = [&saw_plaintext](const Bytes& wire) {
    if (ToString(wire).find("cluster") != std::string::npos) {
      saw_plaintext = true;
    }
    return wire;
  };
  Downloader downloader(&server, options, rng_);
  ASSERT_TRUE(downloader.Fetch("/apps/bonus.xml").ok());
  EXPECT_FALSE(saw_plaintext);
}

TEST_F(NetFixture, XkmsOverSecureChannel) {
  xkms::Xkmsd responder{xkms::XkmsdOptions{}};
  ContentServer server = MakeServer();
  server.AttachXkmsd(&responder);
  Rng rng(777);
  auto studio = crypto::RsaGenerateKeyPair(512, &rng).value();
  ASSERT_TRUE(responder
                  .SeedBinding({"studio-key", studio.public_key, {"Signature"},
                                xkms::KeyStatus::kValid})
                  .ok());

  pki::CertStore trust = Trust();
  Downloader::Options options;
  options.use_secure_channel = true;
  options.trust = &trust;
  options.now = kNow;
  Downloader downloader(&server, options, rng_);

  xkms::XkmsClient client(
      [&downloader](const std::string& request, xkms::AsyncCallback done) {
        done(downloader.XkmsExchange(request));
      });
  auto binding = client.Locate("studio-key");
  ASSERT_TRUE(binding.ok()) << binding.status().ToString();
  EXPECT_TRUE(binding->key == studio.public_key);
  auto status = client.Validate("studio-key", studio.public_key);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), xkms::KeyStatus::kValid);
}

// ------------------------------------------------ fault classification

TEST_F(NetFixture, WireFaultSurfacesAsNetworkError) {
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kNetWire);
  injector.Arm(spec);

  ContentServer server = MakeServer();
  pki::CertStore trust = Trust();
  Downloader::Options options;
  options.use_secure_channel = true;
  options.trust = &trust;
  options.now = kNow;
  options.fault = &injector;
  Downloader downloader(&server, options, rng_);

  auto fetched = downloader.Fetch("/apps/bonus.xml");
  ASSERT_FALSE(fetched.ok());
  EXPECT_TRUE(fetched.status().IsUnavailable())
      << fetched.status().ToString();
  EXPECT_NE(fetched.status().ToString().find("network"), std::string::npos)
      << fetched.status().ToString();
  EXPECT_GE(injector.fires(fault::kNetWire), 1u);
}

TEST_F(NetFixture, CorruptedWireBytesAreCaughtByTheSecureChannel) {
  // A flipped bit on the sealed wire record must be rejected by the MAC
  // check — the man-in-the-van cannot even flip bits silently.
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kNetWire);
  spec.kind = fault::Kind::kCorrupt;
  spec.detail_filter = "request";
  injector.Arm(spec);

  ContentServer server = MakeServer();
  pki::CertStore trust = Trust();
  Downloader::Options options;
  options.use_secure_channel = true;
  options.trust = &trust;
  options.now = kNow;
  options.fault = &injector;
  Downloader downloader(&server, options, rng_);

  auto fetched = downloader.Fetch("/apps/bonus.xml");
  EXPECT_FALSE(fetched.ok());
  EXPECT_EQ(injector.fires(fault::kNetWire), 1u);
}

TEST_F(NetFixture, EndpointSealAndOpenFaultsCarryChannelContext) {
  for (std::string_view point : {fault::kNetSeal, fault::kNetOpen}) {
    fault::FaultInjector injector;
    fault::FaultSpec spec;
    spec.point = std::string(point);
    injector.Arm(spec);

    pki::CertStore trust = Trust();
    auto channel =
        EstablishSecureChannel(trust, {*server_cert_, *root_cert_},
                               server_key_->private_key, kNow, rng_);
    ASSERT_TRUE(channel.ok());
    channel->client.set_fault_injector(&injector);
    channel->server.set_fault_injector(&injector);

    Bytes request = ToBytes("GET /x");
    if (point == fault::kNetSeal) {
      auto sealed = channel->client.Seal(request);
      ASSERT_FALSE(sealed.ok());
      EXPECT_NE(sealed.status().ToString().find("secure channel"),
                std::string::npos)
          << sealed.status().ToString();
    } else {
      auto sealed = channel->client.Seal(request);
      ASSERT_TRUE(sealed.ok());
      auto opened = channel->server.Open(sealed.value());
      ASSERT_FALSE(opened.ok());
      EXPECT_NE(opened.status().ToString().find("secure channel"),
                std::string::npos)
          << opened.status().ToString();
    }
  }
}

TEST_F(NetFixture, XkmsExchangeClassifiesTransportVersusService) {
  xkms::Xkmsd responder{xkms::XkmsdOptions{}};
  ContentServer server = MakeServer();
  server.AttachXkmsd(&responder);
  pki::CertStore trust = Trust();

  // Transport leg broken: retryable kUnavailable, "XKMS transport".
  {
    fault::FaultInjector injector;
    fault::FaultSpec spec;
    spec.point = std::string(fault::kNetWire);
    injector.Arm(spec);
    Downloader::Options options;
    options.use_secure_channel = true;
    options.trust = &trust;
    options.now = kNow;
    options.fault = &injector;
    Downloader downloader(&server, options, rng_);
    auto response = downloader.XkmsExchange(xkms::BuildLocateRequest("k"));
    ASSERT_FALSE(response.ok());
    EXPECT_TRUE(response.status().IsRetryable())
        << response.status().ToString();
    EXPECT_NE(response.status().ToString().find("XKMS transport"),
              std::string::npos)
        << response.status().ToString();
  }

  // Transport healthy, the trust service itself rejects the request:
  // terminal, original code kept, "XKMS service".
  {
    Downloader::Options options;
    options.use_secure_channel = true;
    options.trust = &trust;
    options.now = kNow;
    Downloader downloader(&server, options, rng_);
    auto response = downloader.XkmsExchange("this is not xkms xml");
    ASSERT_FALSE(response.ok());
    EXPECT_FALSE(response.status().IsRetryable());
    EXPECT_NE(response.status().ToString().find("XKMS service"),
              std::string::npos)
        << response.status().ToString();
  }
}

TEST_F(NetFixture, XkmsTransportClosureFeedsTheClient) {
  xkms::Xkmsd responder{xkms::XkmsdOptions{}};
  ContentServer server = MakeServer();
  server.AttachXkmsd(&responder);
  Rng rng(778);
  auto studio = crypto::RsaGenerateKeyPair(512, &rng).value();
  ASSERT_TRUE(responder
                  .SeedBinding({"studio-key", studio.public_key, {"Signature"},
                                xkms::KeyStatus::kValid})
                  .ok());
  pki::CertStore trust = Trust();
  Downloader::Options options;
  options.use_secure_channel = true;
  options.trust = &trust;
  options.now = kNow;
  Downloader downloader(&server, options, rng_);
  xkms::XkmsClient client(downloader.XkmsTransport());
  auto binding = client.Locate("studio-key");
  ASSERT_TRUE(binding.ok()) << binding.status().ToString();
  EXPECT_TRUE(binding->key == studio.public_key);
}

TEST_F(NetFixture, XkmsWithoutAttachedResponderIsAServiceError) {
  // A server with no trust service attached answers every XKMS request with
  // one pinned terminal status, marked as the service answering: no
  // NoMatch, no Indeterminate, nothing a player could mistake for a lookup.
  ContentServer server = MakeServer();
  pki::CertStore trust = Trust();
  Downloader::Options options;
  options.use_secure_channel = true;
  options.trust = &trust;
  options.now = kNow;
  Downloader downloader(&server, options, rng_);

  auto response = downloader.XkmsExchange(xkms::BuildLocateRequest("k"));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnsupported())
      << response.status().ToString();
  EXPECT_FALSE(response.status().IsRetryable());
  EXPECT_EQ(response.status().message(),
            "XKMS service: server hosts no XKMS responder");

  xkms::XkmsClient client(downloader.XkmsTransport());
  Status locate = client.Locate("k").status();
  EXPECT_TRUE(locate.IsUnsupported()) << locate.ToString();
  Result<xkms::KeyStatus> verdict =
      client.Validate("k", server_key_->public_key);
  EXPECT_TRUE(verdict.status().IsUnsupported())
      << verdict.status().ToString();
}

}  // namespace
}  // namespace net
}  // namespace discsec
