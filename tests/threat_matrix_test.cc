// The DESIGN.md §6 threat-model test matrix, derived from the paper's
// STRIDE analysis (§3.1): each test injects one threat end-to-end and
// asserts the designated mitigation fires. Unlike the per-module tests,
// every row here runs the complete author -> transport -> player pipeline.

#include <cstring>

#include <gtest/gtest.h>

#include "tests/test_world.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmldsig/verifier.h"

namespace discsec {
namespace {

using testing_world::kNow;
using testing_world::kYear;
using testing_world::World;

class ThreatMatrix : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new World(); }

  net::ContentServer MakeServer() {
    net::ContentServer server;
    server.SetIdentity({world_->server_cert, world_->root_cert},
                       world_->server_key.private_key);
    return server;
  }

  std::string SignedApp() {
    authoring::Author author = world_->MakeAuthor();
    auto doc = author.BuildSigned(world_->DemoCluster(),
                                  authoring::SignLevel::kCluster);
    return xml::Serialize(doc.value());
  }

  static World* world_;
};

World* ThreatMatrix::world_ = nullptr;

// Row 1 — Tampered downloaded app: flip bytes in markup/script after
// signing -> Verifier rejects; engine refuses to execute.
TEST_F(ThreatMatrix, TamperedApplicationContent) {
  std::string wire = SignedApp();
  struct Mutation {
    const char* what;
    const char* find;
    const char* replace;
  };
  const Mutation mutations[] = {
      {"script logic", "scores.submit('alice', 4200)",
       "scores.submit('alice', 9999)"},
      {"markup layout", "width=\"1800\"", "width=\"1801\""},
      {"permission request", "access=\"readwrite\"", "access=\"readwrit2\""},
      {"track structure", "kind=\"av\"", "kind=\"a2\""},
  };
  for (const Mutation& m : mutations) {
    std::string tampered = wire;
    size_t pos = tampered.find(m.find);
    ASSERT_NE(pos, std::string::npos) << m.what;
    tampered.replace(pos, std::strlen(m.find), m.replace);
    player::InteractiveApplicationEngine engine(world_->MakePlayerConfig());
    auto report =
        engine.LaunchClusterXml(tampered, player::Origin::kNetwork);
    EXPECT_TRUE(report.status().IsVerificationFailed()) << m.what;
  }
}

// Row 2 — Spoofed author: content signed with a chain that does not anchor
// at the player's trusted root -> chain validation fails.
TEST_F(ThreatMatrix, SpoofedAuthorChain) {
  Rng rng(1234);
  auto key = crypto::RsaGenerateKeyPair(512, &rng).value();
  pki::CertificateInfo self;
  self.subject = "CN=Acme Studios Signing";  // impersonating the real name!
  self.issuer = self.subject;
  self.serial = 2;
  self.not_before = kNow - 100;
  self.not_after = kNow + kYear;
  self.is_ca = true;
  self.public_key = key.public_key;
  auto fake_cert = pki::IssueCertificate(self, key.private_key).value();

  xmldsig::KeyInfoSpec ki;
  ki.certificate_chain = {fake_cert};
  authoring::Author impostor(xmldsig::SigningKey::Rsa(key.private_key), ki);
  auto doc = impostor.BuildSigned(world_->DemoCluster(),
                                  authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  player::InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchClusterXml(xml::Serialize(doc.value()),
                                        player::Origin::kNetwork);
  EXPECT_TRUE(report.status().IsVerificationFailed());
}

// Row 3 — Wiretap (man-in-the-van): an observer on the wire sees only
// ciphertext when the secure channel and/or XML-Enc are in use.
TEST_F(ThreatMatrix, WiretapSeesNoPlaintext) {
  authoring::Author author = world_->MakeAuthor();
  authoring::Author::ProtectOptions protect;
  protect.sign = true;
  protect.encrypt_ids = {"quiz"};
  protect.encryption = world_->MakeEncryptionSpec();
  auto doc = author.BuildProtected(world_->DemoCluster(), protect,
                                   &world_->rng);
  ASSERT_TRUE(doc.ok());
  net::ContentServer server = MakeServer();
  ASSERT_TRUE(author.Publish(&server, "/a.xml", doc.value()).ok());

  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world_->root_cert).ok());
  std::vector<std::string> observed;
  net::Downloader::Options options;
  options.use_secure_channel = true;
  options.trust = &trust;
  options.now = kNow;
  options.tap = [&observed](const Bytes& wire) {
    observed.push_back(ToString(wire));
    return wire;
  };
  net::Downloader downloader(&server, options, &world_->rng);
  auto content = downloader.Fetch("/a.xml");
  ASSERT_TRUE(content.ok());
  for (const std::string& frame : observed) {
    // Neither the markup structure nor the script leaks onto the wire.
    EXPECT_EQ(frame.find("cluster"), std::string::npos);
    EXPECT_EQ(frame.find("Quiz Night"), std::string::npos);
  }
  // Defense in depth: even off the wire, the application script is
  // XML-encrypted inside the fetched document.
  EXPECT_EQ(ToString(content.value()).find("Quiz Night"), std::string::npos);
}

// Row 4 — Replayed/revoked key: revoke via XKMS; the next launch fails
// validation although the certificate itself is still time-valid.
TEST_F(ThreatMatrix, RevokedKeyViaXkms) {
  xkms::Xkmsd responder{xkms::XkmsdOptions{}};
  std::string fingerprint =
      pki::KeyFingerprint(world_->studio_key.public_key);
  ASSERT_TRUE(responder
                  .SeedBinding({fingerprint, world_->studio_key.public_key,
                                {"Signature"}, xkms::KeyStatus::kValid})
                  .ok());
  xkms::XkmsClient client(xkms::MakeServerTransport(&responder));
  std::string wire = SignedApp();

  player::PlayerConfig before = world_->MakePlayerConfig();
  before.xkms = &client;
  player::InteractiveApplicationEngine engine1(std::move(before));
  ASSERT_TRUE(engine1.LaunchClusterXml(wire, player::Origin::kNetwork).ok());

  ASSERT_TRUE(client.Revoke(fingerprint).ok());
  player::PlayerConfig after = world_->MakePlayerConfig();
  after.xkms = &client;
  player::InteractiveApplicationEngine engine2(std::move(after));
  EXPECT_TRUE(engine2.LaunchClusterXml(wire, player::Origin::kNetwork)
                  .status()
                  .IsVerificationFailed());
}

// Row 5 — Privilege escalation: the application asks the host API for a
// resource its permission request never declared -> PEP denies at the API
// boundary and the write never happens.
TEST_F(ThreatMatrix, PrivilegeEscalationBlocked) {
  disc::InteractiveCluster cluster = world_->DemoCluster();
  cluster.tracks[1].manifest.scripts[0].source =
      "function onLoad() {\n"
      "  ui.drawText('title', 'innocent');\n"       // granted
      "  storage.write('system/keys.bin', 'x');\n"  // escalation attempt
      "}";
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(cluster, authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  player::InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchClusterXml(xml::Serialize(doc.value()),
                                        player::Origin::kNetwork);
  EXPECT_TRUE(report.status().IsPermissionDenied());
  EXPECT_FALSE(engine.storage()->Exists("system/keys.bin"));
}

// Row 6 — Malicious local-storage writer: a user-authored (unsigned)
// application tries to write local storage -> rejected before execution
// (the paper's §1 example: "the user could try to create his/her own
// application, load to the system and try to access content where he has
// no access rights").
TEST_F(ThreatMatrix, HomebrewUnsignedApplicationBlocked) {
  disc::InteractiveCluster cluster = world_->DemoCluster();
  cluster.tracks[1].manifest.scripts[0].source =
      "function onLoad() { storage.write('scores/fake', '999999'); }";
  std::string wire = xml::Serialize(cluster.ToXml());
  player::InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchClusterXml(wire, player::Origin::kNetwork);
  EXPECT_TRUE(report.status().IsVerificationFailed());
  EXPECT_FALSE(engine.storage()->Exists("scores/fake"));
}

// Row 7 — signature wrapping: the attacker keeps the validly signed
// application element in place (so the signature still verifies) but
// inserts their own application track earlier in the document, where the
// engine would find it first. The coverage check must reject the launch.
TEST_F(ThreatMatrix, SignatureWrappingBlocked) {
  // Sign ONLY the legitimate app track (detached, by Id) — the scenario
  // where wrapping is possible at all.
  disc::InteractiveCluster cluster = world_->DemoCluster();
  xml::Document doc = cluster.ToXml();
  authoring::Author author = world_->MakeAuthor();
  xml::Element* track = doc.FindById("track-app");
  ASSERT_NE(track, nullptr);
  xmldsig::KeyInfoSpec ki;
  ki.certificate_chain = {world_->studio_cert, world_->root_cert};
  xmldsig::Signer signer(
      xmldsig::SigningKey::Rsa(world_->studio_key.private_key), ki);
  ASSERT_TRUE(
      signer.SignDetached(&doc, track, "track-app", doc.root()).ok());

  // Sanity: the untampered document launches (the executed track is the
  // signed one, so coverage holds).
  player::InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  std::string wire = xml::Serialize(doc);
  ASSERT_TRUE(engine.LaunchClusterXml(wire, player::Origin::kNetwork).ok());

  // The wrap: inject an attacker application track BEFORE the signed one.
  // The signature still verifies (its target is untouched), but the engine
  // would execute the attacker's code — unless coverage is enforced.
  std::string evil_track =
      "<track Id=\"track-evil\" kind=\"application\">"
      "<manifest Id=\"evil\"><markup Id=\"evil-markup\"/>"
      "<code Id=\"evil-code\"><script Id=\"evil-s\" name=\"main\">"
      "var pwned = true;</script></code>"
      "<permissions Id=\"evil-p\">"
      "&lt;permissionrequestfile appid=\"0\" orgid=\"evil\"/&gt;"
      "</permissions></manifest></track>";
  std::string wrapped = wire;
  size_t pos = wrapped.find("<track Id=\"track-app\"");
  ASSERT_NE(pos, std::string::npos);
  wrapped.insert(pos, evil_track);

  // The signature itself still verifies...
  auto parsed = xml::Parse(wrapped).value();
  pki::CertStore store;
  ASSERT_TRUE(store.AddTrustedRoot(world_->root_cert).ok());
  xmldsig::VerifyOptions options;
  options.cert_store = &store;
  options.now = kNow;
  ASSERT_TRUE(
      xmldsig::Verifier::VerifyFirstSignature(parsed, options).ok());
  // ...but the engine refuses to execute the uncovered attacker track.
  auto report = engine.LaunchClusterXml(wrapped, player::Origin::kNetwork);
  ASSERT_TRUE(report.status().IsVerificationFailed());
  EXPECT_NE(report.status().message().find("wrapping"), std::string::npos);
}

// Row 7b — coverage is also what rejects network applications whose
// signature scopes only a fragment below the manifest (e.g. one script):
// the markup around it would be attacker-controllable.
TEST_F(ThreatMatrix, SubManifestOnlySignatureInsufficientForNetwork) {
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(),
                                authoring::SignLevel::kScript, "", "main");
  ASSERT_TRUE(doc.ok());
  player::InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchClusterXml(xml::Serialize(doc.value()),
                                        player::Origin::kNetwork);
  EXPECT_TRUE(report.status().IsVerificationFailed());
}

// Bonus row — denial of service via resource exhaustion: unbounded
// recursion is stopped by the embedded profile's call-depth cap.
TEST_F(ThreatMatrix, RecursionBombStopped) {
  disc::InteractiveCluster cluster = world_->DemoCluster();
  cluster.tracks[1].manifest.scripts[0].source =
      "function boom(n) { return boom(n + 1); } function onLoad() { "
      "boom(0); }";
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(cluster, authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  player::InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchClusterXml(xml::Serialize(doc.value()),
                                        player::Origin::kNetwork);
  EXPECT_TRUE(report.status().IsResourceExhausted());
}

}  // namespace
}  // namespace discsec
