#include <gtest/gtest.h>

#include "tests/test_world.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace discsec {
namespace player {
namespace {

using testing_world::kNow;
using testing_world::kYear;
using testing_world::World;

class PlayerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new World(); }
  static World* world_;
};

World* PlayerFixture::world_ = nullptr;

// ------------------------------------------------------------- disc path

TEST_F(PlayerFixture, DiscLaunchOfSignedApplication) {
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(),
                                authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto image = author.Master(world_->DemoCluster(), doc.value());
  ASSERT_TRUE(image.ok());

  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchFromDisc(image.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->origin, Origin::kDisc);
  EXPECT_TRUE(report->signature_verified);
  EXPECT_EQ(report->signer_subject, "CN=Acme Studios Signing");
  // Grants from the permission request x platform policy.
  EXPECT_TRUE(report->grants.at("localstorage"));
  EXPECT_TRUE(report->grants.at("graphics"));
  // The markup produced a layout timeline.
  EXPECT_EQ(report->timeline.size(), 2u);
  EXPECT_EQ(report->presentation_duration, smil::kIndefinite);
  // The script ran: drew the title and computed the best score.
  ASSERT_EQ(report->render_ops.size(), 1u);
  EXPECT_EQ(report->render_ops[0].payload, "Quiz Night!");
  ASSERT_EQ(report->console.size(), 1u);
  EXPECT_EQ(report->console[0], "best score: 4200");
  EXPECT_GT(report->script_steps, 0u);
  // And the scores landed in local storage.
  EXPECT_EQ(engine.storage()->ReadText("scores/alice").value(), "4200");
}

TEST_F(PlayerFixture, UnsignedDiscApplicationIsTrusted) {
  // §5.1: disc content is inherently trusted (disc authentication assumed).
  authoring::Author author = world_->MakeAuthor();
  disc::InteractiveCluster cluster = world_->DemoCluster();
  xml::Document doc = cluster.ToXml();
  auto image = author.Master(cluster, doc);
  ASSERT_TRUE(image.ok());
  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchFromDisc(image.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->signature_present);
  EXPECT_FALSE(report->signature_verified);
}

TEST_F(PlayerFixture, UnsignedDiscRejectedWhenNotTrusted) {
  authoring::Author author = world_->MakeAuthor();
  disc::InteractiveCluster cluster = world_->DemoCluster();
  auto image = author.Master(cluster, cluster.ToXml());
  ASSERT_TRUE(image.ok());
  PlayerConfig config = world_->MakePlayerConfig();
  config.trust_disc_content = false;
  InteractiveApplicationEngine engine(std::move(config));
  EXPECT_TRUE(engine.LaunchFromDisc(image.value())
                  .status()
                  .IsVerificationFailed());
}

TEST_F(PlayerFixture, CorruptedTransportStreamRejected) {
  authoring::Author author = world_->MakeAuthor();
  disc::InteractiveCluster cluster = world_->DemoCluster();
  auto image = author.Master(cluster, cluster.ToXml()).value();
  Bytes ts = image.Get(cluster.clips[0].ts_path).value();
  ts[0] = 0x00;  // break the first sync byte
  image.Put(cluster.clips[0].ts_path, ts);
  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  EXPECT_TRUE(engine.LaunchFromDisc(image).status().IsCorruption());
}

TEST_F(PlayerFixture, LaunchFromDiscParsesOnlyUnderTheConfiguredLimits) {
  // The same scratched disc, but a cluster nested deeper than the player
  // accepts: the parse limit decides before any essence is read.
  authoring::Author author = world_->MakeAuthor();
  disc::InteractiveCluster cluster = world_->DemoCluster();
  auto image = author.Master(cluster, cluster.ToXml()).value();
  Bytes ts = image.Get(cluster.clips[0].ts_path).value();
  ts[0] = 0x00;
  image.Put(cluster.clips[0].ts_path, ts);
  PlayerConfig config = world_->MakePlayerConfig();
  config.parse_limits.max_depth = 2;
  InteractiveApplicationEngine engine(std::move(config));
  EXPECT_EQ(engine.LaunchFromDisc(image).status().ToString(),
            "ResourceExhausted: XML nesting exceeds max_depth");
}

TEST_F(PlayerFixture, EmbeddedDocumentsParseUnderTheConfiguredLimits) {
  // The permission request and the SMIL layout travel as text inside the
  // manifest and are parsed as documents of their own. Nested 60 deep, each
  // is refused under a depth limit of 16 and launches under the defaults.
  std::string nest;
  for (int i = 0; i < 60; ++i) nest += "<x>";
  for (int i = 0; i < 60; ++i) nest += "</x>";
  disc::InteractiveCluster deep_request = world_->DemoCluster();
  std::string& request =
      deep_request.tracks[1].manifest.permission_request_xml;
  request.insert(request.find("</permissionrequestfile>"), nest);
  disc::InteractiveCluster deep_layout = world_->DemoCluster();
  std::string& layout = deep_layout.tracks[1].manifest.markups[0].content;
  layout.insert(layout.find("</head>"), nest);
  authoring::Author author = world_->MakeAuthor();
  for (const disc::InteractiveCluster& cluster : {deep_request, deep_layout}) {
    auto doc = author.BuildSigned(cluster, authoring::SignLevel::kCluster);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const std::string text = xml::Serialize(doc.value());
    PlayerConfig config = world_->MakePlayerConfig();
    config.parse_limits.max_depth = 16;
    InteractiveApplicationEngine limited(std::move(config));
    EXPECT_EQ(
        limited.LaunchClusterXml(text, Origin::kNetwork).status().ToString(),
        "ResourceExhausted: XML nesting exceeds max_depth");
    InteractiveApplicationEngine engine(world_->MakePlayerConfig());
    auto report = engine.LaunchClusterXml(text, Origin::kNetwork);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
  }
}

TEST_F(PlayerFixture, DiscWithoutClusterRejected) {
  disc::DiscImage empty;
  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  EXPECT_TRUE(engine.LaunchFromDisc(empty).status().IsNotFound());
}

// ------------------------------------------------------------- network path

net::ContentServer MakeServer(World* world) {
  net::ContentServer server;
  server.SetIdentity({world->server_cert, world->root_cert},
                     world->server_key.private_key);
  return server;
}

net::Downloader::Options SecureOptions(World* /*world*/,
                                       const pki::CertStore* trust) {
  net::Downloader::Options options;
  options.use_secure_channel = true;
  options.trust = trust;
  options.now = kNow;
  return options;
}

TEST_F(PlayerFixture, NetworkLaunchOfSignedApplication) {
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(),
                                authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  net::ContentServer server = MakeServer(world_);
  ASSERT_TRUE(author.Publish(&server, "/apps/quiz.xml", doc.value()).ok());

  PlayerConfig config = world_->MakePlayerConfig();
  InteractiveApplicationEngine engine(std::move(config));
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world_->root_cert).ok());
  auto report = engine.LaunchFromServer(&server, "/apps/quiz.xml",
                                        SecureOptions(world_, &trust),
                                        &world_->rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->origin, Origin::kNetwork);
  EXPECT_TRUE(report->signature_verified);
  EXPECT_GT(report->timings.fetch_us, 0);
  EXPECT_GT(report->timings.verify_us, 0);
}

TEST_F(PlayerFixture, UnsignedNetworkApplicationRejected) {
  // §5.1: "the real security issue lies with the interactive applications
  // downloaded over the Internet".
  authoring::Author author = world_->MakeAuthor();
  disc::InteractiveCluster cluster = world_->DemoCluster();
  net::ContentServer server = MakeServer(world_);
  ASSERT_TRUE(author.Publish(&server, "/apps/quiz.xml", cluster.ToXml()).ok());
  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world_->root_cert).ok());
  auto report = engine.LaunchFromServer(&server, "/apps/quiz.xml",
                                        SecureOptions(world_, &trust),
                                        &world_->rng);
  EXPECT_TRUE(report.status().IsVerificationFailed());
}

TEST_F(PlayerFixture, TamperedDownloadRejectedBySignature) {
  // The man-in-the-van alters content on a plain connection; the XML-DSig
  // layer (not the transport) catches it.
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(),
                                authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  net::ContentServer server = MakeServer(world_);
  ASSERT_TRUE(author.Publish(&server, "/apps/quiz.xml", doc.value()).ok());

  net::Downloader::Options options;
  options.use_secure_channel = false;
  options.tap = [](const Bytes& wire) {
    std::string s = ToString(wire);
    size_t pos = s.find("Quiz Night!");
    if (pos != std::string::npos) s.replace(pos, 11, "Pwnd Night!");
    return ToBytes(s);
  };
  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchFromServer(&server, "/apps/quiz.xml", options,
                                        &world_->rng);
  EXPECT_TRUE(report.status().IsVerificationFailed());
}

TEST_F(PlayerFixture, AttackerSignedApplicationRejected) {
  // A self-made chain that does not anchor at the player's root.
  Rng rng(666);
  auto evil_key = crypto::RsaGenerateKeyPair(512, &rng).value();
  pki::CertificateInfo evil_root_info;
  evil_root_info.subject = "CN=Evil Root";
  evil_root_info.issuer = evil_root_info.subject;
  evil_root_info.serial = 1;
  evil_root_info.not_before = kNow - kYear;
  evil_root_info.not_after = kNow + kYear;
  evil_root_info.is_ca = true;
  evil_root_info.public_key = evil_key.public_key;
  auto evil_root =
      pki::IssueCertificate(evil_root_info, evil_key.private_key).value();

  xmldsig::KeyInfoSpec key_info;
  key_info.certificate_chain = {evil_root};
  authoring::Author evil_author(
      xmldsig::SigningKey::Rsa(evil_key.private_key), key_info);
  auto doc = evil_author.BuildSigned(world_->DemoCluster(),
                                     authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  net::ContentServer server = MakeServer(world_);
  ASSERT_TRUE(
      evil_author.Publish(&server, "/apps/evil.xml", doc.value()).ok());
  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world_->root_cert).ok());
  auto report = engine.LaunchFromServer(&server, "/apps/evil.xml",
                                        SecureOptions(world_, &trust),
                                        &world_->rng);
  EXPECT_TRUE(report.status().IsVerificationFailed());
}

TEST_F(PlayerFixture, NetworkLaunchRejectsReferenceToItsOwnSignature) {
  // The whole-cluster Reference retargeted at an Id given to its own
  // ds:Signature, enveloped-signature transform kept: the transform would
  // leave out the very target it digests. References are digested before
  // any key is resolved, so anyone can send this; the launch is refused.
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(),
                                authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  std::string wire = xml::Serialize(doc.value());
  const std::string open = "<ds:Signature";
  size_t sig = wire.find(open);
  ASSERT_NE(sig, std::string::npos);
  wire.insert(sig + open.size(), " Id=\"own\"");
  size_t uri = wire.find("URI=\"\"", sig);
  ASSERT_NE(uri, std::string::npos);
  wire.replace(uri, 6, "URI=\"#own\"");
  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchClusterXml(wire, Origin::kNetwork);
  ASSERT_TRUE(report.status().IsVerificationFailed())
      << report.status().ToString();
  EXPECT_NE(report.status().message().find(
                "reference target lies inside the omitted signature"),
            std::string::npos)
      << report.status().ToString();
}

// ------------------------------------------------------------- encryption

TEST_F(PlayerFixture, ProtectedApplicationDecryptsAndVerifies) {
  // Fig. 9 end to end: sign (with Decryption Transform), then encrypt the
  // manifest; the player verifies and decrypts transparently.
  authoring::Author author = world_->MakeAuthor();
  authoring::Author::ProtectOptions options;
  options.sign = true;
  options.encrypt_ids = {"quiz"};
  options.encryption = world_->MakeEncryptionSpec();
  auto doc =
      author.BuildProtected(world_->DemoCluster(), options, &world_->rng);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  // The wire form hides the script.
  std::string wire = xml::Serialize(doc.value());
  EXPECT_EQ(wire.find("Quiz Night!"), std::string::npos);

  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchClusterXml(wire, Origin::kNetwork);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->signature_verified);
  EXPECT_TRUE(report->content_decrypted);
  EXPECT_GT(report->timings.decrypt_us, 0);
  ASSERT_EQ(report->console.size(), 1u);
  EXPECT_EQ(report->console[0], "best score: 4200");
}

TEST_F(PlayerFixture, ProtectedApplicationFailsWithoutKey) {
  authoring::Author author = world_->MakeAuthor();
  authoring::Author::ProtectOptions options;
  options.encrypt_ids = {"quiz"};
  options.encryption = world_->MakeEncryptionSpec();
  auto doc =
      author.BuildProtected(world_->DemoCluster(), options, &world_->rng);
  ASSERT_TRUE(doc.ok());
  PlayerConfig config = world_->MakePlayerConfig();
  config.keys = xmlenc::KeyRing();  // strip the content key
  InteractiveApplicationEngine engine(std::move(config));
  auto report = engine.LaunchClusterXml(xml::Serialize(doc.value()),
                                        Origin::kNetwork);
  EXPECT_FALSE(report.ok());
}

TEST_F(PlayerFixture, TamperedCiphertextRejectedBeforeExecution) {
  authoring::Author author = world_->MakeAuthor();
  authoring::Author::ProtectOptions options;
  options.encrypt_ids = {"quiz"};
  options.encryption = world_->MakeEncryptionSpec();
  auto doc =
      author.BuildProtected(world_->DemoCluster(), options, &world_->rng);
  ASSERT_TRUE(doc.ok());
  std::string wire = xml::Serialize(doc.value());
  size_t pos = wire.rfind("CipherValue>");
  ASSERT_NE(pos, std::string::npos);
  wire[pos - 30] = wire[pos - 30] == 'A' ? 'B' : 'A';
  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchClusterXml(wire, Origin::kNetwork);
  EXPECT_FALSE(report.ok());
}

TEST_F(PlayerFixture, MalformedCipherValueTailRejectedOnNetworkLaunch) {
  // The Decryption Transform digests the plaintext, not the CipherValue
  // text, so only the base64 decoder can notice a character appended to
  // the ciphertext. Appended to a CipherValue without padding, a lone final
  // character "A" (whose bits are zero) used to be dropped, and the app
  // launched verified and decrypted.
  authoring::Author author = world_->MakeAuthor();
  authoring::Author::ProtectOptions options;
  options.sign = true;
  options.encrypt_ids = {"quiz"};
  options.encryption = world_->MakeEncryptionSpec();
  // Grow the encrypted manifest until its ciphertext is a multiple of three
  // bytes, so the CipherValue ends in a whole quantum and no '='.
  std::string wire;
  size_t close = std::string::npos;
  for (size_t extra = 0; extra < 48; ++extra) {
    disc::InteractiveCluster cluster = world_->DemoCluster();
    cluster.tracks[1].manifest.scripts.push_back(
        {"pad", "var pad = '" + std::string(extra, 'p') + "';"});
    auto doc = author.BuildProtected(cluster, options, &world_->rng);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    wire = xml::Serialize(doc.value());
    close = wire.rfind("</", wire.rfind("CipherValue>"));
    ASSERT_NE(close, std::string::npos);
    if (wire[close - 1] != '=') break;
  }
  ASSERT_NE(wire[close - 1], '=');
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world_->root_cert).ok());
  for (const char* suffix : {"", "A", "A="}) {
    std::string tampered = wire;
    tampered.insert(close, suffix);
    auto parsed = xml::Parse(tampered);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    net::ContentServer server = MakeServer(world_);
    ASSERT_TRUE(author.Publish(&server, "/apps/quiz.xml", parsed.value()).ok());
    InteractiveApplicationEngine engine(world_->MakePlayerConfig());
    auto report = engine.LaunchFromServer(&server, "/apps/quiz.xml",
                                          SecureOptions(world_, &trust),
                                          &world_->rng);
    if (std::string_view(suffix).empty()) {
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(report->signature_verified);
      EXPECT_TRUE(report->content_decrypted);
      continue;
    }
    ASSERT_FALSE(report.ok()) << "suffix '" << suffix << "' launched";
    EXPECT_EQ(report.status().code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(report.status().message(),
              "application signature: base64: final quantum of one character");
  }
}

TEST_F(PlayerFixture, SignedAvEssenceDetectsTsTamper) {
  // §5.3: the signer chooses to also sign the non-markup audio/video
  // content. The cluster signature carries an external reference per clip
  // ("disc://<ts_path>"); changing a single essence byte on the disc
  // breaks launch even though the markup is untouched.
  authoring::Author author = world_->MakeAuthor();
  authoring::Author::ProtectOptions options;
  options.sign = true;
  options.sign_av_essence = true;
  auto image = author.MasterProtected(world_->DemoCluster(), options,
                                      &world_->rng);
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto good = engine.LaunchFromDisc(image.value());
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good->signature_verified);

  // Flip one payload byte deep inside the transport stream (the TS header
  // stays valid, so only the signature can catch this).
  disc::DiscImage tampered = image.value();
  std::string ts_path = world_->DemoCluster().clips[0].ts_path;
  Bytes ts = tampered.Get(ts_path).value();
  ts[400] ^= 0x01;  // inside packet payload, not a sync byte
  tampered.Put(ts_path, ts);
  auto bad = engine.LaunchFromDisc(tampered);
  EXPECT_TRUE(bad.status().IsVerificationFailed());
}

TEST_F(PlayerFixture, BuildProtectedRefusesEssenceSigning) {
  authoring::Author author = world_->MakeAuthor();
  authoring::Author::ProtectOptions options;
  options.sign_av_essence = true;
  EXPECT_TRUE(
      author.BuildProtected(world_->DemoCluster(), options, &world_->rng)
          .status()
          .IsInvalidArgument());
}

TEST_F(PlayerFixture, MasterProtectedCombinesAllMechanisms) {
  // Everything at once: enveloped signature with Decryption Transform,
  // AV-essence references, and an encrypted manifest.
  authoring::Author author = world_->MakeAuthor();
  authoring::Author::ProtectOptions options;
  options.sign = true;
  options.sign_av_essence = true;
  options.encrypt_ids = {"quiz"};
  options.encryption = world_->MakeEncryptionSpec();
  auto image = author.MasterProtected(world_->DemoCluster(), options,
                                      &world_->rng);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->GetText(disc::kClusterPath)
                .value()
                .find("Quiz Night!"),
            std::string::npos);
  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchFromDisc(image.value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->signature_verified);
  EXPECT_TRUE(report->content_decrypted);
  ASSERT_EQ(report->console.size(), 1u);
  EXPECT_EQ(report->console[0], "best score: 4200");
}

// ------------------------------------------------------------- policy

TEST_F(PlayerFixture, ScriptBlockedFromUnrequestedResource) {
  // The app never requested network access; the host API denies it... in
  // this engine the observable test is storage outside scores/.
  disc::InteractiveCluster cluster = world_->DemoCluster();
  cluster.tracks[1].manifest.scripts[0].source =
      "function onLoad() { storage.write('system/firmware.bin', 'junk'); }";
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(cluster, authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchClusterXml(
      xml::Serialize(doc.value()), Origin::kNetwork);
  EXPECT_TRUE(report.status().IsPermissionDenied());
  // Nothing was written.
  EXPECT_FALSE(engine.storage()->Exists("system/firmware.bin"));
}

TEST_F(PlayerFixture, AppWithoutPermissionRequestGetsNothing) {
  disc::InteractiveCluster cluster = world_->DemoCluster();
  cluster.tracks[1].manifest.permission_request_xml.clear();
  cluster.tracks[1].manifest.scripts[0].source =
      "function onLoad() { scores.submit('x', 1); }";
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(cluster, authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  InteractiveApplicationEngine engine(world_->MakePlayerConfig());
  auto report = engine.LaunchClusterXml(
      xml::Serialize(doc.value()), Origin::kNetwork);
  EXPECT_TRUE(report.status().IsPermissionDenied());
}

TEST_F(PlayerFixture, RunawayScriptStoppedByStepBudget) {
  disc::InteractiveCluster cluster = world_->DemoCluster();
  cluster.tracks[1].manifest.scripts[0].source = "while (true) { }";
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(cluster, authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  PlayerConfig config = world_->MakePlayerConfig();
  config.script_limits.max_steps = 50000;
  InteractiveApplicationEngine engine(std::move(config));
  auto report = engine.LaunchClusterXml(
      xml::Serialize(doc.value()), Origin::kNetwork);
  EXPECT_TRUE(report.status().IsResourceExhausted());
}

TEST_F(PlayerFixture, StorageQuotaEnforcedThroughHostApi) {
  disc::InteractiveCluster cluster = world_->DemoCluster();
  cluster.tracks[1].manifest.scripts[0].source =
      "function onLoad() {\n"
      "  var big = 'xxxxxxxxxxxxxxxx';\n"
      "  var i;\n"
      "  for (i = 0; i < 8; i++) { big = big + big; }\n"  // 4 KiB
      "  for (i = 0; i < 40; i++) { storage.write('scores/f' + i, big); }\n"
      "}";
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(cluster, authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  PlayerConfig config = world_->MakePlayerConfig();
  config.storage_quota = 16 * 1024;
  InteractiveApplicationEngine engine(std::move(config));
  auto report = engine.LaunchClusterXml(
      xml::Serialize(doc.value()), Origin::kNetwork);
  EXPECT_TRUE(report.status().IsResourceExhausted());
}

// ------------------------------------------------------------- XKMS

TEST_F(PlayerFixture, XkmsValidationAcceptsRegisteredSigner) {
  xkms::Xkmsd responder{xkms::XkmsdOptions{}};
  std::string fingerprint =
      pki::KeyFingerprint(world_->studio_key.public_key);
  ASSERT_TRUE(responder
                  .SeedBinding({fingerprint, world_->studio_key.public_key,
                                {"Signature"}, xkms::KeyStatus::kValid})
                  .ok());
  xkms::XkmsClient client(xkms::MakeServerTransport(&responder));

  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(),
                                authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  PlayerConfig config = world_->MakePlayerConfig();
  config.xkms = &client;
  InteractiveApplicationEngine engine(std::move(config));
  auto report = engine.LaunchClusterXml(
      xml::Serialize(doc.value()), Origin::kNetwork);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->xkms_validated);
}

TEST_F(PlayerFixture, XkmsRevocationBlocksOtherwiseValidSignature) {
  // The §3.1 key-management scenario: the certificate is still time-valid,
  // but the trust server has revoked the key binding.
  xkms::Xkmsd responder{xkms::XkmsdOptions{}};
  std::string fingerprint =
      pki::KeyFingerprint(world_->studio_key.public_key);
  ASSERT_TRUE(responder
                  .SeedBinding({fingerprint, world_->studio_key.public_key,
                                {"Signature"}, xkms::KeyStatus::kValid})
                  .ok());
  xkms::XkmsClient client(xkms::MakeServerTransport(&responder));
  ASSERT_TRUE(client.Revoke(fingerprint).ok());

  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(),
                                authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  PlayerConfig config = world_->MakePlayerConfig();
  config.xkms = &client;
  InteractiveApplicationEngine engine(std::move(config));
  auto report = engine.LaunchClusterXml(
      xml::Serialize(doc.value()), Origin::kNetwork);
  EXPECT_TRUE(report.status().IsVerificationFailed());
}

TEST_F(PlayerFixture, XkmsUnregisteredSignerRejected) {
  xkms::Xkmsd responder{xkms::XkmsdOptions{}};  // nothing registered
  xkms::XkmsClient client(xkms::MakeServerTransport(&responder));
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(),
                                authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  PlayerConfig config = world_->MakePlayerConfig();
  config.xkms = &client;
  InteractiveApplicationEngine engine(std::move(config));
  auto report = engine.LaunchClusterXml(
      xml::Serialize(doc.value()), Origin::kNetwork);
  EXPECT_TRUE(report.status().IsVerificationFailed());
}

}  // namespace
}  // namespace player
}  // namespace discsec
