#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "tests/test_world.h"
#include "xml/serializer.h"
#include "xmldsig/signer.h"
#include "xrml/license.h"
#include "xrml/rights_manager.h"

namespace discsec {
namespace xrml {
namespace {

using testing_world::kNow;
using testing_world::kYear;
using testing_world::World;

class XrmlFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new World();
    trust_ = new pki::CertStore();
    ASSERT_TRUE(trust_->AddTrustedRoot(world_->root_cert).ok());
  }

  License DemoLicense() {
    License license;
    license.license_id = "lic-1";
    license.issuer = "CN=Acme Studios Signing";
    Grant play;
    play.key_holder = "*";
    play.right = Right::kPlay;
    play.resource = "track-movie";
    Grant execute;
    execute.key_holder = "player-device";
    execute.right = Right::kExecute;
    execute.resource = "quiz";
    execute.conditions.not_before = kNow - 1000;
    execute.conditions.not_after = kNow + kYear;
    execute.conditions.territories = {"EU", "US"};
    Grant copy_limited;
    copy_limited.key_holder = "*";
    copy_limited.right = Right::kCopy;
    copy_limited.resource = "quiz";
    copy_limited.conditions.exercise_limit = 2;
    license.grants = {play, execute, copy_limited};
    return license;
  }

  ExerciseContext Context() {
    ExerciseContext context;
    context.principal = "player-device";
    context.now = kNow;
    context.territory = "EU";
    return context;
  }

  static World* world_;
  static pki::CertStore* trust_;
};

World* XrmlFixture::world_ = nullptr;
pki::CertStore* XrmlFixture::trust_ = nullptr;

// --------------------------------------------------------- license codec

TEST_F(XrmlFixture, RightNamesRoundTrip) {
  for (Right r : {Right::kPlay, Right::kExecute, Right::kCopy,
                  Right::kExtract}) {
    auto parsed = ParseRight(RightName(r));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), r);
  }
  EXPECT_FALSE(ParseRight("teleport").ok());
}

TEST_F(XrmlFixture, XmlRoundTrip) {
  License license = DemoLicense();
  auto parsed = License::FromXmlString(license.ToXmlString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->license_id, "lic-1");
  EXPECT_EQ(parsed->issuer, "CN=Acme Studios Signing");
  ASSERT_EQ(parsed->grants.size(), 3u);
  EXPECT_EQ(parsed->grants[0].right, Right::kPlay);
  EXPECT_EQ(parsed->grants[1].conditions.territories.size(), 2u);
  EXPECT_EQ(*parsed->grants[1].conditions.not_after, kNow + kYear);
  EXPECT_EQ(*parsed->grants[2].conditions.exercise_limit, 2u);
}

TEST_F(XrmlFixture, RejectsMalformedLicenses) {
  EXPECT_FALSE(License::FromXmlString("<other/>").ok());
  EXPECT_FALSE(License::FromXmlString("<license/>").ok());  // no id
  EXPECT_FALSE(License::FromXmlString(
                   "<license licenseId=\"x\"><issuer>i</issuer>"
                   "<grant><right>play</right></grant></license>")
                   .ok());  // incomplete grant
}

// --------------------------------------------------------- signed install

TEST_F(XrmlFixture, SignedLicenseInstalls) {
  auto signed_xml = IssueSignedLicense(
      DemoLicense(), world_->studio_key.private_key,
      {world_->studio_cert, world_->root_cert});
  ASSERT_TRUE(signed_xml.ok()) << signed_xml.status().ToString();
  RightsManager manager(trust_, kNow);
  ASSERT_TRUE(manager.InstallLicense(signed_xml.value()).ok());
  EXPECT_EQ(manager.LicenseCount(), 1u);
}

TEST_F(XrmlFixture, TamperedLicenseRejected) {
  auto signed_xml = IssueSignedLicense(
      DemoLicense(), world_->studio_key.private_key,
      {world_->studio_cert, world_->root_cert});
  ASSERT_TRUE(signed_xml.ok());
  std::string tampered = signed_xml.value();
  // Upgrade the copy limit from 2 to 9.
  size_t pos = tampered.find("count=\"2\"");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 9, "count=\"9\"");
  RightsManager manager(trust_, kNow);
  EXPECT_TRUE(manager.InstallLicense(tampered).IsVerificationFailed());
  EXPECT_EQ(manager.LicenseCount(), 0u);
}

TEST_F(XrmlFixture, UntrustedIssuerRejected) {
  Rng rng(999);
  auto rogue = crypto::RsaGenerateKeyPair(512, &rng).value();
  pki::CertificateInfo info;
  info.subject = "CN=Rogue Issuer";
  info.issuer = info.subject;
  info.serial = 1;
  info.not_before = kNow - 100;
  info.not_after = kNow + 100;
  info.is_ca = true;
  info.public_key = rogue.public_key;
  auto rogue_cert = pki::IssueCertificate(info, rogue.private_key).value();
  auto signed_xml =
      IssueSignedLicense(DemoLicense(), rogue.private_key, {rogue_cert});
  ASSERT_TRUE(signed_xml.ok());
  RightsManager manager(trust_, kNow);
  EXPECT_TRUE(
      manager.InstallLicense(signed_xml.value()).IsVerificationFailed());
}

// ------------------------------------------------- license-focused attacks

// A signature that covers only one grant (a sibling of whatever the
// attacker later mutates) must not admit the license: InstallLicense
// requires the signature to cover the license root. Pinned regression —
// before the signed-root policy, a fragment signature was accepted and the
// unsigned sibling grants were trusted.
TEST_F(XrmlFixture, SiblingCoverageSignatureRejected) {
  License license = DemoLicense();
  xml::Document doc = xml::Document::WithRoot(license.ToXml());
  xml::Element* first_grant = doc.root()->FirstChildElement("grant");
  ASSERT_NE(first_grant, nullptr);

  xmldsig::KeyInfoSpec key_info;
  key_info.certificate_chain = {world_->studio_cert, world_->root_cert};
  xmldsig::Signer signer(
      xmldsig::SigningKey::Rsa(world_->studio_key.private_key), key_info);
  ASSERT_TRUE(
      signer.SignDetached(&doc, first_grant, "grant-benign", doc.root())
          .ok());
  xml::SerializeOptions options;
  options.xml_declaration = false;
  std::string wire = xml::Serialize(doc, options);

  // The signature itself is valid over the first grant — the sibling
  // grants (including the exercise-limited copy grant an attacker would
  // inflate) are simply not covered.
  RightsManager manager(trust_, kNow);
  Status status = manager.InstallLicense(wire);
  EXPECT_TRUE(status.IsVerificationFailed()) << status.ToString();
  EXPECT_NE(status.message().find("possible signature relocation"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(manager.LicenseCount(), 0u);

  // And a mutated sibling rides in unnoticed by the signature layer —
  // which is exactly why the coverage policy has to fire.
  size_t pos = wire.find("count=\"2\"");
  ASSERT_NE(pos, std::string::npos);
  wire.replace(pos, 9, "count=\"9\"");
  EXPECT_TRUE(manager.InstallLicense(wire).IsVerificationFailed());
  EXPECT_EQ(manager.LicenseCount(), 0u);
}

// A license body carrying duplicate Ids must be rejected even when its
// enveloped signature verifies: duplicate declarations are the ambiguity
// every Id-based wrapping attack needs. Pinned regression — the decoys are
// present *before* signing, so the signature is honest and only the
// duplicate-Id defense stands between the document and the store.
TEST_F(XrmlFixture, DuplicateIdLicenseBodyRejected) {
  License license = DemoLicense();
  xml::Document doc = xml::Document::WithRoot(license.ToXml());
  doc.root()->AppendElement("data")->SetAttribute("Id", "dup-anchor");
  doc.root()->AppendElement("data")->SetAttribute("Id", "dup-anchor");

  xmldsig::KeyInfoSpec key_info;
  key_info.certificate_chain = {world_->studio_cert, world_->root_cert};
  xmldsig::Signer signer(
      xmldsig::SigningKey::Rsa(world_->studio_key.private_key), key_info);
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  xml::SerializeOptions options;
  options.xml_declaration = false;

  RightsManager manager(trust_, kNow);
  Status status = manager.InstallLicense(xml::Serialize(doc, options));
  EXPECT_TRUE(status.IsVerificationFailed()) << status.ToString();
  EXPECT_NE(status.message().find("duplicate Id"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(manager.LicenseCount(), 0u);
}

// --------------------------------------------------------- evaluation

TEST_F(XrmlFixture, GrantsEvaluate) {
  RightsManager manager(trust_, kNow);
  ASSERT_TRUE(manager.InstallUnsigned(DemoLicense()).ok());
  ExerciseContext context = Context();
  // Wildcard play on the movie track, any principal.
  EXPECT_TRUE(manager.IsPermitted(Right::kPlay, "track-movie", context));
  ExerciseContext other = context;
  other.principal = "some-other-device";
  EXPECT_TRUE(manager.IsPermitted(Right::kPlay, "track-movie", other));
  // Execute is principal-bound.
  EXPECT_TRUE(manager.IsPermitted(Right::kExecute, "quiz", context));
  EXPECT_FALSE(manager.IsPermitted(Right::kExecute, "quiz", other));
  // No extract grant anywhere.
  EXPECT_FALSE(manager.IsPermitted(Right::kExtract, "quiz", context));
  // Unknown resource.
  EXPECT_FALSE(manager.IsPermitted(Right::kPlay, "other-track", context));
}

TEST_F(XrmlFixture, ValidityWindowEnforced) {
  RightsManager manager(trust_, kNow);
  ASSERT_TRUE(manager.InstallUnsigned(DemoLicense()).ok());
  ExerciseContext context = Context();
  context.now = kNow + 2 * kYear;  // past notAfter
  EXPECT_FALSE(manager.IsPermitted(Right::kExecute, "quiz", context));
  context.now = kNow - kYear;  // before notBefore
  EXPECT_FALSE(manager.IsPermitted(Right::kExecute, "quiz", context));
}

TEST_F(XrmlFixture, TerritoryEnforced) {
  RightsManager manager(trust_, kNow);
  ASSERT_TRUE(manager.InstallUnsigned(DemoLicense()).ok());
  ExerciseContext context = Context();
  context.territory = "JP";  // not in {EU, US}
  EXPECT_FALSE(manager.IsPermitted(Right::kExecute, "quiz", context));
  context.territory = "US";
  EXPECT_TRUE(manager.IsPermitted(Right::kExecute, "quiz", context));
}

TEST_F(XrmlFixture, ExerciseLimitCountsDown) {
  RightsManager manager(trust_, kNow);
  ASSERT_TRUE(manager.InstallUnsigned(DemoLicense()).ok());
  ExerciseContext context = Context();
  EXPECT_TRUE(manager.Exercise(Right::kCopy, "quiz", context).ok());
  EXPECT_EQ(manager.UsesRecorded("lic-1", 2), 1u);
  EXPECT_TRUE(manager.Exercise(Right::kCopy, "quiz", context).ok());
  // Third copy exceeds the limit.
  EXPECT_TRUE(
      manager.Exercise(Right::kCopy, "quiz", context).IsPermissionDenied());
  EXPECT_EQ(manager.UsesRecorded("lic-1", 2), 2u);
  // Unlimited grants do not count.
  EXPECT_TRUE(manager.Exercise(Right::kPlay, "track-movie", context).ok());
  EXPECT_TRUE(manager.Exercise(Right::kPlay, "track-movie", context).ok());
}

TEST_F(XrmlFixture, WildcardResourceGrant) {
  License license;
  license.license_id = "lic-all";
  license.issuer = "x";
  Grant any;
  any.key_holder = "*";
  any.right = Right::kPlay;
  any.resource = "*";
  license.grants = {any};
  RightsManager manager(trust_, kNow);
  ASSERT_TRUE(manager.InstallUnsigned(license).ok());
  EXPECT_TRUE(manager.IsPermitted(Right::kPlay, "anything", Context()));
  EXPECT_FALSE(manager.IsPermitted(Right::kCopy, "anything", Context()));
}

// ---------------------------------------------------------- edge semantics

// Validity-window boundaries are inclusive on both ends: the instant
// now == notBefore and the instant now == notAfter are inside the window,
// one second either side is outside.
TEST_F(XrmlFixture, ValidityWindowBoundaryInstants) {
  License license;
  license.license_id = "lic-window";
  license.issuer = "x";
  Grant g;
  g.key_holder = "*";
  g.right = Right::kPlay;
  g.resource = "track-movie";
  g.conditions.not_before = kNow;
  g.conditions.not_after = kNow + 100;
  license.grants = {g};
  RightsManager manager(trust_, kNow);
  ASSERT_TRUE(manager.InstallUnsigned(license).ok());

  ExerciseContext context = Context();
  context.now = kNow;  // == notBefore
  EXPECT_TRUE(manager.IsPermitted(Right::kPlay, "track-movie", context));
  context.now = kNow - 1;
  EXPECT_FALSE(manager.IsPermitted(Right::kPlay, "track-movie", context));
  context.now = kNow + 100;  // == notAfter
  EXPECT_TRUE(manager.IsPermitted(Right::kPlay, "track-movie", context));
  context.now = kNow + 101;
  EXPECT_FALSE(manager.IsPermitted(Right::kPlay, "track-movie", context));
  // A point window (notBefore == notAfter) is exercisable at exactly that
  // instant; an inverted window never is.
  License point = license;
  point.license_id = "lic-point";
  point.grants[0].resource = "track-point";
  point.grants[0].conditions.not_after = kNow;
  ASSERT_TRUE(manager.InstallUnsigned(point).ok());
  context.now = kNow;
  EXPECT_TRUE(manager.IsPermitted(Right::kPlay, "track-point", context));
  License inverted = license;
  inverted.license_id = "lic-inverted";
  inverted.grants[0].resource = "track-inverted";
  inverted.grants[0].conditions.not_before = kNow + 100;
  inverted.grants[0].conditions.not_after = kNow;
  ASSERT_TRUE(manager.InstallUnsigned(inverted).ok());
  for (int64_t t : {kNow - 1, kNow, kNow + 50, kNow + 100, kNow + 101}) {
    context.now = t;
    EXPECT_FALSE(manager.IsPermitted(Right::kPlay, "track-inverted", context));
  }
}

// Racing exercisers on eight threads must consume exactly `limit` uses
// of a nearly-exhausted grant — no lost updates, no over-consumption.
TEST_F(XrmlFixture, ExerciseLimitExactUnderConcurrency) {
  constexpr uint32_t kLimit = 5;
  License license;
  license.license_id = "lic-race";
  license.issuer = "x";
  Grant g;
  g.key_holder = "*";
  g.right = Right::kCopy;
  g.resource = "quiz";
  g.conditions.exercise_limit = kLimit;
  license.grants = {g};
  RightsManager manager(trust_, kNow);
  ASSERT_TRUE(manager.InstallUnsigned(license).ok());

  std::atomic<uint32_t> successes{0};
  std::vector<std::thread> racers;
  for (size_t t = 0; t < 8; ++t) {
    racers.emplace_back([&, t] {
      ExerciseContext context;
      context.principal = "racer-" + std::to_string(t);
      context.now = kNow;
      for (int i = 0; i < 5; ++i) {
        if (manager.Exercise(Right::kCopy, "quiz", context).ok()) {
          successes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& racer : racers) racer.join();
  EXPECT_EQ(successes.load(), kLimit);
  EXPECT_EQ(manager.UsesRecorded("lic-race", 0), kLimit);
  EXPECT_FALSE(manager.IsPermitted(Right::kCopy, "quiz", Context()));
}

// InstallLicense (the signed path) and InstallUnsigned must admit the same
// license bodies and answer queries identically afterwards.
TEST_F(XrmlFixture, InstallUnsignedAndInstallLicenseAgree) {
  auto signed_xml = IssueSignedLicense(
      DemoLicense(), world_->studio_key.private_key,
      {world_->studio_cert, world_->root_cert});
  ASSERT_TRUE(signed_xml.ok());
  RightsManager via_signed(trust_, kNow);
  RightsManager via_unsigned(trust_, kNow);
  ASSERT_TRUE(via_signed.InstallLicense(signed_xml.value()).ok());
  ASSERT_TRUE(via_unsigned.InstallUnsigned(DemoLicense()).ok());
  EXPECT_EQ(via_signed.LicenseCount(), via_unsigned.LicenseCount());

  for (Right right : {Right::kPlay, Right::kExecute, Right::kCopy,
                      Right::kExtract}) {
    for (const char* resource : {"track-movie", "quiz", "other"}) {
      for (const char* principal : {"player-device", "stranger"}) {
        for (const char* territory : {"EU", "JP"}) {
          ExerciseContext context;
          context.principal = principal;
          context.territory = territory;
          context.now = kNow;
          EXPECT_EQ(via_signed.IsPermitted(right, resource, context),
                    via_unsigned.IsPermitted(right, resource, context))
              << RightName(right) << " " << resource << " " << principal
              << " " << territory;
        }
      }
    }
  }
}

// Pinned regression: an id-less license must be refused by *both* install
// paths. The signed path used to admit what InstallUnsigned rejected,
// creating licenses whose exercise counters all aliased the empty key.
TEST_F(XrmlFixture, InstallParityForEmptyLicenseId) {
  License license = DemoLicense();
  license.license_id.clear();
  RightsManager manager(trust_, kNow);
  EXPECT_TRUE(manager.InstallUnsigned(license).IsInvalidArgument());

  auto signed_xml = IssueSignedLicense(
      license, world_->studio_key.private_key,
      {world_->studio_cert, world_->root_cert});
  ASSERT_TRUE(signed_xml.ok());
  Status status = manager.InstallLicense(signed_xml.value());
  EXPECT_FALSE(status.ok()) << "id-less license admitted via signed path";
  EXPECT_EQ(manager.LicenseCount(), 0u);
}

// --------------------------------------------------------- player wiring

TEST_F(XrmlFixture, PlayerRequiresExecuteRight) {
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(),
                                authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  std::string wire = xml::Serialize(doc.value());

  // No rights manager: launches as before.
  {
    player::InteractiveApplicationEngine engine(world_->MakePlayerConfig());
    EXPECT_TRUE(
        engine.LaunchClusterXml(wire, player::Origin::kNetwork).ok());
  }
  // Rights manager without a license: execution denied.
  {
    RightsManager manager(trust_, kNow);
    player::PlayerConfig config = world_->MakePlayerConfig();
    config.rights = &manager;
    player::InteractiveApplicationEngine engine(std::move(config));
    auto report = engine.LaunchClusterXml(wire, player::Origin::kNetwork);
    EXPECT_TRUE(report.status().IsPermissionDenied());
  }
  // With an installed execute grant: launches, right is consumed.
  {
    RightsManager manager(trust_, kNow);
    ASSERT_TRUE(manager.InstallUnsigned(DemoLicense()).ok());
    player::PlayerConfig config = world_->MakePlayerConfig();
    config.rights = &manager;
    player::InteractiveApplicationEngine engine(std::move(config));
    auto report = engine.LaunchClusterXml(wire, player::Origin::kNetwork);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->rights_exercised);
  }
}

TEST_F(XrmlFixture, PlayerOutsideTerritoryDenied) {
  authoring::Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(),
                                authoring::SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  RightsManager manager(trust_, kNow);
  ASSERT_TRUE(manager.InstallUnsigned(DemoLicense()).ok());
  player::PlayerConfig config = world_->MakePlayerConfig();
  config.rights = &manager;
  config.territory = "JP";
  player::InteractiveApplicationEngine engine(std::move(config));
  auto report = engine.LaunchClusterXml(xml::Serialize(doc.value()),
                                        player::Origin::kNetwork);
  EXPECT_TRUE(report.status().IsPermissionDenied());
}

}  // namespace
}  // namespace xrml
}  // namespace discsec
