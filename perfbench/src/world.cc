#include "perfbench/src/world.h"

#include "pki/key_codec.h"

namespace perfbench {

namespace {

/// Distinct from the test world's root subject: a player trusting both
/// anchors looks roots up by subject, so the two must not collide.
constexpr char kRootSubject[] = "CN=Perfbench Player Root CA";

}  // namespace

World::World(uint64_t seed)
    : rng(seed),
      root_key(crypto::RsaGenerateKeyPair(1024, &rng).value()),
      studio_key(crypto::RsaGenerateKeyPair(1024, &rng).value()),
      server_key(crypto::RsaGenerateKeyPair(1024, &rng).value()),
      root_cert(Issue(kRootSubject, 1, root_key.public_key, true)),
      studio_cert(Issue("CN=Acme Studios Signing", 2, studio_key.public_key,
                        false)),
      server_cert(Issue("CN=cdn.acme.example", 3, server_key.public_key,
                        false)),
      content_key(rng.NextBytes(16)) {}

pki::Certificate World::Issue(const std::string& subject, uint64_t serial,
                              const crypto::RsaPublicKey& key, bool is_ca) {
  pki::CertificateInfo info;
  info.subject = subject;
  info.issuer = kRootSubject;
  info.serial = serial;
  info.not_before = kNow - kYear;
  info.not_after = kNow + (is_ca ? 20 : 2) * kYear;
  info.is_ca = is_ca;
  info.public_key = key;
  return pki::IssueCertificate(info, root_key.private_key).value();
}

std::string World::StudioKeyName() const {
  return pki::KeyFingerprint(studio_key.public_key);
}

access::PolicyDecisionPoint World::MakePdp() const {
  access::PolicyDecisionPoint pdp;
  access::Policy policy;
  policy.id = "platform-policy";
  policy.target.subjects = {"CN=Acme*", "disc:*"};
  access::Rule storage;
  storage.id = "storage-scores";
  storage.effect = access::Decision::kPermit;
  storage.target.resources = {"localstorage"};
  storage.conditions.push_back(
      {"path", access::Condition::Op::kPrefix, "scores/"});
  access::Rule graphics;
  graphics.id = "graphics";
  graphics.effect = access::Decision::kPermit;
  graphics.target.resources = {"graphics"};
  policy.rules = {storage, graphics};
  pdp.AddPolicy(std::move(policy));
  return pdp;
}

player::PlayerConfig World::MakePlayerConfig() const {
  player::PlayerConfig config;
  (void)config.trust.AddTrustedRoot(root_cert);
  config.pdp = MakePdp();
  config.keys.AddKey("disc-content-key", content_key);
  config.now = kNow;
  return config;
}

authoring::Author World::MakeAuthor() const {
  xmldsig::KeyInfoSpec key_info;
  key_info.certificate_chain = {studio_cert, root_cert};
  key_info.key_name = StudioKeyName();
  return authoring::Author(xmldsig::SigningKey::Rsa(studio_key.private_key),
                           key_info);
}

xmlenc::EncryptionSpec World::MakeEncryptionSpec() const {
  xmlenc::EncryptionSpec spec;
  spec.content_key = content_key;
  spec.key_mode = xmlenc::KeyMode::kDirectReference;
  spec.key_name = "disc-content-key";
  return spec;
}

authoring::Author::ProtectOptions ProtectFor(const World& world,
                                             const EncryptArchetype& target) {
  authoring::Author::ProtectOptions protect;
  protect.encrypt_ids = {target.id};
  protect.encryption = world.MakeEncryptionSpec();
  protect.sign_av_essence = target.sign_av_essence;
  return protect;
}

disc::InteractiveCluster DemoCluster() {
  disc::InteractiveCluster cluster;
  cluster.id = "feature-disc";
  cluster.title = "Feature Film + Quiz Game";

  disc::ClipInfo clip;
  clip.id = "clip-main";
  clip.ts_path = std::string(disc::kStreamDir) + "00001.m2ts";
  clip.duration_ms = 2000;
  cluster.clips.push_back(clip);

  disc::Playlist playlist;
  playlist.id = "pl-main";
  playlist.items.push_back({"clip-main", 0, 2000});
  cluster.playlists.push_back(playlist);

  disc::Track movie;
  movie.id = "track-movie";
  movie.kind = disc::Track::Kind::kAudioVideo;
  movie.playlist_id = "pl-main";
  cluster.tracks.push_back(movie);

  disc::Track app;
  app.id = "track-app";
  app.kind = disc::Track::Kind::kApplication;
  app.manifest.id = "quiz";
  app.manifest.markups.push_back(
      {"menu", "layout",
       "<smil><head><layout>"
       "<root-layout width=\"1920\" height=\"1080\"/>"
       "<region id=\"title\" left=\"60\" top=\"40\" width=\"800\" "
       "height=\"120\"/>"
       "<region id=\"board\" left=\"60\" top=\"200\" width=\"1800\" "
       "height=\"800\"/>"
       "</layout></head>"
       "<body><par dur=\"indefinite\">"
       "<img region=\"title\" src=\"title.png\"/>"
       "<text region=\"board\" src=\"questions.txt\"/>"
       "</par></body></smil>"});
  app.manifest.scripts.push_back(
      {"main",
       "var round = 0;\n"
       "function onLoad() {\n"
       "  ui.drawText('title', 'Quiz Night!');\n"
       "  scores.submit('alice', 4200);\n"
       "  scores.submit('bob', 3100);\n"
       "  print('best score: ' + scores.best());\n"
       "  return scores.best();\n"
       "}\n"});
  app.manifest.permission_request_xml =
      "<permissionrequestfile appid=\"0x4501\" orgid=\"acme.example\">"
      "<localstorage path=\"scores/\" access=\"readwrite\"/>"
      "<graphics plane=\"true\"/>"
      "</permissionrequestfile>";
  cluster.tracks.push_back(app);
  return cluster;
}

disc::InteractiveCluster ClusterWithPayload(size_t payload_bytes,
                                            uint64_t salt) {
  disc::InteractiveCluster cluster = DemoCluster();
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  Rng rng(salt);
  std::string source = "var data = \"";
  source.reserve(payload_bytes + 16);
  while (source.size() < payload_bytes + 12) {
    source.push_back(kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]);
  }
  source += "\";";
  cluster.tracks[1].manifest.scripts.push_back({"payload", source});
  return cluster;
}

disc::InteractiveCluster DenseCluster() {
  constexpr size_t scripts = 400;
  constexpr size_t submarkups = 40;
  disc::InteractiveCluster cluster = DemoCluster();
  disc::ApplicationManifest& manifest = cluster.tracks[1].manifest;
  for (size_t i = 0; i < scripts; ++i) {
    const std::string n = std::to_string(i);
    manifest.scripts.push_back({"s" + n, "var v" + n + " = " + n + " * 2;"});
  }
  for (size_t i = 0; i < submarkups; ++i) {
    const std::string n = std::to_string(i);
    manifest.markups.push_back(
        {"cue" + n, "timing",
         "<seq><text region=\"board\" src=\"q" + n + ".txt\" dur=\"5s\"/>"
         "</seq>"});
  }
  return cluster;
}

std::vector<size_t> ShuffledBlocks(Rng* rng, const std::vector<size_t>& block,
                                   size_t length) {
  std::vector<size_t> plan;
  plan.reserve(length + block.size());
  while (plan.size() < length) {
    std::vector<size_t> shuffled = block;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng->NextBelow(i)]);
    }
    plan.insert(plan.end(), shuffled.begin(), shuffled.end());
  }
  plan.resize(length);
  return plan;
}

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

Status CheckDemoOutput(const player::LaunchReport& report) {
  if (report.console.size() != 1 ||
      report.console[0] != "best score: 4200") {
    return Status::Corruption("unexpected script console output");
  }
  if (report.render_ops.size() != 1 ||
      report.render_ops[0].region != "title" ||
      report.render_ops[0].kind != "text" ||
      report.render_ops[0].payload != "Quiz Night!") {
    return Status::Corruption("unexpected render ops");
  }
  return Status::OK();
}

}  // namespace perfbench
