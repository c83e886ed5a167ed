#ifndef DISCSEC_PERFBENCH_WORLD_H_
#define DISCSEC_PERFBENCH_WORLD_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "access/policy.h"
#include "authoring/author.h"
#include "common/random.h"
#include "crypto/rsa.h"
#include "disc/content.h"
#include "pki/certificate.h"
#include "player/engine.h"
#include "xmlenc/encryptor.h"

namespace perfbench {

using namespace discsec;

inline constexpr int64_t kNow = 1120000000;  // mid-2005, like the paper
inline constexpr int64_t kYear = 365LL * 24 * 3600;

/// The workload's trust world, generated from the workload seed during
/// set-up: RSA-1024 root, studio and server keys (production key size),
/// their certificates, and the provisioned disc content key.
struct World {
  explicit World(uint64_t seed);

  Rng rng;
  crypto::RsaKeyPair root_key;
  crypto::RsaKeyPair studio_key;
  crypto::RsaKeyPair server_key;
  pki::Certificate root_cert;
  pki::Certificate studio_cert;
  pki::Certificate server_cert;
  Bytes content_key;

  /// The studio key's XKMS name (its fingerprint).
  std::string StudioKeyName() const;

  /// Platform policy: studio-signed and disc-resident apps may draw and use
  /// the scores/ storage area.
  access::PolicyDecisionPoint MakePdp() const;

  /// A player with the production defaults of PlayerConfig plus this
  /// world's trust anchor, policy and content key. No opt-in flag is set.
  player::PlayerConfig MakePlayerConfig() const;

  authoring::Author MakeAuthor() const;
  xmlenc::EncryptionSpec MakeEncryptionSpec() const;

 private:
  pki::Certificate Issue(const std::string& subject, uint64_t serial,
                         const crypto::RsaPublicKey& key, bool is_ca);
};

/// The 11 archetypes discs are mastered at: the 7 §5 signing levels (with
/// the script / SubMarkup the fragment levels name) and the 4 §6
/// encryption targets (manifest, Markup part, Code part, and the manifest
/// again with the AV essence signed by external references).
struct SignArchetype {
  authoring::SignLevel level;
  const char* part;
};
inline constexpr SignArchetype kSignArchetypes[] = {
    {authoring::SignLevel::kCluster, ""},
    {authoring::SignLevel::kTrack, ""},
    {authoring::SignLevel::kManifest, ""},
    {authoring::SignLevel::kMarkupPart, ""},
    {authoring::SignLevel::kCodePart, ""},
    {authoring::SignLevel::kScript, "main"},
    {authoring::SignLevel::kSubMarkup, "menu"},
};
struct EncryptArchetype {
  const char* id;
  bool sign_av_essence;
};
inline constexpr EncryptArchetype kEncryptArchetypes[] = {
    {"quiz", false}, {"quiz-markup", false}, {"quiz-code", false},
    {"quiz", true}};
inline constexpr size_t kArchetypes =
    std::size(kSignArchetypes) + std::size(kEncryptArchetypes);

/// Sign-then-encrypt options for one encryption archetype.
authoring::Author::ProtectOptions ProtectFor(const World& world,
                                             const EncryptArchetype& target);

/// The demo disc: one AV track (movie over one clip) and one application
/// track (a quiz game with SMIL layout, an onLoad script and a permission
/// request). Element ids follow InteractiveCluster::ToXml: manifest "quiz",
/// parts "quiz-markup" / "quiz-code".
disc::InteractiveCluster DemoCluster();

/// Demo cluster whose Code part carries one extra script with a string
/// literal of about `payload_bytes` random letters — text-dense.
disc::InteractiveCluster ClusterWithPayload(size_t payload_bytes,
                                            uint64_t salt);

/// Demo cluster with 400 extra one-line scripts and 40 extra timing
/// SubMarkups — element-dense, the menu/quiz shape.
disc::InteractiveCluster DenseCluster();

/// A seeded op plan of `length` entries made of repetitions of `block`,
/// each repetition shuffled: the mix is exact over every block, so seeds
/// change the order of inputs but not their proportions.
std::vector<size_t> ShuffledBlocks(Rng* rng, const std::vector<size_t>& block,
                                   size_t length);

/// 0, 1, ..., n-1.
std::vector<size_t> Iota(size_t n);

/// What the demo application's onLoad leaves behind when it ran with its
/// policy grants: one console line and one text render op.
Status CheckDemoOutput(const player::LaunchReport& report);

}  // namespace perfbench

#endif  // DISCSEC_PERFBENCH_WORLD_H_
