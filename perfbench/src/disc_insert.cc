// disc-insert: a player inserting pre-mastered, element-dense discs.
// Closed loop, one client, one long-lived engine. Each op is PlayDisc on
// one of 11 images (the 7 §5 signing levels and the 4 §6 encryption
// targets, AV-essence-signed included) mastered from the demo cluster with
// ~400 small scripts and ~40 SubMarkups; an xrml::RightsManager holding
// ~10^3 licenses gates execution and playback. One op in ten is instead an
// attack-corpus document launched with network origin, which must be
// rejected with its expected code.

#include <memory>

#include "perfbench/src/workload.h"
#include "tests/attacks/attack_corpus.h"
#include "xrml/rights_manager.h"

namespace perfbench {

namespace {

constexpr size_t kLicenses = 1000;
constexpr size_t kPlanLength = 4000;  // whole blocks of ten

struct PlanEntry {
  bool attack = false;
  size_t index = 0;  ///< archetype image or attack case
};

class DiscInsert : public ClosedLoopWorkload {
 public:
  Status Setup(uint64_t seed) override {
    world_ = std::make_unique<World>(seed);
    // The attack corpus is generated against the test world's signer; the
    // player trusts that root too, so every attack reaches the defense it
    // targets instead of failing on an unknown chain.
    attack_world_ = std::make_unique<testing_world::World>();
    attacks_ = attacks::BuildAttackCorpus(*attack_world_);
    if (attacks_.empty()) return Status::InvalidArgument("empty attack corpus");

    config_ = world_->MakePlayerConfig();
    DISCSEC_RETURN_IF_ERROR(
        config_.trust.AddTrustedRoot(attack_world_->root_cert));

    // ~10^3 licenses; the one granting this player execute over the quiz
    // and play over the movie sits at a seeded position among decoys.
    rights_ = std::make_unique<xrml::RightsManager>(&rights_trust_, kNow);
    Rng rng(Mix(seed, 1));
    const size_t granting = rng.NextBelow(kLicenses);
    for (size_t i = 0; i < kLicenses; ++i) {
      xrml::License license;
      license.license_id = "lic-" + std::to_string(i);
      license.issuer = "CN=Acme Rights";
      if (i == granting) {
        license.grants.push_back(
            {config_.device_id, xrml::Right::kExecute, "quiz", {}});
        license.grants.push_back(
            {config_.device_id, xrml::Right::kPlay, "track-movie", {}});
      } else {
        license.grants.push_back(
            {"*", xrml::Right::kPlay, "title-" + std::to_string(i), {}});
        license.grants.push_back(
            {"*", xrml::Right::kExecute, "app-" + std::to_string(i), {}});
      }
      DISCSEC_RETURN_IF_ERROR(rights_->InstallUnsigned(license));
    }
    config_.rights = rights_.get();
    engine_ = std::make_unique<player::InteractiveApplicationEngine>(config_);
    storage_ = std::make_unique<disc::LocalStorage>(config_.storage_quota);

    // The 11 archetype images, mastered like the fleet simulator does.
    const disc::InteractiveCluster cluster = DenseCluster();
    authoring::Author author = world_->MakeAuthor();
    for (const SignArchetype& level : kSignArchetypes) {
      DISCSEC_ASSIGN_OR_RETURN(
          xml::Document doc,
          author.BuildSigned(cluster, level.level, "track-app", level.part));
      DISCSEC_ASSIGN_OR_RETURN(disc::DiscImage image,
                               author.Master(cluster, doc));
      images_.push_back(std::move(image));
    }
    Rng master_rng(Mix(seed, 2));
    for (const EncryptArchetype& target : kEncryptArchetypes) {
      DISCSEC_ASSIGN_OR_RETURN(
          disc::DiscImage image,
          author.MasterProtected(cluster, ProtectFor(*world_, target),
                                 &master_rng));
      images_.push_back(std::move(image));
    }
    cluster_bytes_ = images_[0].GetText(disc::kClusterPath)->size();

    // Every ten ops hold one attack at a seeded slot; discs cycle through
    // shuffled rounds of the 11 archetypes, attacks through shuffled
    // rounds of the corpus.
    Rng plan_rng(Mix(seed, 3));
    const std::vector<size_t> discs =
        ShuffledBlocks(&plan_rng, Iota(images_.size()), kPlanLength);
    const std::vector<size_t> attacks =
        ShuffledBlocks(&plan_rng, Iota(attacks_.size()), kPlanLength / 10);
    plan_.resize(kPlanLength);
    size_t next_disc = 0;
    for (size_t block = 0; block < kPlanLength / 10; ++block) {
      const size_t attack_slot = plan_rng.NextBelow(10);
      for (size_t slot = 0; slot < 10; ++slot) {
        PlanEntry& entry = plan_[block * 10 + slot];
        entry.attack = slot == attack_slot;
        entry.index = entry.attack ? attacks[block] : discs[next_disc++];
      }
    }
    return Status::OK();
  }

  /// Every corpus document, not only those the run drew, is rejected with
  /// its expected code by a fresh player.
  Status CheckAfterRun() override {
    player::InteractiveApplicationEngine engine(config_);
    for (const attacks::AttackCase& attack : attacks_) {
      DISCSEC_RETURN_IF_ERROR(CheckRejected(
          attack,
          engine.LaunchClusterXml(attack.xml, player::Origin::kNetwork)
              .status()));
    }
    return Status::OK();
  }

  uint64_t WarmupOps() const override { return 12; }
  uint64_t EpochOps() const override { return 110; }

  Status RunOp(uint64_t i, Verdict* verdict) override {
    const PlanEntry& entry = plan_[i % plan_.size()];
    if (entry.attack) {
      const attacks::AttackCase& attack = attacks_[entry.index];
      Status status =
          engine_->LaunchClusterXml(attack.xml, player::Origin::kNetwork)
              .status();
      if (verdict != nullptr) verdict->status = status;
      return CheckRejected(attack, status);
    }
    DiscOutcome outcome = FromEngine(engine_->PlayDisc(images_[entry.index]));
    if (verdict != nullptr) {
      verdict->status = outcome.status;
      verdict->summary = Summary(outcome);
    }
    return CheckPlayed(outcome);
  }

  void ReplayOp(uint64_t i, Ledger* ledger, OpCounts* counts,
                Verdict* verdict) override {
    const PlanEntry& entry = plan_[i % plan_.size()];
    if (entry.attack) {
      player::LaunchReport report;
      verdict->status = DecomposedLaunch(
          config_, storage_.get(), attacks_[entry.index].xml,
          player::Origin::kNetwork, nullptr, ledger, &report, counts);
      return;
    }
    DiscOutcome outcome = DecomposedPlayDisc(config_, storage_.get(),
                                             images_[entry.index], ledger,
                                             counts);
    verdict->status = outcome.status;
    verdict->summary = Summary(outcome);
  }

  bool LedgerChecked() const override { return true; }
  const World& world() const override { return *world_; }
  size_t CalibrationBytes() const override { return cluster_bytes_; }

 private:
  static Status CheckRejected(const attacks::AttackCase& attack,
                              const Status& status) {
    if (status.ok()) {
      return Status::Corruption("attack '" + attack.name + "' ACCEPTED");
    }
    if (status.code() != attack.expected_code ||
        status.message().find(attack.expected_substring) ==
            std::string::npos) {
      return Status::Corruption("attack '" + attack.name +
                                "' not rejected by its defense: " +
                                status.ToString());
    }
    return Status::OK();
  }

  static Status CheckPlayed(const DiscOutcome& outcome) {
    DISCSEC_RETURN_IF_ERROR(outcome.status);
    if (!outcome.app_launched) {
      return Status::Corruption("application did not launch");
    }
    if (outcome.quarantined != 0) {
      return Status::Corruption("a track was quarantined");
    }
    if (outcome.played.size() != 1 ||
        outcome.played[0].track_id != "track-movie" ||
        outcome.played[0].total_ms != 2000 ||
        outcome.played[0].segments.size() != 1) {
      return Status::Corruption("unexpected AV playback plans");
    }
    return CheckDemoOutput(outcome.app);
  }

  std::unique_ptr<World> world_;
  std::unique_ptr<testing_world::World> attack_world_;
  std::vector<attacks::AttackCase> attacks_;
  pki::CertStore rights_trust_;
  std::unique_ptr<xrml::RightsManager> rights_;
  player::PlayerConfig config_;
  std::unique_ptr<player::InteractiveApplicationEngine> engine_;
  /// The decomposed replay's own player storage (the engine keeps its own).
  std::unique_ptr<disc::LocalStorage> storage_;
  std::vector<disc::DiscImage> images_;
  size_t cluster_bytes_ = 0;
  std::vector<PlanEntry> plan_;
};

}  // namespace

std::unique_ptr<ClosedLoopWorkload> MakeDiscInsert() {
  return std::make_unique<DiscInsert>();
}

}  // namespace perfbench
