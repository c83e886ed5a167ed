// studio-master: the write side of the read-side layers. Closed loop, one
// client. Each op masters one disc of the dense demo cluster at one of the
// 11 archetypes — Author::BuildSigned + Master for the 7 §5 signing levels,
// Author::MasterProtected for the 4 §6 encryption targets — and publishes
// its cluster document. The first image of each archetype is played by a
// player after the run, outside the timed region.

#include <map>
#include <memory>

#include "net/server.h"
#include "perfbench/src/workload.h"

namespace perfbench {

namespace {

constexpr size_t kPlanLength = 4096;

class StudioMaster : public ClosedLoopWorkload {
 public:
  Status Setup(uint64_t seed) override {
    seed_ = seed;
    world_ = std::make_unique<World>(seed);
    author_ = std::make_unique<authoring::Author>(world_->MakeAuthor());
    cluster_ = DenseCluster();
    cluster_bytes_ = cluster_.ToXmlString().size();
    for (const EncryptArchetype& target : kEncryptArchetypes) {
      protect_.push_back(ProtectFor(*world_, target));
    }
    Rng plan_rng(Mix(seed, 3));
    plan_ = ShuffledBlocks(&plan_rng, Iota(kArchetypes), kPlanLength);
    return Status::OK();
  }

  uint64_t WarmupOps() const override { return 11; }
  uint64_t EpochOps() const override { return 110; }

  Status RunOp(uint64_t i, Verdict* verdict) override {
    Result<disc::DiscImage> image = Master(i, nullptr);
    if (verdict != nullptr) {
      verdict->status = image.status();
      if (image.ok()) verdict->summary = ImageSummary(image.value());
    }
    if (!image.ok()) return image.status();
    if (!image->Exists(disc::kClusterPath) || image->FileCount() < 2) {
      return Status::Corruption("mastered image lacks cluster or essence");
    }
    const size_t archetype = plan_[i % plan_.size()];
    if (first_images_.count(archetype) == 0) {
      first_images_.emplace(archetype, std::move(image).value());
    }
    return Status::OK();
  }

  void ReplayOp(uint64_t i, Ledger* ledger, OpCounts* counts,
                Verdict* verdict) override {
    Result<disc::DiscImage> image = Master(i, ledger);
    verdict->status = image.status();
    if (!image.ok()) return;
    verdict->summary = ImageSummary(image.value());
    counts->doc_bytes += image->GetText(disc::kClusterPath)->size();
  }

  /// Plays the first image of every archetype produced, with a default
  /// player trusting the studio's root.
  Status CheckAfterRun() override {
    player::InteractiveApplicationEngine engine(world_->MakePlayerConfig());
    for (const auto& [archetype, image] : first_images_) {
      DiscOutcome outcome = FromEngine(engine.PlayDisc(image));
      const std::string where = "archetype " + std::to_string(archetype);
      if (!outcome.status.ok()) {
        return outcome.status.WithContext(where);
      }
      if (!outcome.app_launched || outcome.played.size() != 1 ||
          outcome.quarantined != 0) {
        return Status::Corruption(where + ": mastered disc did not play");
      }
      DISCSEC_RETURN_IF_ERROR(
          CheckDemoOutput(outcome.app).WithContext(where));
    }
    return Status::OK();
  }

  bool LedgerChecked() const override { return false; }
  const World& world() const override { return *world_; }
  size_t CalibrationBytes() const override { return cluster_bytes_; }

 private:
  /// One op: sign or protect, master, publish. With a ledger, each authoring
  /// call is a layer scope; publishing is glue.
  Result<disc::DiscImage> Master(uint64_t i, Ledger* ledger) {
    const size_t archetype = plan_[i % plan_.size()];
    const std::string path =
        "/studio/archetype-" + std::to_string(archetype) + ".xml";
    const size_t signed_archetypes = std::size(kSignArchetypes);
    if (archetype < signed_archetypes) {
      const SignArchetype& level = kSignArchetypes[archetype];
      Result<xml::Document> doc = [&] {
        Ledger::Scope scope(ledger, Layer::kAuthoringSign);
        return author_->BuildSigned(cluster_, level.level, "track-app",
                                    level.part);
      }();
      if (!doc.ok()) return doc.status();
      Result<disc::DiscImage> image = [&] {
        Ledger::Scope scope(ledger, Layer::kAuthoringMaster);
        return author_->Master(cluster_, doc.value());
      }();
      if (!image.ok()) return image.status();
      DISCSEC_RETURN_IF_ERROR(author_->Publish(&server_, path, doc.value()));
      return image;
    }
    Rng rng(Mix(seed_, 2000000 + i));
    Result<disc::DiscImage> image = [&] {
      Ledger::Scope scope(ledger, Layer::kAuthoringProtect);
      return author_->MasterProtected(
          cluster_, protect_[archetype - signed_archetypes], &rng);
    }();
    if (!image.ok()) return image.status();
    DISCSEC_ASSIGN_OR_RETURN(std::string text,
                             image->GetText(disc::kClusterPath));
    server_.HostText(path, text);
    return image;
  }

  static std::string ImageSummary(const disc::DiscImage& image) {
    return std::to_string(image.FileCount()) + " files, " +
           std::to_string(image.TotalBytes()) + " bytes";
  }

  uint64_t seed_ = 0;
  std::unique_ptr<World> world_;
  std::unique_ptr<authoring::Author> author_;
  disc::InteractiveCluster cluster_;
  size_t cluster_bytes_ = 0;
  std::vector<authoring::Author::ProtectOptions> protect_;
  std::vector<size_t> plan_;
  net::ContentServer server_;
  std::map<size_t, disc::DiscImage> first_images_;
};

}  // namespace

std::unique_ptr<ClosedLoopWorkload> MakeStudioMaster() {
  return std::make_unique<StudioMaster>();
}

}  // namespace perfbench
