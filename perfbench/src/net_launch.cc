// net-launch: a player downloading and launching Fig. 9-protected
// applications from a content server. Closed loop, one client. Each op is a
// fresh engine running LaunchFromServer over a fresh secure-channel
// handshake; the signer is validated with XKMS against an inline xkmsd on
// the content server. App sizes are a seeded mix: 60% 2 KiB, 30% 32 KiB,
// 10% 256 KiB of text-dense script payload, three apps of each size.

#include <memory>

#include "net/server.h"
#include "perfbench/src/workload.h"
#include "xkms/xkmsd.h"

namespace perfbench {

namespace {

constexpr size_t kSizes[] = {2 * 1024, 32 * 1024, 256 * 1024};
constexpr size_t kAppsPerSize = 3;
constexpr size_t kPlanLength = 4096;

class NetLaunch : public ClosedLoopWorkload {
 public:
  Status Setup(uint64_t seed) override {
    seed_ = seed;
    world_ = std::make_unique<World>(seed);
    config_ = world_->MakePlayerConfig();

    // The trust server: an inline responder seeded with the studio key.
    xkmsd_ = std::make_unique<xkms::Xkmsd>(xkms::XkmsdOptions{});
    xkms::KeyBinding studio;
    studio.name = world_->StudioKeyName();
    studio.key = world_->studio_key.public_key;
    studio.key_usage = {"Signature"};
    DISCSEC_RETURN_IF_ERROR(xkmsd_->SeedBinding(studio));
    xkmsd_->RefreshSnapshot();
    client_ = std::make_unique<xkms::XkmsClient>(
        xkms::MakeServerTransport(xkmsd_.get()));
    config_.xkms = client_.get();

    server_.SetIdentity({world_->server_cert, world_->root_cert},
                        world_->server_key.private_key);
    server_.AttachXkmsd(xkmsd_.get());

    // Fig. 9 protection: enveloped signature, then the manifest encrypted.
    authoring::Author author = world_->MakeAuthor();
    authoring::Author::ProtectOptions protect;
    protect.encrypt_ids = {"quiz"};
    protect.encryption = world_->MakeEncryptionSpec();
    Rng master_rng(Mix(seed, 1));
    for (size_t c = 0; c < std::size(kSizes); ++c) {
      for (size_t k = 0; k < kAppsPerSize; ++k) {
        disc::InteractiveCluster cluster =
            ClusterWithPayload(kSizes[c], Mix(seed, 100 + c * 10 + k));
        DISCSEC_ASSIGN_OR_RETURN(
            xml::Document doc,
            author.BuildProtected(cluster, protect, &master_rng));
        const std::string path = "/apps/" + std::to_string(kSizes[c]) +
                                 "-" + std::to_string(k) + ".xml";
        DISCSEC_RETURN_IF_ERROR(author.Publish(&server_, path, doc));
        paths_.push_back(path);
      }
    }

    // Every ten ops draw six small, three medium and one large app.
    Rng plan_rng(Mix(seed, 2));
    plan_ = ShuffledBlocks(&plan_rng, {0, 0, 0, 0, 0, 0, 1, 1, 1, 2},
                           kPlanLength);
    for (size_t& entry : plan_) {
      entry = entry * kAppsPerSize + plan_rng.NextBelow(kAppsPerSize);
    }
    return Status::OK();
  }

  uint64_t WarmupOps() const override { return 10; }
  uint64_t EpochOps() const override { return 80; }

  /// With a verdict (the traced run's engine ops), also counts the
  /// responder's store reads the op made.
  Status RunOp(uint64_t i, Verdict* verdict) override {
    Rng rng(Mix(seed_, 1000000 + i));
    player::InteractiveApplicationEngine engine(config_);
    net::Downloader::Options download;
    download.trust = &config_.trust;
    download.now = config_.now;
    const uint64_t lookups_before =
        verdict != nullptr ? xkmsd_->stats().store_lookups : 0;
    Result<player::LaunchReport> report =
        engine.LaunchFromServer(&server_, Path(i), download, &rng);
    if (verdict != nullptr) {
      lookups_ += xkmsd_->stats().store_lookups - lookups_before;
      ++lookup_ops_;
      verdict->status = report.status();
      if (report.ok()) verdict->summary = Summary(report.value());
    }
    if (!report.ok()) return report.status();
    if (!report->signature_verified || !report->content_decrypted ||
        !report->xkms_validated) {
      return Status::Corruption(
          "launch did not verify, decrypt and XKMS-validate");
    }
    return CheckDemoOutput(report.value());
  }

  void ReplayOp(uint64_t i, Ledger* ledger, OpCounts* counts,
                Verdict* verdict) override {
    Rng rng(Mix(seed_, 1000000 + i));
    player::PlayerConfig config = config_;  // a fresh engine's provisioning
    disc::LocalStorage storage(config.storage_quota);
    player::LaunchReport report;
    verdict->status = DecomposedLaunchFromServer(
        config, &storage, &server_, Path(i), &rng, ledger, &report, counts);
    if (verdict->status.ok()) verdict->summary = Summary(report);
  }

  bool LedgerChecked() const override { return true; }
  const World& world() const override { return *world_; }
  size_t CalibrationBytes() const override { return kSizes[1]; }

  void AddCounters(RunResult* result) const override {
    SetMetric(result, "xkms.store_lookups",
              lookup_ops_ > 0 ? static_cast<double>(lookups_) /
                                    static_cast<double>(lookup_ops_)
                              : 0.0);
  }

 private:
  const std::string& Path(uint64_t i) const {
    return paths_[plan_[i % plan_.size()]];
  }

  uint64_t seed_ = 0;
  std::unique_ptr<World> world_;
  player::PlayerConfig config_;
  std::unique_ptr<xkms::Xkmsd> xkmsd_;
  std::unique_ptr<xkms::XkmsClient> client_;
  net::ContentServer server_;
  std::vector<std::string> paths_;
  std::vector<size_t> plan_;
  uint64_t lookups_ = 0;
  uint64_t lookup_ops_ = 0;
};

}  // namespace

std::unique_ptr<ClosedLoopWorkload> MakeNetLaunch() {
  return std::make_unique<NetLaunch>();
}

}  // namespace perfbench
