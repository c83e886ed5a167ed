#ifndef DISCSEC_PERFBENCH_PIPELINE_H_
#define DISCSEC_PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "disc/disc_image.h"
#include "disc/local_storage.h"
#include "net/server.h"
#include "perfbench/src/ledger.h"
#include "player/engine.h"
#include "player/playback.h"

namespace perfbench {

using namespace discsec;

/// Byte and work counts the decomposed replay reads off public results.
struct OpCounts {
  uint64_t wire_bytes = 0;       ///< sealed request + response records
  uint64_t doc_bytes = 0;        ///< cluster document text parsed
  uint64_t references = 0;       ///< verified references (VerifyInfo)
  uint64_t plaintext_bytes = 0;  ///< decrypted payload (ciphertext - IV)
  uint64_t script_steps = 0;     ///< interpreter steps (LaunchReport)
};

/// The decomposed launch pipeline: InteractiveApplicationEngine::
/// BeginSession replayed step by step through the public call of every
/// layer, in the engine's order (parse, verify with XKMS key-binding
/// validation, decrypt, cluster + wrapping defense, rights, policy, markup,
/// script), each layer call inside a Ledger scope. Configuration is read
/// from `config` exactly as the engine reads it. Returns the engine's
/// verdict code; on success `report` holds what the engine would report.
Status DecomposedLaunch(const player::PlayerConfig& config,
                        disc::LocalStorage* storage,
                        const std::string& cluster_xml, player::Origin origin,
                        const xmldsig::ExternalResolver& resolver,
                        Ledger* ledger, player::LaunchReport* report,
                        OpCounts* counts);

/// What a disc insertion produced, engine or decomposed.
struct DiscOutcome {
  Status status;
  bool app_launched = false;
  player::LaunchReport app;
  std::vector<player::PlaybackPlan> played;
  size_t quarantined = 0;
};

/// Converts the engine's PlayDisc result.
DiscOutcome FromEngine(const Result<player::DiscPlayback>& playback);

/// InteractiveApplicationEngine::PlayDisc (serial, strict mode) replayed
/// through public calls: cluster read + parse, the application launch
/// above, and each AV track's playback plan (rights, essence read).
DiscOutcome DecomposedPlayDisc(const player::PlayerConfig& config,
                               disc::LocalStorage* storage,
                               const disc::DiscImage& image, Ledger* ledger,
                               OpCounts* counts);

/// Downloader::Fetch over the secure channel replayed through public calls
/// (handshake, request and response records), then the network launch.
Status DecomposedLaunchFromServer(const player::PlayerConfig& config,
                                  disc::LocalStorage* storage,
                                  net::ContentServer* server,
                                  const std::string& path, Rng* rng,
                                  Ledger* ledger, player::LaunchReport* report,
                                  OpCounts* counts);

/// A one-line digest of what a launch or insertion produced — security
/// outcomes, script output, render ops, playback plans — so the engine's
/// and the decomposed replay's verdicts compare as strings.
std::string Summary(const player::LaunchReport& report);
std::string Summary(const DiscOutcome& outcome);

}  // namespace perfbench

#endif  // DISCSEC_PERFBENCH_PIPELINE_H_
