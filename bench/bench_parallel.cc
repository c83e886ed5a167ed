// E12 — the parallel verification engine: PlayDisc swept over executor
// counts (1 = the serial-equivalent pool path, then 2/4/8) and disc sizes.
// The speedup claims only mean anything on a multi-core host (CI runners);
// on a 1-CPU container the sweep degenerates to constant time plus
// scheduling overhead.
//
// Thread accounting: "threads" is the number of EXECUTING threads. The
// calling thread always participates in a TaskGraph run, so a pool of N
// workers gives N+1 executors — the sweep therefore builds
// ThreadPool(threads - 1).

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include <map>
#include <memory>
#include <string>

#include "authoring/author.h"
#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "player/engine.h"

namespace discsec {
namespace player {
namespace {

using bench::SharedWorld;

/// DemoCluster plus extra AV tracks, each with its own clip, playlist and
/// signed essence — the per-track fan-out workload.
disc::InteractiveCluster MultiTrackCluster(size_t av_tracks) {
  disc::InteractiveCluster cluster = SharedWorld().DemoCluster();
  for (size_t i = 2; i <= av_tracks; ++i) {
    std::string n = std::to_string(i);
    disc::ClipInfo clip;
    clip.id = "clip-" + n;
    clip.ts_path = std::string(disc::kStreamDir) + "clip" + n + ".m2ts";
    clip.duration_ms = 4000;  // bigger essence -> more digest work per track
    cluster.clips.push_back(clip);
    disc::Playlist playlist;
    playlist.id = "pl-" + n;
    playlist.items.push_back({clip.id, 0, 4000});
    cluster.playlists.push_back(playlist);
    disc::Track track;
    track.id = "track-av-" + n;
    track.kind = disc::Track::Kind::kAudioVideo;
    track.playlist_id = playlist.id;
    cluster.tracks.push_back(track);
  }
  return cluster;
}

/// Protected multi-track image with one external essence reference per clip
/// (sign_av_essence), cached per track count.
const disc::DiscImage& ImageWithTracks(size_t av_tracks) {
  static std::map<size_t, const disc::DiscImage*> images;
  auto it = images.find(av_tracks);
  if (it == images.end()) {
    authoring::Author::ProtectOptions options;
    options.sign = true;
    options.sign_av_essence = true;
    Rng rng(av_tracks);
    it = images
             .emplace(av_tracks,
                      new disc::DiscImage(
                          SharedWorld()
                              .MakeAuthor()
                              .MasterProtected(MultiTrackCluster(av_tracks),
                                               options, &rng)
                              .value()))
             .first;
  }
  return *it->second;
}

/// Full disc insertion: application launch (multi-reference signature
/// verification) plus a playback plan per AV track. range(0) = executing
/// threads, range(1) = AV tracks.
void BM_PlayDisc_Threads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t tracks = static_cast<size_t>(state.range(1));
  const disc::DiscImage& image = ImageWithTracks(tracks);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
  for (auto _ : state) {
    PlayerConfig config = SharedWorld().MakePlayerConfig();
    config.pool = pool.get();
    InteractiveApplicationEngine engine(std::move(config));
    auto playback = engine.PlayDisc(image);
    if (!playback.ok()) state.SkipWithError("PlayDisc failed");
    benchmark::DoNotOptimize(playback.value().played.size());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["tracks"] = static_cast<double>(tracks);
}
BENCHMARK(BM_PlayDisc_Threads)
    ->ArgsProduct({{1, 2, 4, 8}, {4, 12}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace player
}  // namespace discsec

DISCSEC_BENCH_MAIN("parallel");
