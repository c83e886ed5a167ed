#ifndef DISCSEC_BENCH_ALLOC_TRACKER_H_
#define DISCSEC_BENCH_ALLOC_TRACKER_H_

#include <cstddef>

namespace discsec {
namespace bench {

// Heap instrumentation for the streaming-vs-buffered comparisons: linking
// alloc_tracker.cc into a bench binary replaces global operator new/delete
// with counting versions. Used to report peak live heap and allocation
// counts per benchmark (the BENCH_streaming.json metrics), and by tests
// that pin heap behaviour (obs_test, script_test).

/// Zeroes the counters (peak is reset to the currently live bytes).
void ResetAllocStats();

/// High-water mark of live heap bytes since the last reset.
size_t AllocPeakBytes();

/// Heap bytes live right now (allocated through operator new, not yet
/// deleted).
size_t AllocLiveBytes();

/// Number of allocations since the last reset.
size_t AllocCount();

}  // namespace bench
}  // namespace discsec

#endif  // DISCSEC_BENCH_ALLOC_TRACKER_H_
