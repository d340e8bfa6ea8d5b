// Word-level bottom-up traversal: consume the visited bitmap 64
// candidates at a time.
//
// The bit-granular bottom-up path (for_each_unvisited_reverse over the
// candidate pool) pays per CANDIDATE: a pool entry, a skip test, and an
// atomic RMW per attach -- the word-packed AtomicBitmap is built once
// per level and then consumed one bit at a time. This kernel consumes
// it the way it is stored: iterate the visited complement with
// ctz/popcount over whole 64-bit words, scan each hole's adjacency for
// an eligible parent, and commit ALL of a word's winners with ONE
// word-granular claim (AtomicBitmap::claim_word) instead of 64
// fetch_or's. Fully-visited regions cost a single compare per 64
// vertices, and no candidate pool is materialized at all -- the bitmap
// complement IS the candidate list, which also removes the pool's
// build/refill bookkeeping from the phase loop.
//
// Safety follows from scan -> claim -> attach ordering: a thread
// attaches only bits its claim actually won, so exactly-once claiming
// transfers unchanged from the bit path. Eligibility is evaluated
// before the claim; a tree can die between the check and the attach,
// which is the same documented benign race the bit path has (the
// candidate is wasted for the phase, never incorrect). Under the
// word-per-thread schedule the claim CAS normally succeeds on the first
// try; the per-bit fallback inside claim_word covers external writers
// (and is exercised directly by the word-kernel stress test).
//
// The parallel sweep opens its region through parallel_region() so the
// TSan stress tier stays suppression-free.
#pragma once

#include <omp.h>

#include <bit>
#include <cstdint>

#include "graftmatch/engine/frontier_kernels.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/epoch_array.hpp"
#include "graftmatch/runtime/frontier_queue.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/types.hpp"

namespace graftmatch::engine {

/// Work done by one word-level sweep, summed over threads. `traversal`
/// matches the bit kernels' counters (edges scanned / attaches);
/// `candidates` is the zero bits examined -- the word arm's stand-in
/// for the pool size in the low-yield ban -- and commits/fallbacks
/// instrument claim_word for the `direction` stats block.
struct WordScanCounters {
  TraversalCounters traversal;
  std::int64_t candidates = 0;
  std::int64_t commits = 0;    ///< claim_word calls that won >= 1 bit
  std::int64_t fallbacks = 0;  ///< commits that hit the per-bit fallback
};

/// One bottom-up level over the complement of `visited` (bits
/// [0, bit_count)). For every zero bit y, scan `adj.of(y)` for the
/// first x with `eligible(y, x)`; winners are claimed word-at-a-time
/// and then attached via `attach(y, x, out)` (out = thread-private
/// handle on `next`; every attached y is also pushed to `touched`,
/// same tracking contract as for_each_unvisited_reverse). Words are
/// distributed dynamically -- per-word cost swings with hole density
/// and adjacency sizes, so a static split would straggle on skewed
/// graphs.
template <typename Eligible, typename Attach>
WordScanCounters for_each_unvisited_word(const Adjacency& adj,
                                         AtomicBitmap& visited,
                                         std::int64_t bit_count,
                                         FrontierQueue<vid_t>& next,
                                         FrontierQueue<vid_t>& touched,
                                         Eligible&& eligible,
                                         Attach&& attach) {
  constexpr std::int64_t kBits =
      static_cast<std::int64_t>(AtomicBitmap::kBitsPerWord);
  const auto word_count = static_cast<std::int64_t>(visited.word_count());
  WordScanCounters totals;

  const auto scan_word = [&](std::int64_t w, auto& out, auto& track,
                             WordScanCounters& local) {
    std::uint64_t holes = ~visited.load_word(static_cast<std::size_t>(w));
    if (holes == 0) return;
    const std::int64_t base = w * kBits;
    if (base + kBits > bit_count) {
      // Tail word: mask off the padding bits past bit_count.
      const auto live = static_cast<std::uint64_t>(bit_count - base);
      holes &= live >= 64 ? ~std::uint64_t{0}
                          : ((std::uint64_t{1} << live) - 1);
      if (holes == 0) return;
    }
    std::uint64_t want = 0;
    vid_t parent_of[AtomicBitmap::kBitsPerWord];
    std::uint64_t pending = holes;
    while (pending != 0) {
      const int bit = std::countr_zero(pending);
      pending &= pending - 1;
      const vid_t y = static_cast<vid_t>(base + bit);
      ++local.candidates;
      for (const vid_t x : adj.of(y)) {
        ++local.traversal.edges;
        if (eligible(y, x)) {
          want |= std::uint64_t{1} << bit;
          parent_of[bit] = x;
          break;
        }
      }
    }
    if (want == 0) return;
    bool fell_back = false;
    std::uint64_t won = 0;
    if constexpr (runs_inline_v<decltype(out)>) {
      won = visited.claim_word_serial(static_cast<std::size_t>(w), want);
    } else {
      won = visited.claim_word(static_cast<std::size_t>(w), want, &fell_back);
    }
    if (won != 0) ++local.commits;
    if (fell_back) ++local.fallbacks;
    std::uint64_t grant = won;
    while (grant != 0) {
      const int bit = std::countr_zero(grant);
      grant &= grant - 1;
      const vid_t y = static_cast<vid_t>(base + bit);
      ++local.traversal.visits;
      track.push(y);
      attach(y, parent_of[bit], out);
    }
  };

  // Work bound: a probe per bit plus, at most, every adjacency entry.
  if (!run_wide(bit_count + static_cast<std::int64_t>(adj.neighbors.size()))) {
    DirectPush out{next};
    DirectPush track{touched};
    for (std::int64_t w = 0; w < word_count; ++w) {
      scan_word(w, out, track, totals);
    }
    return totals;
  }
  totals.traversal.wide = true;
  parallel_region([&] {
    const std::int64_t span_start = obs::timestamp();
    auto out = next.handle();
    auto track = touched.handle();
    WordScanCounters local;
#pragma omp for schedule(dynamic, 32) nowait
    for (std::int64_t w = 0; w < word_count; ++w) {
      scan_word(w, out, track, local);
    }
    out.flush();
    track.flush();
    obs::emit_complete(obs::names::kKernelWord, span_start,
                       local.traversal.edges, local.traversal.visits);
    fetch_add_relaxed(totals.traversal.edges, local.traversal.edges);
    fetch_add_relaxed(totals.traversal.visits, local.traversal.visits);
    fetch_add_relaxed(totals.candidates, local.candidates);
    fetch_add_relaxed(totals.commits, local.commits);
    fetch_add_relaxed(totals.fallbacks, local.fallbacks);
  });
  return totals;
}

}  // namespace graftmatch::engine
