// Pluggable traversal-direction policies for the level-synchronous
// searches.
//
// The paper fixes the top-down/bottom-up switch to `|F| >=
// unvisited/alpha` with alpha ~ 5 (prefer_bottom_up). That rule only
// sees vertex counts; on skewed-degree graphs the frontier's *edge*
// mass is what the next level actually costs, and the fixed rule
// mispredicts in both directions. DirectionSelector wraps the fixed
// rule and adds a Beamer-style adaptive policy driven by scout/awake
// edge counts:
//
//  * scout edges -- the sum of live degrees over the current frontier,
//    i.e. exactly the adjacency entries a top-down level would examine.
//    Computed on demand with one O(|frontier|) degree sweep
//    (scout_edge_sum); the fixed and forced policies never ask for it,
//    so they stay zero-overhead.
//  * awake edges -- the adjacency mass still reachable bottom-up,
//    estimated as unvisited_y * (total_edges / ny). This is an O(1)
//    mean-degree estimate, not an exact count: maintaining the exact
//    remaining mass would cost a subtraction per visit on the hot
//    attach path. The hysteresis band below absorbs the estimate's
//    error on all but pathologically skewed Y-degree distributions.
//
// Switch rules (Beamer's alpha/beta recast onto one knob): go
// bottom-up when scout * alpha > awake; return to top-down only when
// scout * alpha * kAdaptiveHysteresis < awake. Inside the band the
// previous direction persists, which is what prevents the
// level-to-level oscillation a bare threshold produces when the
// frontier hovers near 1/alpha of the graph.
//
// The forced policies (kTopDown / kBottomUp) exist for A/B floors and
// the policy-invariance tests; kBottomUp deliberately ignores the
// caller's low-yield ban so a forced run really is all bottom-up.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "graftmatch/core/run_stats.hpp"
#include "graftmatch/engine/frontier_kernels.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/parallel.hpp"

namespace graftmatch::engine {

/// Width of the adaptive policy's stay-put band: once bottom-up, the
/// selector returns to top-down only after the scout mass falls below
/// 1/kAdaptiveHysteresis of the switch-in threshold.
inline constexpr double kAdaptiveHysteresis = 4.0;

/// Sum of adjacency degrees over `items` -- the exact edge count a
/// top-down level over this frontier would scan. One O(|items|) pass
/// over the offsets array; parallel only for lists of kMinTeamWork
/// items or more (the kernels' team-width rule, frontier_kernels.hpp).
inline std::int64_t scout_edge_sum(const Adjacency& adj,
                                   std::span<const vid_t> items) {
  const auto count = static_cast<std::int64_t>(items.size());
  if (!run_wide(count)) {
    std::int64_t total = 0;
    for (const vid_t v : items) total += adj.degree(v);
    return total;
  }
  std::int64_t total = 0;
  parallel_region([&] {
    std::int64_t local = 0;
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) {
      local += adj.degree(items[static_cast<std::size_t>(i)]);
    }
    fetch_add_relaxed(total, local);
  });
  return total;
}

/// Per-run direction chooser. One instance lives for a whole matching
/// run; reset_phase() clears the hysteresis state between phases (every
/// phase starts top-down from fresh roots). Accumulates the
/// DirectionCounters that back the `direction` RunStats block.
class DirectionSelector {
 public:
  DirectionSelector(DirectionPolicy policy, double alpha,
                    std::int64_t total_edges, std::int64_t ny) noexcept
      : policy_(policy),
        alpha_(alpha),
        avg_y_degree_(ny > 0 ? static_cast<double>(total_edges) /
                                   static_cast<double>(ny)
                             : 0.0) {
    counters_.collected = true;
    counters_.policy = policy;
  }

  /// True when choose_bottom_up() will read scout_edges. Callers skip
  /// the O(frontier) degree sweep entirely when this is false.
  bool wants_scout() const noexcept {
    return policy_ == DirectionPolicy::kAdaptive;
  }

  /// Forget the hysteresis state; call at every phase start.
  void reset_phase() noexcept { last_bottom_up_ = false; }

  /// Decide the direction for one level. `scout_edges` is ignored (pass
  /// 0) unless wants_scout(); `banned` is the caller's low-yield
  /// bottom-up ban, honored by fixed/adaptive and ignored by the forced
  /// policies.
  bool choose_bottom_up(std::int64_t frontier_size, std::int64_t scout_edges,
                        std::int64_t unvisited_y, bool banned) noexcept {
    bool bottom_up = false;
    switch (policy_) {
      case DirectionPolicy::kFixed:
        bottom_up =
            !banned && prefer_bottom_up(frontier_size, unvisited_y, alpha_);
        break;
      case DirectionPolicy::kAdaptive:
        bottom_up = !banned && adaptive_choice(frontier_size, scout_edges,
                                               unvisited_y);
        break;
      case DirectionPolicy::kTopDown:
        bottom_up = false;
        break;
      case DirectionPolicy::kBottomUp:
        bottom_up = frontier_size > 0 && unvisited_y > 0;
        break;
    }
    ++counters_.decisions;
    if (bottom_up) ++counters_.bottom_up_levels;
    if (bottom_up != last_bottom_up_) ++counters_.switches;
    last_bottom_up_ = bottom_up;
    return bottom_up;
  }

  const DirectionCounters& counters() const noexcept { return counters_; }
  DirectionCounters& counters() noexcept { return counters_; }

 private:
  bool adaptive_choice(std::int64_t frontier_size, std::int64_t scout_edges,
                       std::int64_t unvisited_y) noexcept {
    if (frontier_size <= 0 || unvisited_y <= 0) return false;
    if (!std::isfinite(alpha_) || alpha_ <= 0.0) return false;
    const double scout = static_cast<double>(scout_edges);
    const double awake = static_cast<double>(unvisited_y) * avg_y_degree_;
    counters_.scout_edges += scout_edges;
    counters_.awake_edges += static_cast<std::int64_t>(awake);
    if (!last_bottom_up_) return scout * alpha_ > awake;
    return scout * alpha_ * kAdaptiveHysteresis >= awake;
  }

  DirectionPolicy policy_;
  double alpha_;
  double avg_y_degree_;
  bool last_bottom_up_ = false;
  DirectionCounters counters_;
};

}  // namespace graftmatch::engine
