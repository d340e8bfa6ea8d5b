// Degree-prefix-sum edge-balanced work partitioner.
//
// Static vertex chunking collapses on skewed frontiers: on RMAT/web
// graphs one hub vertex can hold most of a frontier's edges, so the
// thread that draws the hub's chunk does almost all the work. The fix
// (standard in direction-optimizing BFS codes) is to split by EDGES:
// build a prefix sum over the frontier items' degrees and give every
// thread an equal slice of edge ranks, located with binary search.
//
// Two granularities are exposed, because not every kernel may split a
// vertex across threads:
//
//  * edge granularity (locate / edge_range): a part's slice may start
//    and end mid-adjacency, so a hub's edges are shared by many
//    threads. Safe only when per-target claims are atomic (top-down's
//    claim_flag).
//
//  * item granularity (item_range / edge_balanced_boundaries): part
//    boundaries are snapped to whole items, so each item is owned by
//    exactly one thread. Required when per-item state is written
//    non-atomically (bottom-up's visited flags) or when an item's edge
//    scan breaks early.
//
// Boundaries are pure functions of (prefix, parts) -- identical for
// every thread count and schedule, which the determinism tests pin.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/types.hpp"

namespace graftmatch::engine {

/// Smallest kernel call, in edge mass, that runs on the thread team
/// (runtime/parallel.hpp). It is also the list length below which a
/// call's edge mass is summed serially, so the measuring pass never
/// needs a team of its own.
using graftmatch::kMinTeamWork;

/// Item boundaries for splitting `prefix` (an inclusive degree prefix
/// sum of size items+1, prefix[0] == 0) into `parts` contiguous item
/// ranges of near-equal edge weight. Returns parts+1 monotone indices
/// with front() == 0 and back() == items; part p owns items
/// [result[p], result[p+1]). Zero-weight items at the tail land in the
/// last part, so the ranges always cover every item exactly once.
inline std::vector<std::int64_t> edge_balanced_boundaries(
    std::span<const std::int64_t> prefix, int parts) {
  assert(!prefix.empty() && prefix.front() == 0);
  assert(parts > 0);
  const auto items = static_cast<std::int64_t>(prefix.size()) - 1;
  const std::int64_t total = prefix.back();
  std::vector<std::int64_t> bounds(static_cast<std::size_t>(parts) + 1);
  bounds.front() = 0;
  bounds.back() = items;
  for (int p = 1; p < parts; ++p) {
    const std::int64_t target =
        total / parts * p + total % parts * p / parts;  // ~ total*p/parts
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    bounds[static_cast<std::size_t>(p)] =
        std::max(bounds[static_cast<std::size_t>(p) - 1],
                 static_cast<std::int64_t>(it - prefix.begin()));
  }
  return bounds;
}

/// Reusable prefix-sum scratch for one frontier. build() is called once
/// per level; the queries are then served by binary search without
/// further allocation.
class EdgePartition {
 public:
  /// Rebuild for `items` work items with weight(i) >= 0 each. The fill
  /// is parallel for long lists (weights are independent) and serial
  /// below kMinTeamWork items; the scan is always serial -- it is a tiny
  /// fraction of the traversal it balances, and a serial scan keeps the
  /// prefix identical across thread counts.
  template <typename WeightFn>
  void build(std::int64_t items, WeightFn&& weight) {
    items_ = items;
    prefix_.resize(static_cast<std::size_t>(items) + 1);
    prefix_[0] = 0;
    auto* fill = prefix_.data() + 1;
    if (items < kMinTeamWork) {
      for (std::int64_t i = 0; i < items; ++i) {
        fill[i] = static_cast<std::int64_t>(weight(i));
      }
    } else {
      parallel_region([&] {
#pragma omp for schedule(static)
        for (std::int64_t i = 0; i < items; ++i) {
          fill[i] = static_cast<std::int64_t>(weight(i));
        }
      });
    }
    for (std::int64_t i = 0; i < items; ++i) fill[i] += prefix_[i];
  }

  std::int64_t items() const noexcept { return items_; }
  std::int64_t total() const noexcept {
    return prefix_.empty() ? 0 : prefix_.back();
  }
  std::span<const std::int64_t> prefix() const noexcept { return prefix_; }

  struct Range {
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  /// Edge-rank slice [begin, end) of part `part` of `parts`.
  Range edge_range(int part, int parts) const noexcept {
    const std::int64_t total_edges = total();
    return {total_edges / parts * part + total_edges % parts * part / parts,
            total_edges / parts * (part + 1) +
                total_edges % parts * (part + 1) / parts};
  }

  /// Item slice of part `part` of `parts` (item granularity; boundaries
  /// snapped as in edge_balanced_boundaries).
  Range item_range(int part, int parts) const noexcept {
    const auto bound = [&](int p) {
      if (p >= parts) return items_;
      const std::int64_t total_edges = total();
      const std::int64_t target = total_edges / parts * p +
                                  total_edges % parts * p / parts;
      const auto it =
          std::lower_bound(prefix_.begin(), prefix_.end(), target);
      return static_cast<std::int64_t>(it - prefix_.begin());
    };
    const std::int64_t begin = bound(part);
    return {begin, std::max(begin, bound(part + 1))};
  }

  struct Cursor {
    std::int64_t item = 0;    ///< item containing the edge rank
    std::int64_t offset = 0;  ///< offset of the rank within that item
  };

  /// Locate edge rank `rank` (0 <= rank < total()): the unique item i
  /// with prefix[i] <= rank < prefix[i+1], skipping zero-weight items.
  Cursor locate(std::int64_t rank) const noexcept {
    assert(rank >= 0 && rank < total());
    const auto it =
        std::upper_bound(prefix_.begin(), prefix_.end(), rank) - 1;
    const auto item = static_cast<std::int64_t>(it - prefix_.begin());
    return {item, rank - *it};
  }

 private:
  std::vector<std::int64_t> prefix_;
  std::int64_t items_ = 0;
};

}  // namespace graftmatch::engine
