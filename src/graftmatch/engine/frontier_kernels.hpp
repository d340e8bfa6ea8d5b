// Bulk traversal kernels shared by every solver.
//
// The paper's performance comes from one machine: level-synchronous
// frontier expansion with thread-private queues (FrontierQueue), a
// top-down/bottom-up direction switch, and balanced work division. This
// header owns that machine. Solvers express only their per-edge policy
// (filter / claim / attach lambdas); the kernels own the OpenMP region,
// the FrontierQueue handle flush protocol, and the edge-balanced
// partitioning -- no solver opens a queue handle itself.
//
// Granularity rules (see edge_partition.hpp):
//  * for_each_frontier_edge splits at EDGE granularity -- a hub
//    vertex's adjacency is shared across threads. This is safe because
//    top-down claims are atomic (claim_flag) and the visit callback
//    must be thread-safe per edge.
//  * for_each_unvisited_reverse and for_each_work_item split at ITEM
//    granularity -- each item is owned by one thread, so per-item state
//    (bottom-up visited flags, Karp-Sipser match attempts) needs no
//    atomics and early exit per item is allowed.
//
// Team width is chosen per call from the call's own work (run_wide()):
// a call whose edge mass is under kMinTeamWork runs inline on the
// calling thread, handing its callbacks DirectPush (or InlineLane)
// handles; a bigger one opens a team and hands out thread-private
// FrontierQueue handles. Callbacks pick plain or atomic bitmap ops from
// that handle type (runs_inline_v), so the choice is made at compile
// time and a plain store can never run beside a team.
//
// All parallel kernels open their region through parallel_region() so
// the TSan stress tier stays suppression-free.
#pragma once

#include <omp.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>

#include "graftmatch/engine/edge_partition.hpp"
#include "graftmatch/graph/bipartite_graph.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/frontier_queue.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/types.hpp"

namespace graftmatch::engine {

/// One CSR direction of a bipartite graph, as the kernels consume it.
struct Adjacency {
  std::span<const eid_t> offsets;
  std::span<const vid_t> neighbors;

  eid_t degree(vid_t v) const noexcept {
    return offsets[static_cast<std::size_t>(v) + 1] -
           offsets[static_cast<std::size_t>(v)];
  }
  std::span<const vid_t> of(vid_t v) const noexcept {
    return neighbors.subspan(
        static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]),
        static_cast<std::size_t>(degree(v)));
  }
};

inline Adjacency x_adjacency(const BipartiteGraph& g) noexcept {
  return {g.x_offsets(), g.x_neighbors()};
}
inline Adjacency y_adjacency(const BipartiteGraph& g) noexcept {
  return {g.y_offsets(), g.y_neighbors()};
}

/// Work done by one kernel invocation, summed over threads.
struct TraversalCounters {
  std::int64_t edges = 0;   ///< adjacency entries examined
  std::int64_t visits = 0;  ///< successful claims / attaches / pushes
  bool wide = false;        ///< the call ran on the team, not inline
};

/// The paper's direction heuristic (Sec. III-B): run bottom-up when the
/// frontier is at least 1/alpha of the unvisited mass. Degenerate
/// inputs are clamped to top-down: with nothing left to visit (or an
/// empty frontier) a bottom-up sweep has no candidates to attach, yet
/// the raw comparison `frontier >= 0/alpha` would always prefer it --
/// and a non-finite alpha (inf collapses every threshold to 0, NaN
/// poisons the compare) must not silently force a direction either.
inline bool prefer_bottom_up(std::int64_t frontier_size,
                             std::int64_t unvisited,
                             double alpha) noexcept {
  if (frontier_size <= 0 || unvisited <= 0) return false;
  if (!std::isfinite(alpha) || alpha <= 0.0) return false;
  return static_cast<double>(frontier_size) >=
         static_cast<double>(unvisited) / alpha;
}

/// True when the next parallel_region() would be one thread wide.
inline bool serial_team() noexcept { return omp_get_max_threads() == 1; }

/// The team-width rule for a call of `work` edge mass: run on the team
/// only when there is a team and the work reaches kMinTeamWork. Below
/// it the call runs inline with no prefix-sum build and no region
/// launch; a one-thread team always runs inline (there the partitioner
/// is pure overhead -- an extra O(frontier) pass per level costs ~30%
/// of the serial search rate on uniform-degree graphs, see bench_fig4).
inline bool run_wide(std::int64_t work) noexcept { return team_pays(work); }

/// The same rule for `count` items of `weight(i)` edges each. A list of
/// kMinTeamWork items or more is wide whatever its degrees (every item
/// costs at least a probe); a shorter one is summed serially, stopping
/// as soon as the sum reaches the cutoff, so a short list of hubs still
/// gets the team.
template <typename WeightFn>
bool run_wide(std::int64_t count, WeightFn&& weight) {
  if (serial_team()) return false;
  if (count >= kMinTeamWork) return true;
  std::int64_t mass = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    mass += weight(i);
    if (mass >= kMinTeamWork) return true;
  }
  return false;
}

/// Out-queue handle of an inline call: pushes go straight through the
/// queue's serial cursor instead of a team Handle's L1 buffer, whose
/// flush would copy every item a second time for no contention benefit.
struct DirectPush {
  FrontierQueue<vid_t>& queue;
  void push(const vid_t& item) noexcept { queue.push(item); }
};

/// What the queue-free sweeps hand their body in place of a queue
/// handle, so the body can still tell inline from team execution.
struct InlineLane {};
struct TeamLane {};

/// True when a callback that received a `Handle` runs alone on the
/// calling thread, so it may use the plain bitmap ops (claim_serial,
/// set_serial, clear_serial) instead of the atomic ones.
template <typename Handle>
inline constexpr bool runs_inline_v =
    std::is_same_v<std::remove_cvref_t<Handle>, DirectPush> ||
    std::is_same_v<std::remove_cvref_t<Handle>, InlineLane>;

/// Top-down level: scan every adjacency entry of every frontier vertex,
/// split at EDGE granularity over the team. `filter(u)` gates a whole
/// vertex (evaluated per fragment on split vertices); `visit(u, v, out,
/// track, counters)` runs per edge and must be thread-safe (claim
/// atomically; bump counters.visits on success; push follow-ups into
/// `out`). `track` is a second thread-private handle on `touched`:
/// callbacks push every vertex they claim so the caller can later
/// classify only vertices the phase actually reached instead of
/// sweeping the full range (the epoch-bookkeeping contract,
/// runtime/epoch_array.hpp). Returns the summed counters; edges counts
/// only filtered-in vertices.
template <typename Filter, typename Visit>
TraversalCounters for_each_frontier_edge(const Adjacency& adj,
                                         std::span<const vid_t> frontier,
                                         FrontierQueue<vid_t>& next,
                                         FrontierQueue<vid_t>& touched,
                                         EdgePartition& partition,
                                         Filter&& filter, Visit&& visit) {
  const auto count = static_cast<std::int64_t>(frontier.size());
  const auto degree = [&](std::int64_t i) {
    return adj.degree(frontier[static_cast<std::size_t>(i)]);
  };
  if (!run_wide(count, degree)) {
    const std::int64_t span_start = obs::timestamp();
    TraversalCounters totals;
    DirectPush out{next};
    DirectPush track{touched};
    for (const vid_t u : frontier) {
      if (!filter(u)) continue;
      const auto nbrs = adj.of(u);
      totals.edges += static_cast<std::int64_t>(nbrs.size());
      for (const vid_t v : nbrs) visit(u, v, out, track, totals);
    }
    obs::emit_complete(obs::names::kKernelFrontierEdge, span_start,
                       totals.edges, totals.visits);
    return totals;
  }
  partition.build(count, degree);
  TraversalCounters totals;
  totals.wide = true;
  parallel_region([&] {
    const std::int64_t span_start = obs::timestamp();
    auto out = next.handle();
    auto track = touched.handle();
    TraversalCounters local;
    const EdgePartition::Range share =
        partition.edge_range(omp_get_thread_num(), omp_get_num_threads());
    if (share.begin < share.end) {
      const EdgePartition::Cursor start = partition.locate(share.begin);
      std::int64_t remaining = share.end - share.begin;
      for (std::int64_t i = start.item; remaining > 0; ++i) {
        const vid_t u = frontier[static_cast<std::size_t>(i)];
        const auto nbrs = adj.of(u);
        const std::int64_t offset = i == start.item ? start.offset : 0;
        const std::int64_t take = std::min(
            static_cast<std::int64_t>(nbrs.size()) - offset, remaining);
        remaining -= take;
        if (take <= 0 || !filter(u)) continue;
        local.edges += take;
        for (std::int64_t k = offset; k < offset + take; ++k) {
          visit(u, nbrs[static_cast<std::size_t>(k)], out, track, local);
        }
      }
    }
    obs::emit_complete(obs::names::kKernelFrontierEdge, span_start,
                       local.edges, local.visits);
    fetch_add_relaxed(totals.edges, local.edges);
    fetch_add_relaxed(totals.visits, local.visits);
  });
  return totals;
}

/// Bottom-up level: each candidate scans its own adjacency for a parent,
/// split at ITEM granularity (edge-balanced, but an item never spans
/// threads -- its state is written without atomics and its scan breaks
/// on the first attach). `skip(y)` drops already-done candidates;
/// `try_edge(y, x, out, track)` attempts one attachment and returns
/// true to stop scanning y (`track` is a thread-private handle on
/// `touched`; callbacks push every vertex they attach, same contract as
/// for_each_frontier_edge). Candidates that neither skip nor attach are
/// pushed to `failed` (callers that do not need the list pass a scratch
/// queue).
template <typename Skip, typename TryEdge>
TraversalCounters for_each_unvisited_reverse(const Adjacency& adj,
                                             std::span<const vid_t> candidates,
                                             FrontierQueue<vid_t>& next,
                                             FrontierQueue<vid_t>& failed,
                                             FrontierQueue<vid_t>& touched,
                                             EdgePartition& partition,
                                             Skip&& skip, TryEdge&& try_edge) {
  const auto count = static_cast<std::int64_t>(candidates.size());
  // Weight degree+1: items with few (or zero) edges still cost a probe,
  // and an all-zero frontier must not collapse onto one thread.
  const auto weight = [&](std::int64_t i) {
    return adj.degree(candidates[static_cast<std::size_t>(i)]) + 1;
  };
  if (!run_wide(count, weight)) {
    const std::int64_t span_start = obs::timestamp();
    TraversalCounters totals;
    DirectPush out{next};
    DirectPush failed_out{failed};
    DirectPush track{touched};
    for (const vid_t y : candidates) {
      if (skip(y)) continue;
      bool attached = false;
      for (const vid_t x : adj.of(y)) {
        ++totals.edges;
        if (try_edge(y, x, out, track)) {
          ++totals.visits;
          attached = true;
          break;
        }
      }
      if (!attached) failed_out.push(y);
    }
    obs::emit_complete(obs::names::kKernelReverse, span_start, totals.edges,
                       totals.visits);
    return totals;
  }
  partition.build(count, weight);
  TraversalCounters totals;
  totals.wide = true;
  parallel_region([&] {
    const std::int64_t span_start = obs::timestamp();
    auto out = next.handle();
    auto failed_out = failed.handle();
    auto track = touched.handle();
    TraversalCounters local;
    const EdgePartition::Range share =
        partition.item_range(omp_get_thread_num(), omp_get_num_threads());
    for (std::int64_t i = share.begin; i < share.end; ++i) {
      const vid_t y = candidates[static_cast<std::size_t>(i)];
      if (skip(y)) continue;
      bool attached = false;
      for (const vid_t x : adj.of(y)) {
        ++local.edges;
        if (try_edge(y, x, out, track)) {
          ++local.visits;
          attached = true;
          break;
        }
      }
      if (!attached) failed_out.push(y);
    }
    obs::emit_complete(obs::names::kKernelReverse, span_start, local.edges,
                       local.visits);
    fetch_add_relaxed(totals.edges, local.edges);
    fetch_add_relaxed(totals.visits, local.visits);
  });
  return totals;
}

/// Edge-balanced parallel sweep over arbitrary work items with a
/// thread-private out-queue. `weight(id)` estimates an item's cost in
/// edges (the kernel adds the +1 per-item floor itself); `body(id,
/// handle)` runs once per item on its owning thread.
template <typename WeightFn, typename Body>
void for_each_work_item(std::span<const vid_t> items, WeightFn&& weight,
                        FrontierQueue<vid_t>& out, EdgePartition& partition,
                        Body&& body) {
  const auto count = static_cast<std::int64_t>(items.size());
  const auto item_weight = [&](std::int64_t i) {
    return weight(items[static_cast<std::size_t>(i)]) + 1;
  };
  if (!run_wide(count, item_weight)) {
    DirectPush handle{out};
    for (const vid_t id : items) body(id, handle);
    return;
  }
  partition.build(count, item_weight);
  parallel_region([&] {
    auto handle = out.handle();
    const EdgePartition::Range share =
        partition.item_range(omp_get_thread_num(), omp_get_num_threads());
    for (std::int64_t i = share.begin; i < share.end; ++i) {
      body(items[static_cast<std::size_t>(i)], handle);
    }
  });
}

/// Dynamically scheduled sweep over item blocks of `chunk`, with a
/// thread-private out-queue and per-thread counters. Used where a tuned
/// block size is part of the algorithm (push-relabel's queue limit).
/// `body(id, handle, counters)`.
template <typename Body>
TraversalCounters for_each_chunked(std::span<const vid_t> items, int chunk,
                                   FrontierQueue<vid_t>& out, Body&& body) {
  const auto count = static_cast<std::int64_t>(items.size());
  const auto step = static_cast<std::int64_t>(chunk > 0 ? chunk : 1);
  TraversalCounters totals;
  parallel_region([&] {
    const std::int64_t span_start = obs::timestamp();
    auto handle = out.handle();
    TraversalCounters local;
#pragma omp for schedule(dynamic, 1) nowait
    for (std::int64_t base = 0; base < count; base += step) {
      const std::int64_t end = std::min(count, base + step);
      for (std::int64_t i = base; i < end; ++i) {
        body(items[static_cast<std::size_t>(i)], handle, local);
      }
    }
    handle.flush();
    obs::emit_complete(obs::names::kKernelChunked, span_start, local.edges,
                       local.visits);
    fetch_add_relaxed(totals.edges, local.edges);
    fetch_add_relaxed(totals.visits, local.visits);
  });
  return totals;
}

/// Statically scheduled parallel sweep of [0, count) with a
/// thread-private out-queue: `body(v, handle)`.
template <typename Body>
void for_each_index(vid_t count, FrontierQueue<vid_t>& out, Body&& body) {
  if (!run_wide(count)) {
    DirectPush handle{out};
    for (vid_t v = 0; v < count; ++v) body(v, handle);
    return;
  }
  parallel_region([&] {
    auto handle = out.handle();
#pragma omp for schedule(static)
    for (vid_t v = 0; v < count; ++v) body(v, handle);
  });
}

/// As above with two out-queues (e.g. a renewable/active classification):
/// `body(v, first_handle, second_handle)`.
template <typename Body>
void for_each_index(vid_t count, FrontierQueue<vid_t>& first,
                    FrontierQueue<vid_t>& second, Body&& body) {
  if (!run_wide(count)) {
    DirectPush first_handle{first};
    DirectPush second_handle{second};
    for (vid_t v = 0; v < count; ++v) body(v, first_handle, second_handle);
    return;
  }
  parallel_region([&] {
    auto first_handle = first.handle();
    auto second_handle = second.handle();
#pragma omp for schedule(static)
    for (vid_t v = 0; v < count; ++v) body(v, first_handle, second_handle);
  });
}

/// Dynamically scheduled variant of for_each_index for sweeps with
/// uneven per-index cost: `body(v, handle)`.
template <typename Body>
void for_each_index_dynamic(vid_t count, int chunk, FrontierQueue<vid_t>& out,
                            Body&& body) {
  if (!run_wide(count)) {
    DirectPush handle{out};
    for (vid_t v = 0; v < count; ++v) body(v, handle);
    return;
  }
  parallel_region([&] {
    auto handle = out.handle();
#pragma omp for schedule(dynamic, chunk)
    for (vid_t v = 0; v < count; ++v) body(v, handle);
  });
}

/// Parallel filter: push every v in [0, count) with pred(v) into `out`.
/// `pred` may have side effects on v's own state (used to re-initialize
/// roots while collecting them).
template <typename Pred>
void collect_if(vid_t count, FrontierQueue<vid_t>& out, Pred&& pred) {
  for_each_index(count, out, [&](vid_t v, auto& handle) {
    if (pred(v)) handle.push(v);
  });
}

/// Parallel count of pred(v) over [0, count).
template <typename Pred>
std::int64_t count_if(vid_t count, Pred&& pred) {
  if (!run_wide(count)) {
    std::int64_t total = 0;
    for (vid_t v = 0; v < count; ++v) total += pred(v) ? 1 : 0;
    return total;
  }
  std::int64_t total = 0;
  parallel_region([&] {
    std::int64_t local = 0;
#pragma omp for schedule(static)
    for (vid_t v = 0; v < count; ++v) local += pred(v) ? 1 : 0;
    fetch_add_relaxed(total, local);
  });
  return total;
}

/// Statically scheduled sweep over an explicit item list with a
/// thread-private out-queue: `body(v, handle)`. The incremental
/// counterpart of for_each_index for phase bookkeeping that must scale
/// with the vertices a phase touched, not with the whole vertex range.
/// Items are assumed uniform-cost (use for_each_work_item when they are
/// not).
template <typename Body>
void for_each_item(std::span<const vid_t> items, FrontierQueue<vid_t>& out,
                   Body&& body) {
  const auto count = static_cast<std::int64_t>(items.size());
  if (!run_wide(count)) {
    DirectPush handle{out};
    for (const vid_t v : items) body(v, handle);
    return;
  }
  parallel_region([&] {
    auto handle = out.handle();
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) {
      body(items[static_cast<std::size_t>(i)], handle);
    }
  });
}

/// As above with two out-queues (renewable/active classification over
/// the touched-vertex lists): `body(v, first_handle, second_handle)`.
template <typename Body>
void for_each_item(std::span<const vid_t> items, FrontierQueue<vid_t>& first,
                   FrontierQueue<vid_t>& second, Body&& body) {
  const auto count = static_cast<std::int64_t>(items.size());
  if (!run_wide(count)) {
    DirectPush first_handle{first};
    DirectPush second_handle{second};
    for (const vid_t v : items) body(v, first_handle, second_handle);
    return;
  }
  parallel_region([&] {
    auto first_handle = first.handle();
    auto second_handle = second.handle();
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) {
      body(items[static_cast<std::size_t>(i)], first_handle, second_handle);
    }
  });
}

/// Queue-free sweep over an explicit item list (bitmap publishes and
/// clears): `body(v, lane)`, where `lane` is InlineLane or TeamLane so
/// the body picks its plain or atomic ops by type (runs_inline_v).
template <typename Body>
void for_each_item(std::span<const vid_t> items, Body&& body) {
  const auto count = static_cast<std::int64_t>(items.size());
  if (!run_wide(count)) {
    for (const vid_t v : items) body(v, InlineLane{});
    return;
  }
  parallel_region([&] {
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) {
      body(items[static_cast<std::size_t>(i)], TeamLane{});
    }
  });
}

/// Word-level candidate compaction over a packed bitmap
/// (runtime/epoch_array.hpp AtomicBitmap::words()): calls `body(v,
/// handle)` for every ZERO bit v < bit_count, iterating set bits of the
/// complemented word with count-trailing-zeros instead of testing all
/// 64 positions. This is how the bottom-up candidate list is rebuilt
/// from the visited bitmap: one cache line yields 512 candidates, and
/// words that are all-ones (fully visited regions) cost a single
/// compare.
template <typename Body>
void for_each_zero_bit(std::span<const std::uint64_t> words,
                       std::int64_t bit_count, FrontierQueue<vid_t>& out,
                       Body&& body) {
  constexpr std::int64_t kBits = 64;
  const auto word_count = static_cast<std::int64_t>(words.size());
  const auto scan_word = [&](std::int64_t w, auto& handle) {
    std::uint64_t holes = ~words[static_cast<std::size_t>(w)];
    if (holes == 0) return;
    const std::int64_t base = w * kBits;
    if (base + kBits > bit_count) {
      // Tail word: mask off the padding bits past bit_count.
      const auto live = static_cast<std::uint64_t>(bit_count - base);
      holes &= live >= 64 ? ~std::uint64_t{0}
                          : ((std::uint64_t{1} << live) - 1);
    }
    while (holes != 0) {
      const int bit = std::countr_zero(holes);
      holes &= holes - 1;  // clear lowest set bit
      body(base + bit, handle);
    }
  };
  // One unit of work per bit: every hole may push a candidate.
  if (!run_wide(bit_count)) {
    DirectPush handle{out};
    for (std::int64_t w = 0; w < word_count; ++w) scan_word(w, handle);
    return;
  }
  parallel_region([&] {
    auto handle = out.handle();
#pragma omp for schedule(static)
    for (std::int64_t w = 0; w < word_count; ++w) scan_word(w, handle);
  });
}

/// Work-stealing sweep over search roots for depth-first solvers whose
/// per-root cost is unpredictable (dynamic scheduling beats any static
/// partition there). Each thread builds its own workspace with
/// `make_ws()`, runs `body(root, ws)` per root, then `merge(ws)` runs
/// once per thread under a mutex (OpenMP `critical` is invisible to
/// TSan; see parallel_region's contract).
template <typename MakeWs, typename Body, typename Merge>
void for_each_root_dynamic(vid_t count, int chunk, MakeWs&& make_ws,
                           Body&& body, Merge&& merge) {
  std::mutex merge_mutex;
  parallel_region([&] {
    auto ws = make_ws();
#pragma omp for schedule(dynamic, chunk)
    for (vid_t v = 0; v < count; ++v) body(v, ws);
    const std::scoped_lock lock(merge_mutex);
    merge(ws);
  });
}

/// Serial frontier expansion for the single-source baselines: scans
/// frontier adjacencies in order, calling `visit(u, v)` per edge until
/// it returns false (early stop) or the frontier is exhausted. Returns
/// the number of edges examined.
template <typename Visit>
std::int64_t scan_frontier_edges(const Adjacency& adj,
                                 std::span<const vid_t> frontier,
                                 Visit&& visit) {
  std::int64_t edges = 0;
  for (const vid_t u : frontier) {
    for (const vid_t v : adj.of(u)) {
      ++edges;
      if (!visit(u, v)) return edges;
    }
  }
  return edges;
}

}  // namespace graftmatch::engine
