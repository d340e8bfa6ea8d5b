#include "graftmatch/reduce/reduce.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "graftmatch/graph/edge_list.hpp"
#include "graftmatch/graph/induced_subgraph.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/timer.hpp"

namespace graftmatch::reduce {
namespace {

// Below this many edges the reduction rounds run serially; the
// property and exhaustive tests reduce hundreds of thousands of tiny
// graphs, and a fork/join per round would dominate. Results are
// identical either way (classification is read-only; application is
// always serial).
constexpr std::int64_t kSerialThreshold = 1 << 12;

/// Read-only union-find lookup, safe to call from parallel
/// classification (no path compression). Folds link an absorbed root
/// directly to the surviving root and always absorb the smaller class,
/// so chains stay logarithmic without compression.
vid_t find_root(const std::vector<vid_t>& parent, vid_t y) {
  while (parent[static_cast<std::size_t>(y)] != y) {
    y = parent[static_cast<std::size_t>(y)];
  }
  return y;
}

class Reducer {
 public:
  Reducer(const BipartiteGraph& g, ReduceMode mode)
      : g_(g),
        fold_(mode == ReduceMode::kDegree12),
        serial_(g.num_edges() < kSerialThreshold),
        alive_x_(static_cast<std::size_t>(g.num_x()), 1),
        class_alive_(static_cast<std::size_t>(g.num_y()), 1),
        queued_(static_cast<std::size_t>(g.num_x()), 0) {
    stats_.collected = true;
    stats_.mode = mode;
    if (fold_) {
      const std::size_t ny = static_cast<std::size_t>(g.num_y());
      y_parent_.resize(ny);
      std::iota(y_parent_.begin(), y_parent_.end(), vid_t{0});
      y_members_.resize(ny);
      for (std::size_t y = 0; y < ny; ++y) {
        y_members_[y] = {static_cast<vid_t>(y)};
      }
    }
  }

  Reduction run(ReduceMode mode) {
    Reduction out;
    out.mode = mode;
    out.orig_nx = g_.num_x();
    out.orig_ny = g_.num_y();

    obs::emit_begin(obs::names::kReduce, static_cast<std::int64_t>(mode));
    {
      const Timer timer;
      run_rounds();
      stats_.reduce_seconds = timer.elapsed();
    }
    {
      const Timer timer;
      obs::emit_begin(obs::names::kReduceCompact);
      compact(out);
      obs::emit_end(obs::names::kReduceCompact,
                    out.identity ? g_.num_edges() : out.kernel.num_edges());
      stats_.compact_seconds = timer.elapsed();
    }
    obs::emit_end(obs::names::kReduce, static_cast<std::int64_t>(mode));

    const BipartiteGraph& kernel = out.identity ? g_ : out.kernel;
    stats_.kernel_nx = kernel.num_x();
    stats_.kernel_ny = kernel.num_y();
    stats_.kernel_edges = kernel.num_edges();
    stats_.vertices_removed = (out.orig_nx - kernel.num_x()) +
                              (out.orig_ny - kernel.num_y());
    stats_.edges_removed = g_.num_edges() - kernel.num_edges();

    out.ops = std::move(ops_);
    if (!out.identity) out.y_members = std::move(y_members_);
    out.stats = stats_;
    return out;
  }

 private:
  /// Distinct live Y classes adjacent to x, counted with early exit at
  /// 3; the first two distinct roots land in `reps`. Read-only, so the
  /// parallel classification phase may call it concurrently.
  int live_degree_upto3(vid_t x, vid_t reps[2]) const {
    int count = 0;
    for (const vid_t y : g_.neighbors_of_x(x)) {
      const vid_t r = fold_ ? find_root(y_parent_, y) : y;
      if (!class_alive_[static_cast<std::size_t>(r)]) continue;
      if (count > 0 && reps[0] == r) continue;
      if (count > 1 && reps[1] == r) continue;
      if (count < 2) reps[count] = r;
      if (++count == 3) break;
    }
    return count;
  }

  /// Queue every live X neighbor of original Y vertex y for the next
  /// round (its live degree may have dropped).
  void touch_neighbors_of_y(vid_t y, std::vector<vid_t>& next) {
    for (const vid_t x : g_.neighbors_of_y(y)) {
      if (!alive_x_[static_cast<std::size_t>(x)] ||
          queued_[static_cast<std::size_t>(x)]) {
        continue;
      }
      queued_[static_cast<std::size_t>(x)] = 1;
      next.push_back(x);
    }
  }

  void apply_forced(vid_t x, vid_t r, std::vector<vid_t>& next) {
    ops_.push_back({Op::Kind::kForced, x, r, kInvalidVertex, 0});
    alive_x_[static_cast<std::size_t>(x)] = 0;
    class_alive_[static_cast<std::size_t>(r)] = 0;
    ++stats_.forced_matches;
    if (fold_) {
      for (const vid_t y : y_members_[static_cast<std::size_t>(r)]) {
        touch_neighbors_of_y(y, next);
      }
    } else {
      touch_neighbors_of_y(r, next);
    }
  }

  void apply_fold(vid_t x, vid_t ra, vid_t rb, std::vector<vid_t>& next) {
    // Absorb the smaller class into the larger (ties by smaller root)
    // so member lists grow small-to-large and parent chains stay
    // logarithmic.
    vid_t survivor = ra;
    vid_t absorbed = rb;
    const std::size_t sa = y_members_[static_cast<std::size_t>(ra)].size();
    const std::size_t sb = y_members_[static_cast<std::size_t>(rb)].size();
    if (sb > sa || (sb == sa && rb < ra)) std::swap(survivor, absorbed);

    auto& sm = y_members_[static_cast<std::size_t>(survivor)];
    auto& am = y_members_[static_cast<std::size_t>(absorbed)];
    const auto split = static_cast<std::int64_t>(sm.size());
    ops_.push_back({Op::Kind::kFold, x, survivor, absorbed, split});
    sm.insert(sm.end(), am.begin(), am.end());
    am.clear();
    am.shrink_to_fit();
    y_parent_[static_cast<std::size_t>(absorbed)] = survivor;
    alive_x_[static_cast<std::size_t>(x)] = 0;
    ++stats_.folds;
    // Only an x adjacent to BOTH classes loses live degree, and every
    // such x touches a member of the absorbed class (now sm's suffix).
    for (std::size_t i = static_cast<std::size_t>(split); i < sm.size(); ++i) {
      touch_neighbors_of_y(sm[i], next);
    }
  }

  void run_rounds() {
    if (fold_) {
      run_rounds_fold();
    } else {
      run_rounds_d1();
    }
  }

  /// d1 rounds with exact live-degree counters. Without folds a class
  /// is one Y vertex, so an X vertex's live degree is just a counter
  /// that decrements when a neighbor dies -- no adjacency rescans to
  /// classify, and the whole reduction is O(nx + edges of removed
  /// vertices). Only the counter initialization is parallel; every
  /// decrement happens in the serial apply loop, so the op log is
  /// identical at every thread count.
  void run_rounds_d1() {
    const vid_t nx = g_.num_x();
    deg_.resize(static_cast<std::size_t>(nx));
    if (serial_) {
      for (vid_t x = 0; x < nx; ++x) {
        deg_[static_cast<std::size_t>(x)] = g_.degree_x(x);
      }
    } else {
      parallel_region([&] {
#pragma omp for schedule(static)
        for (std::int64_t x = 0; x < nx; ++x) {
          deg_[static_cast<std::size_t>(x)] =
              g_.degree_x(static_cast<vid_t>(x));
        }
      });
    }

    std::vector<vid_t> candidates;
    for (vid_t x = 0; x < nx; ++x) {
      if (deg_[static_cast<std::size_t>(x)] <= 1) {
        queued_[static_cast<std::size_t>(x)] = 1;
        candidates.push_back(x);
      }
    }

    std::vector<vid_t> next;
    while (!candidates.empty()) {
      ++stats_.rounds;
      obs::emit_begin(obs::names::kReduceRound, stats_.rounds);
      std::int64_t ops_this_round = 0;
      next.clear();
      for (const vid_t x : candidates) {
        queued_[static_cast<std::size_t>(x)] = 0;
        if (!alive_x_[static_cast<std::size_t>(x)]) continue;
        if (deg_[static_cast<std::size_t>(x)] == 0) {
          alive_x_[static_cast<std::size_t>(x)] = 0;
          ++stats_.isolated_x;
          ++ops_this_round;
          continue;
        }
        // Exactly one live neighbor left; find it and force the match.
        vid_t r = kInvalidVertex;
        for (const vid_t y : g_.neighbors_of_x(x)) {
          if (class_alive_[static_cast<std::size_t>(y)]) {
            r = y;
            break;
          }
        }
        ops_.push_back({Op::Kind::kForced, x, r, kInvalidVertex, 0});
        alive_x_[static_cast<std::size_t>(x)] = 0;
        class_alive_[static_cast<std::size_t>(r)] = 0;
        ++stats_.forced_matches;
        ++ops_this_round;
        for (const vid_t x2 : g_.neighbors_of_y(r)) {
          if (!alive_x_[static_cast<std::size_t>(x2)]) continue;
          if (--deg_[static_cast<std::size_t>(x2)] <= 1 &&
              !queued_[static_cast<std::size_t>(x2)]) {
            queued_[static_cast<std::size_t>(x2)] = 1;
            next.push_back(x2);
          }
        }
      }
      obs::emit_end(obs::names::kReduceRound, stats_.rounds, ops_this_round);
      candidates.swap(next);
    }
  }

  void run_rounds_fold() {
    const vid_t nx = g_.num_x();
    std::vector<vid_t> candidates(static_cast<std::size_t>(nx));
    std::iota(candidates.begin(), candidates.end(), vid_t{0});
    std::vector<std::uint8_t> small;
    std::vector<vid_t> next;
    // A degree-2 X vertex is only reducible when folds are on.
    const int reducible_limit = fold_ ? 2 : 1;

    while (!candidates.empty()) {
      ++stats_.rounds;
      obs::emit_begin(obs::names::kReduceRound, stats_.rounds);

      // Classify against round-start state (read-only, thread-count
      // independent): which candidates could a rule apply to?
      const auto n = static_cast<std::int64_t>(candidates.size());
      small.assign(static_cast<std::size_t>(n), 0);
      if (serial_) {
        for (std::int64_t i = 0; i < n; ++i) {
          vid_t reps[2] = {kInvalidVertex, kInvalidVertex};
          small[static_cast<std::size_t>(i)] =
              live_degree_upto3(candidates[static_cast<std::size_t>(i)],
                                reps) <= reducible_limit;
        }
      } else {
        parallel_region([&] {
#pragma omp for schedule(dynamic, 512)
          for (std::int64_t i = 0; i < n; ++i) {
            vid_t reps[2] = {kInvalidVertex, kInvalidVertex};
            small[static_cast<std::size_t>(i)] =
                live_degree_upto3(candidates[static_cast<std::size_t>(i)],
                                  reps) <= reducible_limit;
          }
        });
      }

      // Apply serially in candidate order. Degrees are recomputed per
      // candidate because earlier applications in this pass may have
      // lowered them further; a candidate classified above the limit
      // cannot have dropped to it yet (only applications lower degrees,
      // and those queue the affected X vertices for the next round).
      std::int64_t ops_this_round = 0;
      next.clear();
      for (std::int64_t i = 0; i < n; ++i) {
        if (!small[static_cast<std::size_t>(i)]) continue;
        const vid_t x = candidates[static_cast<std::size_t>(i)];
        if (!alive_x_[static_cast<std::size_t>(x)]) continue;
        vid_t reps[2] = {kInvalidVertex, kInvalidVertex};
        const int deg = live_degree_upto3(x, reps);
        if (deg == 0) {
          alive_x_[static_cast<std::size_t>(x)] = 0;
          ++stats_.isolated_x;
          ++ops_this_round;
        } else if (deg == 1) {
          apply_forced(x, reps[0], next);
          ++ops_this_round;
        } else if (deg == 2 && fold_) {
          apply_fold(x, reps[0], reps[1], next);
          ++ops_this_round;
        }
      }
      for (const vid_t x : next) queued_[static_cast<std::size_t>(x)] = 0;
      obs::emit_end(obs::names::kReduceRound, stats_.rounds, ops_this_round);
      candidates.swap(next);
    }
  }

  void compact(Reduction& out) {
    // No rule fired: the graph IS its own kernel. Skip the CSR rebuild
    // and leave kernel/maps empty (identity contract, see Reduction);
    // degree-0 Y vertices, which no rule touches anyway, stay put.
    if (ops_.empty() && stats_.isolated_x == 0) {
      out.identity = true;
      return;
    }

    if (fold_) {
      compact_folded(out);
      return;
    }

    // Payoff gate (d1 only; the fold mode is opt-in and reported
    // as-is): compaction is a full O(n + m) CSR rebuild, so a
    // reduction that barely shrank the graph costs more than the
    // slightly smaller kernel saves. When less than 1/8 of the edges
    // AND less than 1/8 of the vertices would go, discard the log and
    // solve the original graph instead -- trivially matching-number
    // preserving, since the solver then sees every vertex the rules
    // would have matched. 1/8 tracks the break-even observed on the
    // bench suite (bench_reduce_gain).
    eid_t kernel_edges = 0;
    for (vid_t x = 0; x < g_.num_x(); ++x) {
      if (alive_x_[static_cast<std::size_t>(x)]) {
        kernel_edges += deg_[static_cast<std::size_t>(x)];
      }
    }
    // Each forced match removed one X and one Y; isolated X removed
    // themselves. (Isolated Y are only discovered during compaction
    // and count toward neither side of the gate.)
    const vid_t removed_vertices =
        2 * static_cast<vid_t>(stats_.forced_matches) + stats_.isolated_x;
    const bool edges_worth =
        (g_.num_edges() - kernel_edges) * 8 >= g_.num_edges();
    const bool vertices_worth =
        removed_vertices * 8 >= g_.num_vertices();
    if (!edges_worth && !vertices_worth) {
      ops_.clear();
      stats_.forced_matches = 0;
      stats_.isolated_x = 0;
      out.identity = true;
      return;
    }

    // d1 path: the kernel is the subgraph induced by the live vertices
    // (classes are singleton Y vertices), gathered from the original's
    // sorted rows. A live Y vertex with no live edge drops out: its
    // removal cannot cascade (it changes no X degree), so the rounds
    // above never need to look at the Y side.
    std::vector<std::int32_t> x_part(static_cast<std::size_t>(g_.num_x()));
    for (std::size_t x = 0; x < x_part.size(); ++x) {
      x_part[x] = alive_x_[x] ? 0 : -1;
    }
    std::vector<std::int32_t> y_part(static_cast<std::size_t>(g_.num_y()));
    vid_t live_y = 0;
    for (std::size_t y = 0; y < y_part.size(); ++y) {
      y_part[y] = class_alive_[y] ? 0 : -1;
      live_y += class_alive_[y];
    }
    InducedSubgraph kernel = std::move(
        induced_subgraphs(g_, x_part, y_part, 1).front());
    out.kernel = std::move(kernel.graph);
    out.kernel_x_to_orig = std::move(kernel.x_ids);
    out.kernel_y_to_rep = std::move(kernel.y_ids);
    stats_.isolated_y = live_y - out.kernel.num_y();
  }

  /// d1d2 compaction: merged classes break row sortedness and can
  /// duplicate kernel edges, so go through from_edges (which merges
  /// duplicates). Serial; the fold mode is opt-in.
  void compact_folded(Reduction& out) {
    const vid_t nx = g_.num_x();
    const vid_t ny = g_.num_y();
    std::vector<vid_t> x_to_kernel(static_cast<std::size_t>(nx),
                                   kInvalidVertex);
    for (vid_t x = 0; x < nx; ++x) {
      if (!alive_x_[static_cast<std::size_t>(x)]) continue;
      x_to_kernel[static_cast<std::size_t>(x)] =
          static_cast<vid_t>(out.kernel_x_to_orig.size());
      out.kernel_x_to_orig.push_back(x);
    }

    std::vector<std::uint8_t> used(static_cast<std::size_t>(ny), 0);
    for (const vid_t x : out.kernel_x_to_orig) {
      for (const vid_t y : g_.neighbors_of_x(x)) {
        const vid_t r = find_root(y_parent_, y);
        if (class_alive_[static_cast<std::size_t>(r)]) {
          used[static_cast<std::size_t>(r)] = 1;
        }
      }
    }

    std::vector<vid_t> y_to_kernel(static_cast<std::size_t>(ny),
                                   kInvalidVertex);
    for (vid_t y = 0; y < ny; ++y) {
      // Kernel Y vertices are the live class roots with a live edge.
      if (y_parent_[static_cast<std::size_t>(y)] != y ||
          !class_alive_[static_cast<std::size_t>(y)]) {
        continue;
      }
      if (used[static_cast<std::size_t>(y)]) {
        y_to_kernel[static_cast<std::size_t>(y)] =
            static_cast<vid_t>(out.kernel_y_to_rep.size());
        out.kernel_y_to_rep.push_back(y);
      } else {
        ++stats_.isolated_y;
      }
    }

    EdgeList list;
    list.nx = static_cast<vid_t>(out.kernel_x_to_orig.size());
    list.ny = static_cast<vid_t>(out.kernel_y_to_rep.size());
    for (const vid_t x : out.kernel_x_to_orig) {
      for (const vid_t y : g_.neighbors_of_x(x)) {
        const vid_t r = find_root(y_parent_, y);
        if (!class_alive_[static_cast<std::size_t>(r)]) continue;
        list.edges.push_back({x_to_kernel[static_cast<std::size_t>(x)],
                              y_to_kernel[static_cast<std::size_t>(r)]});
      }
    }
    out.kernel = BipartiteGraph::from_edges(list);
  }

  const BipartiteGraph& g_;
  const bool fold_;
  const bool serial_;
  std::vector<std::uint8_t> alive_x_;
  std::vector<std::uint8_t> class_alive_;  ///< indexed by class root
  std::vector<std::uint8_t> queued_;
  std::vector<eid_t> deg_;  ///< d1 only: live degree of each X vertex
  std::vector<vid_t> y_parent_;                 ///< d1d2 only
  std::vector<std::vector<vid_t>> y_members_;   ///< d1d2 only
  std::vector<Op> ops_;
  ReduceCounters stats_;
};

}  // namespace

Reduction reduce_graph(const BipartiteGraph& g, ReduceMode mode) {
  if (mode == ReduceMode::kNone) {
    // Verbatim kernel: no rules, identity maps, empty log. (The engine
    // short-circuits this case; direct callers get sane behavior.)
    Reduction out;
    out.mode = mode;
    out.orig_nx = g.num_x();
    out.orig_ny = g.num_y();
    out.kernel = g;
    out.kernel_x_to_orig.resize(static_cast<std::size_t>(g.num_x()));
    std::iota(out.kernel_x_to_orig.begin(), out.kernel_x_to_orig.end(),
              vid_t{0});
    out.kernel_y_to_rep.resize(static_cast<std::size_t>(g.num_y()));
    std::iota(out.kernel_y_to_rep.begin(), out.kernel_y_to_rep.end(),
              vid_t{0});
    out.stats.collected = true;
    out.stats.mode = mode;
    out.stats.kernel_nx = g.num_x();
    out.stats.kernel_ny = g.num_y();
    out.stats.kernel_edges = g.num_edges();
    return out;
  }
  Reducer reducer(g, mode);
  return reducer.run(mode);
}

Matching reconstruct_matching(const BipartiteGraph& original,
                              const Reduction& red,
                              const Matching& kernel_matching) {
  if (original.num_x() != red.orig_nx || original.num_y() != red.orig_ny) {
    throw std::invalid_argument(
        "reconstruct_matching: original graph does not match the reduction");
  }
  if (red.identity) {
    // The kernel IS the original graph (and red.kernel is empty), so a
    // kernel matching is already an original-graph matching.
    if (kernel_matching.num_x() != red.orig_nx ||
        kernel_matching.num_y() != red.orig_ny) {
      throw std::invalid_argument(
          "reconstruct_matching: matching does not fit the kernel");
    }
    return kernel_matching;
  }
  if (kernel_matching.num_x() != red.kernel.num_x() ||
      kernel_matching.num_y() != red.kernel.num_y()) {
    throw std::invalid_argument(
        "reconstruct_matching: matching does not fit the kernel");
  }

  obs::emit_begin(obs::names::kReduceReconstruct, red.stats.forced_matches);
  Matching result(red.orig_nx, red.orig_ny);

  if (red.y_members.empty()) {
    // No folds ever happened (none / d1, or ny == 0): classes are
    // singletons, so kernel matches map straight through and forced
    // pairs are pairwise disjoint from them and from each other.
    for (vid_t j = 0; j < red.kernel.num_y(); ++j) {
      const vid_t xk = kernel_matching.mate_of_y(j);
      if (xk == kInvalidVertex) continue;
      result.match(red.kernel_x_to_orig[static_cast<std::size_t>(xk)],
                   red.kernel_y_to_rep[static_cast<std::size_t>(j)]);
    }
    for (const Op& op : red.ops) {
      result.match(op.x, op.a);
    }
    obs::emit_end(obs::names::kReduceReconstruct, red.stats.forced_matches);
    return result;
  }

  // Full replay. State: per-class matched X (over original ids), the
  // mutable member lists, and each Y vertex's current class root.
  const auto ny = static_cast<std::size_t>(red.orig_ny);
  std::vector<vid_t> class_match(ny, kInvalidVertex);
  std::vector<std::vector<vid_t>> members = red.y_members;
  std::vector<vid_t> class_of(ny, kInvalidVertex);
  for (std::size_t r = 0; r < ny; ++r) {
    for (const vid_t y : members[r]) {
      class_of[static_cast<std::size_t>(y)] = static_cast<vid_t>(r);
    }
  }

  for (vid_t j = 0; j < red.kernel.num_y(); ++j) {
    const vid_t xk = kernel_matching.mate_of_y(j);
    if (xk == kInvalidVertex) continue;
    class_match[static_cast<std::size_t>(
        red.kernel_y_to_rep[static_cast<std::size_t>(j)])] =
        red.kernel_x_to_orig[static_cast<std::size_t>(xk)];
  }

  for (auto it = red.ops.rbegin(); it != red.ops.rend(); ++it) {
    const Op& op = *it;
    if (op.kind == Op::Kind::kForced) {
      // The class died unmatched in everything replayed so far; the
      // pendant x takes it. Which member x ends up on is settled by
      // the fold unwinds (reverse-later ops) that built the class.
      class_match[static_cast<std::size_t>(op.a)] = op.x;
      continue;
    }
    // Undo the fold: peel the absorbed members off the survivor's
    // suffix, then place the merged class's matched X (if any) on the
    // side it is actually adjacent to and give op.x the other side
    // (op.x was adjacent to both at fold time).
    auto& sm = members[static_cast<std::size_t>(op.a)];
    auto& am = members[static_cast<std::size_t>(op.b)];
    am.assign(sm.begin() + op.split, sm.end());
    sm.resize(static_cast<std::size_t>(op.split));
    for (const vid_t y : am) {
      class_of[static_cast<std::size_t>(y)] = op.b;
    }
    const vid_t xp = class_match[static_cast<std::size_t>(op.a)];
    if (xp == kInvalidVertex) {
      class_match[static_cast<std::size_t>(op.a)] = op.x;
      continue;
    }
    bool on_survivor = false;
    for (const vid_t y : original.neighbors_of_x(xp)) {
      if (class_of[static_cast<std::size_t>(y)] == op.a) {
        on_survivor = true;
        break;
      }
    }
    if (on_survivor) {
      class_match[static_cast<std::size_t>(op.b)] = op.x;
    } else {
      class_match[static_cast<std::size_t>(op.b)] = xp;
      class_match[static_cast<std::size_t>(op.a)] = op.x;
    }
  }

  // Every fold is unwound, so every class is the singleton {root}.
  for (std::size_t r = 0; r < ny; ++r) {
    if (class_match[r] != kInvalidVertex) {
      result.match(class_match[r], static_cast<vid_t>(r));
    }
  }
  obs::emit_end(obs::names::kReduceReconstruct, red.stats.forced_matches);
  return result;
}

std::string debug_summary(const Reduction& red) {
  const ReduceCounters& s = red.stats;
  std::ostringstream out;
  out << "reduce[mode=" << to_string(red.mode) << " orig=" << red.orig_nx
      << "x" << red.orig_ny << " rounds=" << s.rounds
      << " isolated=" << s.isolated_x << "+" << s.isolated_y
      << " forced=" << s.forced_matches << " folds=" << s.folds
      << " kernel=" << s.kernel_nx << "x" << s.kernel_ny << "/"
      << s.kernel_edges << " ops=" << red.ops.size() << "]";
  return out.str();
}

}  // namespace graftmatch::reduce
