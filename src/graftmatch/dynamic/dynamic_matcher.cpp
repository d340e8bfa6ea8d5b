#include "graftmatch/dynamic/dynamic_matcher.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "graftmatch/engine/registry.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/runtime/timer.hpp"
#include "graftmatch/verify/koenig.hpp"
#include "graftmatch/verify/validate.hpp"

namespace graftmatch::dynamic {
namespace {

constexpr Side opposite(Side s) { return s == Side::kX ? Side::kY : Side::kX; }
constexpr std::size_t index(Side s) { return static_cast<std::size_t>(s); }
constexpr std::int64_t kUnlimited = std::numeric_limits<std::int64_t>::max();

template <Side S>
vid_t side_size(const GraphOverlay& g) {
  if constexpr (S == Side::kX) return g.num_x();
  else return g.num_y();
}

template <Side S>
vid_t mate(const Matching& m, vid_t v) {
  if constexpr (S == Side::kX) return m.mate_of_x(v);
  else return m.mate_of_y(v);
}

template <Side S, class Fn>
void for_each_neighbor(const GraphOverlay& g, vid_t v, Fn&& fn) {
  if constexpr (S == Side::kX) g.for_each_neighbor_x(v, fn);
  else g.for_each_neighbor_y(v, fn);
}

/// Match u (side S) with v (the other side, free); u's old mate is
/// left free.
template <Side S>
void rematch(Matching& m, vid_t u, vid_t v) {
  if constexpr (S == Side::kX) {
    m.unmatch_x(u);
    m.match(u, v);
  } else {
    const vid_t x = m.mate_of_y(u);
    if (x != kInvalidVertex) m.unmatch_x(x);
    m.match(v, u);
  }
}

/// The Koenig region of side S -- one multi-source alternating walk
/// from every free S vertex -- advanced in bounded steps, so that two
/// walks can run in lockstep.
template <Side S>
class RegionWalk {
 public:
  RegionWalk(const GraphOverlay& g, const Matching& m, EpochStamps& own,
             EpochStamps& other, std::vector<vid_t>& queue)
      : g_(g), m_(m), own_(own), other_(other), queue_(queue) {
    queue_.clear();
    for (vid_t u = 0; u < side_size<S>(g_); ++u) {
      if (mate<S>(m_, u) != kInvalidVertex) continue;
      own_.stamp(static_cast<std::size_t>(u));
      queue_.push_back(u);
    }
  }

  /// Scans adjacency entries until edges() reaches `target` or the
  /// region is exhausted; returns true once it is.
  bool advance(std::int64_t target) {
    constexpr Side T = opposite(S);
    while (edges_ < target && head_ < queue_.size()) {
      for_each_neighbor<S>(g_, queue_[head_++], [&](vid_t v) {
        ++edges_;
        const auto vi = static_cast<std::size_t>(v);
        if (other_.valid(vi)) return true;
        other_.stamp(vi);
        const vid_t next = mate<T>(m_, v);
        if (next != kInvalidVertex &&
            !own_.valid(static_cast<std::size_t>(next))) {
          own_.stamp(static_cast<std::size_t>(next));
          queue_.push_back(next);
        }
        return true;
      });
    }
    return head_ == queue_.size();
  }

  std::int64_t edges() const { return edges_; }

 private:
  const GraphOverlay& g_;
  const Matching& m_;
  EpochStamps& own_;
  EpochStamps& other_;
  std::vector<vid_t>& queue_;
  std::size_t head_ = 0;
  std::int64_t edges_ = 0;
};

}  // namespace

DynamicMatcher::DynamicMatcher(SessionContext& session, BipartiteGraph base,
                               DynamicConfig config)
    : session_(&session),
      config_(std::move(config)),
      overlay_(std::move(base)),
      matching_(overlay_.num_x(), overlay_.num_y()) {
  for (const Side side : {Side::kX, Side::kY}) {
    const auto n = static_cast<std::size_t>(
        side == Side::kX ? overlay_.num_x() : overlay_.num_y());
    visited_[index(side)].reset(n);
    parent_[index(side)].assign(n, kInvalidVertex);
  }
  queue_.reserve(static_cast<std::size_t>(
      std::max(overlay_.num_x(), overlay_.num_y())));
  // The initial solve. Not counted as a staleness re-solve: the
  // `resolves` counter measures churn-triggered work.
  const SessionScope scope(*session_);
  engine::run(*session_, config_.solver, config_.initializer,
              overlay_.base(), matching_, config_.run);
  cardinality_ = matching_.cardinality();
  edges_at_resolve_ = overlay_.live_edges();
  choose_proof_side();
  if (config_.check_invariants) audit();
}

std::int64_t DynamicMatcher::add_edges(std::span<const Edge> batch) {
  const SessionScope scope(*session_);
  const Timer batch_timer;
  obs::emit_begin(obs::names::kDynamicApply,
                  static_cast<std::int64_t>(batch.size()), cardinality_);
  std::int64_t inserted = 0;
  std::int64_t direct = 0;
  for (const Edge& e : batch) {
    if (!overlay_.insert(e.x, e.y)) continue;
    ++inserted;
    // Fast path: a new edge with both endpoints free is itself an
    // augmenting path of length one.
    if (!matching_.is_matched_x(e.x) && !matching_.is_matched_y(e.y)) {
      matching_.match(e.x, e.y);
      ++cardinality_;
      ++direct;
    }
  }
  counters_.batches += 1;
  counters_.edges_added += inserted;
  counters_.direct_matches += direct;
  churn_since_resolve_ += inserted;
  if (inserted > 0) {
    if (staleness_tripped()) {
      full_resolve();
    } else if (inserted > direct) {
      // Each inserted edge raises the maximum by at most one.
      sweep_from_proof_side(inserted - direct);
      if (config_.staleness_failure_streak > 0 &&
          failure_streak_ >= config_.staleness_failure_streak) {
        full_resolve();
      }
    }
  }
  maybe_compact();
  if (config_.check_invariants) audit();
  obs::emit_end(obs::names::kDynamicApply, overlay_.live_edges(),
                cardinality_);
  counters_.apply_seconds += batch_timer.elapsed();
  return inserted;
}

std::int64_t DynamicMatcher::remove_edges(std::span<const Edge> batch) {
  const SessionScope scope(*session_);
  const Timer batch_timer;
  obs::emit_begin(obs::names::kDynamicApply,
                  static_cast<std::int64_t>(batch.size()), cardinality_);
  std::int64_t erased = 0;
  std::vector<vid_t> freed_x;
  std::vector<vid_t> freed_y;
  for (const Edge& e : batch) {
    if (!overlay_.erase(e.x, e.y)) continue;
    ++erased;
    // Erasing an unmatched edge cannot break maximality; erasing a
    // matched one frees its endpoints, the only places a new
    // augmenting path can end (see the class comment).
    if (matching_.mate_of_x(e.x) == e.y) {
      matching_.unmatch_x(e.x);
      --cardinality_;
      freed_x.push_back(e.x);
      freed_y.push_back(e.y);
    }
  }
  counters_.batches += 1;
  counters_.edges_removed += erased;
  churn_since_resolve_ += erased;
  if (staleness_tripped()) {
    full_resolve();
  } else if (!freed_x.empty()) {
    const auto freed = static_cast<std::int64_t>(freed_x.size());
    Repair repaired;
    {
      const Timer repair_timer;
      const std::int64_t searches_before = counters_.reaugment_searches;
      obs::emit_begin(obs::names::kDynamicReaugment, freed);
      repaired = proof_side_ == Side::kX ? repair<Side::kX>(freed_x, freed_y)
                                         : repair<Side::kY>(freed_y, freed_x);
      obs::emit_end(obs::names::kDynamicReaugment,
                    counters_.reaugment_searches - searches_before,
                    repaired.paths);
      counters_.reaugment_seconds += repair_timer.elapsed();
    }
    // p == k proved maximality by counting, and p == 0 with every freed
    // root searched proves it by persistence. Otherwise a repair path
    // may have consumed the newly-freed endpoint of a DIFFERENT
    // deficiency path (0 < p < k), or a root went unsearched (the
    // budget ran out): only the sweep from the proof side proves
    // maximality there.
    if (repaired.aborted ||
        (repaired.paths > 0 && repaired.paths < freed)) {
      sweep_from_proof_side(freed - repaired.paths);
    }
    if (config_.staleness_failure_streak > 0 &&
        failure_streak_ >= config_.staleness_failure_streak) {
      full_resolve();
    }
  }
  maybe_compact();
  if (config_.check_invariants) audit();
  obs::emit_end(obs::names::kDynamicApply, overlay_.live_edges(),
                cardinality_);
  counters_.apply_seconds += batch_timer.elapsed();
  return erased;
}

template <Side S>
DynamicMatcher::Search DynamicMatcher::augment(vid_t root, bool fresh_marks,
                                               std::int64_t& budget) {
  constexpr Side T = opposite(S);
  EpochStamps& own = visited_[index(S)];
  EpochStamps& other = visited_[index(T)];
  std::vector<vid_t>& parent = parent_[index(T)];
  ++counters_.reaugment_searches;
  if (fresh_marks) {
    own.bump();
    other.bump();
  }
  queue_.clear();
  queue_.push_back(root);
  own.stamp(static_cast<std::size_t>(root));
  std::int64_t left = budget;  // a local the scan loop can keep in a register
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const vid_t u = queue_[head];
    vid_t found = kInvalidVertex;
    for_each_neighbor<S>(overlay_, u, [&](vid_t v) {
      --left;
      const auto vi = static_cast<std::size_t>(v);
      if (other.valid(vi)) return true;
      other.stamp(vi);
      parent[vi] = u;
      const vid_t next = mate<T>(matching_, v);
      if (next == kInvalidVertex) {
        found = v;
        return false;  // free vertex: augmenting path complete
      }
      if (!own.valid(static_cast<std::size_t>(next))) {
        own.stamp(static_cast<std::size_t>(next));
        queue_.push_back(next);
      }
      return true;
    });
    if (found != kInvalidVertex) {
      // Flip the path by walking the parent chain back to the root.
      for (vid_t v = found; v != kInvalidVertex;) {
        const vid_t pu = parent[static_cast<std::size_t>(v)];
        const vid_t next = mate<S>(matching_, pu);
        rematch<S>(matching_, pu, v);
        v = next;
      }
      ++cardinality_;
      ++counters_.reaugment_paths;
      budget = left;
      return Search::kFound;
    }
    if (left < 0) {
      // A half-grown tree proves nothing: drop it with the retained ones.
      own.bump();
      other.bump();
      budget = left;
      return Search::kAborted;
    }
  }
  budget = left;
  return Search::kFailed;
}

template <Side S>
DynamicMatcher::Repair DynamicMatcher::repair(
    std::span<const vid_t> own_roots, std::span<const vid_t> other_roots) {
  constexpr Side T = opposite(S);
  const auto freed = static_cast<std::int64_t>(own_roots.size());
  Repair result;
  // One search per freed root, each against the current matching; a
  // root re-matched by an earlier repair path needs no search, and a
  // failed root stays failed (persistence). Consecutive failures
  // retain their trees (valid across sides: a dead tree is dead for
  // every root); each success invalidates the retained forest.
  bool fresh = true;
  std::int64_t unlimited = kUnlimited;
  for (const vid_t r : own_roots) {
    if (result.paths == freed) return result;
    if (mate<S>(matching_, r) != kInvalidVertex) continue;
    const bool found = augment<S>(r, fresh, unlimited) == Search::kFound;
    note_search(found);
    fresh = found;
    result.paths += found;
  }
  std::int64_t budget = proof_edges_;
  for (const vid_t r : other_roots) {
    if (result.paths == freed) return result;
    if (mate<T>(matching_, r) != kInvalidVertex) continue;
    const Search outcome = augment<T>(r, fresh, budget);
    if (outcome == Search::kAborted) {
      ++counters_.budget_aborts;
      result.aborted = true;
      return result;
    }
    const bool found = outcome == Search::kFound;
    note_search(found);
    fresh = found;
    result.paths += found;
  }
  return result;
}

template <Side S>
void DynamicMatcher::sweep_to_maximum(std::int64_t bound) {
  constexpr Side T = opposite(S);
  const Timer sweep_timer;
  obs::emit_begin(obs::names::kDynamicReaugment);
  std::int64_t searches = 0;
  std::int64_t paths = 0;
  std::int64_t unlimited = kUnlimited;
  // `bound` more paths would bring |M| to an upper bound of the maximum,
  // so the sweep stops there (the counting proof). Otherwise augmenting
  // never frees a vertex, so a round with zero paths found proves
  // maximality (every free S vertex was searched and failed). The
  // persistence argument makes round 2 that proof round in practice.
  // Within a round, consecutive failed searches retain their trees (see
  // the class comment), so a failure-dominated round -- the norm on
  // heavily deficient graphs -- costs one walk of the region.
  for (;;) {
    ++counters_.sweep_rounds;
    std::int64_t found = 0;
    bool any_free_other = false;
    for (vid_t v = 0; v < side_size<T>(overlay_) && !any_free_other; ++v) {
      any_free_other = mate<T>(matching_, v) == kInvalidVertex;
    }
    if (any_free_other) {
      bool fresh = true;
      for (vid_t u = 0; u < side_size<S>(overlay_) && paths + found < bound;
           ++u) {
        if (mate<S>(matching_, u) != kInvalidVertex) continue;
        ++searches;
        const bool ok = augment<S>(u, fresh, unlimited) == Search::kFound;
        note_search(ok);
        fresh = ok;
        found += ok;
      }
    }
    paths += found;
    if (found == 0 || paths == bound) break;
  }
  obs::emit_end(obs::names::kDynamicReaugment, searches, paths);
  counters_.reaugment_seconds += sweep_timer.elapsed();
}

void DynamicMatcher::sweep_from_proof_side(std::int64_t bound) {
  if (proof_side_ == Side::kX) {
    sweep_to_maximum<Side::kX>(bound);
  } else {
    sweep_to_maximum<Side::kY>(bound);
  }
}

void DynamicMatcher::choose_proof_side() {
  // The walks share one epoch of the visited stamps: from a maximum
  // matching the two regions are disjoint (a vertex in both would close
  // an augmenting path), so neither walk meets the other's marks.
  visited_[index(Side::kX)].bump();
  visited_[index(Side::kY)].bump();
  std::vector<vid_t> y_queue;
  RegionWalk<Side::kX> x(overlay_, matching_, visited_[index(Side::kX)],
                         visited_[index(Side::kY)], queue_);
  RegionWalk<Side::kY> y(overlay_, matching_, visited_[index(Side::kY)],
                         visited_[index(Side::kX)], y_queue);
  // Both walks advance to the same edge count each turn, so the first
  // to run out is the smaller region, found for about twice its cost.
  constexpr std::int64_t kTurnEdges = 4096;
  for (std::int64_t target = kTurnEdges;; target += kTurnEdges) {
    const bool x_done = x.advance(target);
    const bool y_done = y.advance(target);
    if (x_done || y_done) {
      const bool y_smaller = !x_done || y.edges() < x.edges();
      proof_side_ = y_done && y_smaller ? Side::kY : Side::kX;
      proof_edges_ = proof_side_ == Side::kX ? x.edges() : y.edges();
      break;
    }
  }
  counters_.proof_side = proof_side_ == Side::kX ? 'x' : 'y';
}

void DynamicMatcher::note_search(bool found_path) {
  failure_streak_ = found_path ? 0 : failure_streak_ + 1;
}

bool DynamicMatcher::staleness_tripped() const {
  const auto denom =
      static_cast<double>(std::max<std::int64_t>(edges_at_resolve_, 1));
  if (static_cast<double>(churn_since_resolve_) >
      config_.staleness_delta_fraction * denom) {
    return true;
  }
  return config_.staleness_failure_streak > 0 &&
         failure_streak_ >= config_.staleness_failure_streak;
}

void DynamicMatcher::full_resolve() {
  const Timer resolve_timer;
  counters_.overlay_peak = std::max(counters_.overlay_peak, overlay_.cost());
  if (overlay_.cost() > 0) {
    obs::emit_begin(obs::names::kDynamicCompact, overlay_.live_edges());
    overlay_.compact();
    obs::emit_end(obs::names::kDynamicCompact, overlay_.live_edges());
    ++counters_.compactions;
  }
  Matching fresh(overlay_.num_x(), overlay_.num_y());
  engine::run(*session_, config_.solver, config_.initializer,
              overlay_.base(), fresh, config_.run);
  matching_ = std::move(fresh);
  cardinality_ = matching_.cardinality();
  churn_since_resolve_ = 0;
  edges_at_resolve_ = overlay_.live_edges();
  failure_streak_ = 0;
  choose_proof_side();
  ++counters_.resolves;
  counters_.resolve_seconds += resolve_timer.elapsed();
}

void DynamicMatcher::maybe_compact() {
  counters_.overlay_peak = std::max(counters_.overlay_peak, overlay_.cost());
  if (overlay_.cost() == 0) return;
  const auto threshold =
      config_.compact_fraction * static_cast<double>(overlay_.base_edges());
  if (static_cast<double>(overlay_.cost()) <= threshold) return;
  const Timer compact_timer;
  obs::emit_begin(obs::names::kDynamicCompact, overlay_.live_edges());
  overlay_.compact();
  obs::emit_end(obs::names::kDynamicCompact, overlay_.live_edges());
  ++counters_.compactions;
  counters_.compact_seconds += compact_timer.elapsed();
}

void DynamicMatcher::compact() {
  const SessionScope scope(*session_);
  counters_.overlay_peak = std::max(counters_.overlay_peak, overlay_.cost());
  if (overlay_.cost() == 0) return;
  const Timer compact_timer;
  obs::emit_begin(obs::names::kDynamicCompact, overlay_.live_edges());
  overlay_.compact();
  obs::emit_end(obs::names::kDynamicCompact, overlay_.live_edges());
  ++counters_.compactions;
  counters_.compact_seconds += compact_timer.elapsed();
}

void DynamicMatcher::resolve() {
  const SessionScope scope(*session_);
  full_resolve();
  if (config_.check_invariants) audit();
}

void DynamicMatcher::audit() const {
  const BipartiteGraph live = overlay_.materialize();
  if (!is_valid_matching(live, matching_)) {
    throw std::logic_error("DynamicMatcher: matching invalid after batch");
  }
  if (matching_.cardinality() != cardinality_) {
    throw std::logic_error(
        "DynamicMatcher: cached cardinality out of sync with matching");
  }
  if (!is_maximum_matching(live, matching_)) {
    throw std::logic_error(
        "DynamicMatcher: matching lost maximality (Koenig certificate)");
  }
}

RunStats DynamicMatcher::stats() const {
  RunStats stats;
  stats.algorithm = "dynamic+" + config_.solver;
  stats.initial_cardinality = cardinality_;
  stats.final_cardinality = cardinality_;
  stats.augmentations = counters_.reaugment_paths;
  stats.total_path_edges = 0;
  stats.threads_used = std::max(config_.run.threads, 1);
  stats.seconds = counters_.apply_seconds;
  stats.dynamic = counters_;
  stats.dynamic.collected = true;
  return stats;
}

}  // namespace graftmatch::dynamic
