// Differential oracle battery for the dynamic/ subsystem.
//
// The DynamicMatcher claims a MAXIMUM matching after every churn batch;
// nothing in this file trusts that claim. After every randomized
// add/remove batch the matcher's graph is materialized and re-solved
// from scratch with Hopcroft-Karp (baselines/, zero code shared with
// the incremental path), the cardinalities must agree exactly, and the
// Koenig certificate must accept the incremental matching on the
// materialized CSR. A second battery drives tiny graphs through
// exhaustive churn sequences against a self-contained Kuhn reference,
// and the staleness/compaction knobs are swept to their degenerate
// settings (always-resolve, compact-every-batch, streak-of-one) to
// prove the heuristics are cost-only: every setting must produce the
// same cardinality trajectory.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/dynamic/dynamic_matcher.hpp"
#include "graftmatch/dynamic/overlay.hpp"
#include "graftmatch/gen/chung_lu.hpp"
#include "graftmatch/gen/erdos_renyi.hpp"
#include "graftmatch/gen/grid.hpp"
#include "graftmatch/gen/rmat.hpp"
#include "graftmatch/gen/sbm.hpp"
#include "graftmatch/gen/webcrawl.hpp"
#include "graftmatch/graftmatch.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "json_check.hpp"

namespace graftmatch {
namespace {

using dynamic::DynamicConfig;
using dynamic::DynamicMatcher;
using dynamic::GraphOverlay;

std::int64_t hk_cardinality(const BipartiteGraph& g) {
  Matching m(g.num_x(), g.num_y());
  hopcroft_karp(g, m);
  return m.cardinality();
}

/// Six structurally distinct generators, small enough that the
/// per-batch from-scratch oracle stays cheap.
BipartiteGraph corpus_graph(int which, std::uint64_t seed) {
  switch (which) {
    case 0: {
      ErdosRenyiParams p;
      p.nx = 400;
      p.ny = 360;
      p.edges = 1800;
      p.seed = seed;
      return generate_erdos_renyi(p);
    }
    case 1: {
      GridParams p;
      p.width = 20;
      p.height = 20;
      p.diagonal_drop = 0.3;  // imperfect, so deletions hit matched edges
      p.seed = seed;
      return generate_grid(p);
    }
    case 2: {
      WebCrawlParams p;
      p.nx = 400;
      p.ny = 350;
      p.avg_degree = 4.0;
      p.hub_count = 12;
      p.seed = seed;
      return generate_webcrawl(p);
    }
    case 3: {
      ChungLuParams p;
      p.nx = 400;
      p.ny = 400;
      p.avg_degree = 5.0;
      p.max_degree = 64;
      p.seed = seed;
      return generate_chung_lu(p);
    }
    case 4: {
      SbmParams p;
      p.rows_per_block = 60;
      p.cols_per_block = 50;
      p.blocks = 6;
      p.in_degree = 3.0;
      p.out_degree = 0.2;
      p.seed = seed;
      return generate_sbm(p);
    }
    default: {
      RmatParams p;
      p.scale = 8;
      p.edge_factor = 6.0;
      p.seed = seed;
      return generate_rmat(p);
    }
  }
}

constexpr int kCorpusSize = 6;
const char* corpus_name(int which) {
  static const char* kNames[kCorpusSize] = {"er",       "grid", "webcrawl",
                                            "chung_lu", "sbm",  "rmat"};
  return kNames[which];
}

/// Deterministic churn driver: interleaves removals (drawn from the
/// live edge set) and insertions (removed edges re-added plus fresh
/// random pairs), checking the matcher against the oracle after every
/// batch. Batch sizes sweep 1..256 so single-edge updates and
/// bulk updates both get covered. `sides_seen`, when given, collects
/// the proof sides the matcher reported (bit 0: x, bit 1: y).
void churn_against_oracle(const BipartiteGraph& start, std::uint64_t seed,
                          const DynamicConfig& config,
                          const std::string& label, int batches = 10,
                          unsigned* sides_seen = nullptr) {
  SessionContext session;
  DynamicMatcher matcher(session, start, config);
  const auto note_side = [&] {
    if (sides_seen != nullptr) {
      *sides_seen |= matcher.stats().dynamic.proof_side == 'x' ? 1u : 2u;
    }
  };
  note_side();

  Xoshiro256 rng(mix64(seed ^ 0xd15c0u));
  std::vector<Edge> live = start.to_edges().edges;
  std::vector<Edge> removed;
  const int kBatchSizes[] = {1, 3, 16, 64, 256};
  for (int step = 0; step < batches; ++step) {
    const int want =
        kBatchSizes[step % (sizeof(kBatchSizes) / sizeof(kBatchSizes[0]))];
    std::vector<Edge> batch;
    const bool remove = (step % 2) == 0;
    if (remove) {
      for (int k = 0; k < want && !live.empty(); ++k) {
        const std::size_t pick = rng.below(live.size());
        batch.push_back(live[pick]);
        removed.push_back(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
      matcher.remove_edges(batch);
    } else {
      for (int k = 0; k < want; ++k) {
        if (!removed.empty() && rng.below(2) == 0) {
          batch.push_back(removed.back());
          removed.pop_back();
        } else {
          batch.push_back({static_cast<vid_t>(rng.below(
                               static_cast<std::uint64_t>(start.num_x()))),
                           static_cast<vid_t>(rng.below(
                               static_cast<std::uint64_t>(start.num_y())))});
        }
      }
      matcher.add_edges(batch);
      for (const Edge& e : batch) live.push_back(e);
    }
    // De-dup `live` lazily: insertion of an already-live edge is a
    // no-op in the matcher, and double-removal batches are themselves
    // a case worth exercising.

    const BipartiteGraph snapshot = matcher.materialize();
    ASSERT_TRUE(is_valid_matching(snapshot, matcher.matching()))
        << label << " step " << step;
    ASSERT_EQ(matcher.cardinality(), matcher.matching().cardinality())
        << label << " step " << step;
    ASSERT_EQ(matcher.cardinality(), hk_cardinality(snapshot))
        << label << " step " << step << " (oracle disagrees)";
    ASSERT_TRUE(is_maximum_matching(snapshot, matcher.matching()))
        << label << " step " << step << " (Koenig rejects)";
    note_side();
  }
}

TEST(DynamicChurn, OracleParityAcrossGeneratorsAndSeeds) {
  unsigned sides_seen = 0;
  for (int which = 0; which < kCorpusSize; ++which) {
    for (std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
      const BipartiteGraph g = corpus_graph(which, seed);
      churn_against_oracle(g, seed, DynamicConfig{},
                           std::string(corpus_name(which)) + "/" +
                               std::to_string(seed),
                           10, &sides_seen);
    }
  }
  // The corpus must prove maximality from both sides, or one
  // instantiation of every search goes untested.
  EXPECT_EQ(sides_seen, 3u);
}

TEST(DynamicChurn, KnobSettingsAreCostOnly) {
  // Degenerate heuristic settings must not change any cardinality:
  // always-resolve, compact-every-batch, failure-streak-of-one, and a
  // never-resolve/never-compact overlay that only re-augments.
  const BipartiteGraph g = corpus_graph(0, 21);
  DynamicConfig always_resolve;
  always_resolve.staleness_delta_fraction = 0.0;
  DynamicConfig always_compact;
  always_compact.compact_fraction = 0.0;
  DynamicConfig streak_one;
  streak_one.staleness_failure_streak = 1;
  DynamicConfig never;
  never.staleness_delta_fraction = 1e9;
  never.compact_fraction = 1e9;
  churn_against_oracle(g, 21, always_resolve, "always_resolve");
  churn_against_oracle(g, 21, always_compact, "always_compact");
  churn_against_oracle(g, 21, streak_one, "streak_one");
  churn_against_oracle(g, 21, never, "never");
}

TEST(DynamicChurn, SelfCheckingModeAndOtherSolvers) {
  // check_invariants audits inside the matcher after every batch; the
  // resolve path must also work through a non-default solver entry.
  const BipartiteGraph g = corpus_graph(2, 31);
  DynamicConfig config;
  config.check_invariants = true;
  config.solver = "hk";
  config.initializer = "streaming_ks";
  config.staleness_delta_fraction = 0.05;  // force frequent re-solves
  churn_against_oracle(g, 31, config, "audited_hk");
}

// ---- the proof side and deletion repair, on hand-built graphs.

/// Disjoint complete blocks: `surplus_x` copies of K(4,3) (one free X
/// each, a free-X region of 12 edges) and `surplus_y` copies of K(3,4)
/// (one free Y each). `transpose` swaps the sides.
BipartiteGraph block_graph(int surplus_x, int surplus_y, bool transpose) {
  EdgeList list;
  const auto add_block = [&](int bx, int by) {
    for (int x = 0; x < bx; ++x) {
      for (int y = 0; y < by; ++y) {
        list.edges.push_back({list.nx + x, list.ny + y});
      }
    }
    list.nx += bx;
    list.ny += by;
  };
  for (int b = 0; b < surplus_x; ++b) add_block(4, 3);
  for (int b = 0; b < surplus_y; ++b) add_block(3, 4);
  if (transpose) {
    std::swap(list.nx, list.ny);
    for (Edge& e : list.edges) e = {e.y, e.x};
  }
  return BipartiteGraph::from_edges(list);
}

void expect_oracle(const DynamicMatcher& matcher, const std::string& label) {
  const BipartiteGraph live = matcher.materialize();
  EXPECT_EQ(matcher.cardinality(), hk_cardinality(live)) << label;
  EXPECT_TRUE(is_maximum_matching(live, matcher.matching())) << label;
}

TEST(DynamicProofSide, SmallerKoenigRegionIsTheProofSide) {
  // Ten X-surplus blocks against one Y-surplus block: the free-Y region
  // scans 12 edges, the free-X region 120, so y proves; transposed, x.
  for (const bool transpose : {false, true}) {
    const char want = transpose ? 'x' : 'y';
    const std::string label = std::string("proof side ") + want;
    const BipartiteGraph g = block_graph(10, 1, transpose);
    SessionContext session;
    DynamicConfig config;
    config.check_invariants = true;
    {
      DynamicMatcher matcher(session, g, config);
      EXPECT_EQ(matcher.stats().dynamic.proof_side, want) << label;
      const std::string json = run_stats_json(matcher.stats());
      EXPECT_NE(json.find(std::string("\"proof_side\":\"") + want + '"'),
                std::string::npos)
          << json;
      // Remove and re-add every edge of one X-surplus block and of the
      // Y-surplus block: the freed roots lie on both sides, and only
      // the proof side's are searched before the sweep.
      const EdgeList edges = g.to_edges();
      std::vector<Edge> batch;
      for (const Edge& e : edges.edges) {
        const vid_t block = transpose ? e.y : e.x;
        if (block < 4 || block >= 40) batch.push_back(e);
      }
      matcher.remove_edges(batch);
      expect_oracle(matcher, label + " after remove");
      matcher.add_edges(batch);
      expect_oracle(matcher, label + " after add");
      EXPECT_EQ(matcher.cardinality(), hk_cardinality(g)) << label;
    }
    churn_against_oracle(g, 61, config, label);
  }
}

/// The ladder: a_1..a_w each own a private c_i, x_b - y_b with y_b also
/// adjacent to every a_i, an isolated x_f, and disjoint complete blocks
/// K(bx, by). Every maximum matching pairs a_i-c_i (a free c_i would
/// leave x_b - y_b = a_i - c_i augmenting) and x_b - y_b, so x_f is the
/// ladder's only free vertex and the blocks decide the proof side: a
/// K(b + 1, b) block adds b(b + 1) edges to the free-X region, a
/// K(b, b + 1) block as many to the free-Y region. `transpose` swaps
/// the sides. Vertex ids on the ladder's sides: a_i = c_i = i - 1,
/// x_b = y_b = w, x_f = w + 1.
struct Ladder {
  BipartiteGraph graph;
  Edge bridge;   ///< (x_f, c_w): added after construction
  Edge matched;  ///< (x_b, y_b): the deletion
};

Ladder ladder(int w, const std::vector<std::pair<int, int>>& blocks,
              bool transpose) {
  EdgeList list;
  list.nx = w + 2;
  list.ny = w + 1;
  for (int i = 0; i < w; ++i) {
    list.edges.push_back({i, i});
    list.edges.push_back({i, w});
  }
  list.edges.push_back({w, w});
  for (const auto& [bx, by] : blocks) {
    for (int x = 0; x < bx; ++x) {
      for (int y = 0; y < by; ++y) {
        list.edges.push_back({list.nx + x, list.ny + y});
      }
    }
    list.nx += bx;
    list.ny += by;
  }
  Edge bridge{w + 1, w - 1};
  Edge matched{w, w};
  if (transpose) {
    std::swap(list.nx, list.ny);
    for (Edge& e : list.edges) e = {e.y, e.x};
    bridge = {bridge.y, bridge.x};
  }
  return {BipartiteGraph::from_edges(list), bridge, matched};
}

TEST(DynamicProofSide, PathFromAnOldFreeXToTheFreedY) {
  // Deleting (x_b, y_b) isolates x_b, and the one augmenting path runs
  // from the OLD free x_f through c_w = a_w to the freed y_b; y_b's
  // search spends w + (w + 1) edges of budget to find it. Each case
  // pins one repair path, in both orientations:
  //  * y proves (two K(4,3): free-X region 24 edges against 12): y_b's
  //    own proof-side search repairs it.
  //  * x proves with a K(3,2) (free-X region 6 edges, the budget): for
  //    w = 1 the other-side search from y_b fits the budget and repairs
  //    it; for w = 4 it runs out, and only the sweep from x_f can.
  //  * x proves with no X block (free-X region 0 edges): the budget is
  //    empty, so the sweep repairs it.
  enum class Path { kProofSide, kOtherSide, kSweep };
  struct Case {
    int w;
    std::vector<std::pair<int, int>> blocks;
    char proof_side;
    Path path;
  };
  const std::vector<Case> cases = {
      {1, {{3, 4}, {4, 3}, {4, 3}}, 'y', Path::kProofSide},
      {4, {{3, 4}, {4, 3}, {4, 3}}, 'y', Path::kProofSide},
      {1, {{3, 4}, {3, 2}}, 'x', Path::kOtherSide},
      {4, {{3, 4}, {3, 2}}, 'x', Path::kSweep},
      {1, {{3, 4}}, 'x', Path::kSweep},
      {4, {{3, 4}}, 'x', Path::kSweep},
  };
  for (const Case& c : cases) {
    for (const bool transpose : {false, true}) {
      const std::string label = "w=" + std::to_string(c.w) + " blocks=" +
                                std::to_string(c.blocks.size()) +
                                (transpose ? " transposed" : "");
      const Ladder l = ladder(c.w, c.blocks, transpose);
      SessionContext session;
      DynamicConfig config;
      config.check_invariants = true;
      DynamicMatcher matcher(session, l.graph, config);
      EXPECT_EQ(matcher.stats().dynamic.proof_side,
                transpose == (c.proof_side == 'x') ? 'y' : 'x')
          << label;
      const std::int64_t full = matcher.cardinality();
      EXPECT_EQ(matcher.add_edges({&l.bridge, 1}), 1);
      EXPECT_EQ(matcher.cardinality(), full) << label;
      const DynamicCounters before = matcher.stats().dynamic;
      EXPECT_EQ(matcher.remove_edges({&l.matched, 1}), 1);
      const DynamicCounters after = matcher.stats().dynamic;
      EXPECT_EQ(matcher.cardinality(), full) << label;
      EXPECT_EQ(after.resolves, before.resolves) << label;
      const std::int64_t searches =
          after.reaugment_searches - before.reaugment_searches;
      if (c.path == Path::kSweep) {
        EXPECT_EQ(after.budget_aborts - before.budget_aborts, 1) << label;
        EXPECT_GT(after.sweep_rounds, before.sweep_rounds) << label;
      } else {
        EXPECT_EQ(searches, c.path == Path::kProofSide ? 1 : 2) << label;
        EXPECT_EQ(after.reaugment_paths - before.reaugment_paths, 1)
            << label;
        EXPECT_EQ(after.sweep_rounds, before.sweep_rounds) << label;
        EXPECT_EQ(after.budget_aborts, before.budget_aborts) << label;
      }
      expect_oracle(matcher, label);
      // Re-adding the edge leaves the maximum where it was: a_i, x_b
      // and x_f compete for the w + 1 ladder Ys either way.
      EXPECT_EQ(matcher.add_edges({&l.matched, 1}), 1);
      EXPECT_EQ(matcher.cardinality(), full) << label;
      expect_oracle(matcher, label + " re-added");
    }
  }
}

TEST(DynamicProofSide, PartialRepairNeedsTheSweep) {
  // Matched x1 - y_b and x2 - y_a with unmatched x1 - y_a, x0 - y_a and
  // x1 - y0 added later (x0, y0 free; y_a < y0 in x1's adjacency).
  // Deleting both matched edges frees k = 2 pairs. The proof-side
  // search from x1 takes the nearest free vertex, y_a -- the freed
  // endpoint of the OTHER deletion -- so p = 1, and every remaining
  // freed root is now isolated. The missing path x0 - y_a = x1 - y0
  // runs between two old free vertices; only the sweep finds it. The
  // same holds transposed, where the search from y_a takes x1.
  for (const bool transpose : {false, true}) {
    const std::string label = transpose ? "transposed" : "plain";
    const vid_t x1 = 0, x2 = 1, x0 = 2, ya = 0, yb = 1, y0 = 2;
    std::vector<Edge> start = {{x1, yb}, {x2, ya}};
    std::vector<Edge> added = {{x1, ya}, {x0, ya}, {x1, y0}};
    std::vector<Edge> removed = {{x1, yb}, {x2, ya}};
    if (transpose) {
      for (auto* edges : {&start, &added, &removed}) {
        for (Edge& e : *edges) e = {e.y, e.x};
      }
    }
    EdgeList list;
    list.nx = 3;
    list.ny = 3;
    list.edges = start;
    SessionContext session;
    DynamicConfig config;
    config.check_invariants = true;
    DynamicMatcher matcher(session, BipartiteGraph::from_edges(list), config);
    EXPECT_EQ(matcher.add_edges(added), 3);
    EXPECT_EQ(matcher.cardinality(), 2) << label;
    const DynamicCounters before = matcher.stats().dynamic;
    EXPECT_EQ(matcher.remove_edges(removed), 2);
    const DynamicCounters after = matcher.stats().dynamic;
    EXPECT_EQ(matcher.cardinality(), 2) << label;
    EXPECT_EQ(after.budget_aborts, before.budget_aborts) << label;
    EXPECT_GT(after.sweep_rounds, before.sweep_rounds) << label;
    expect_oracle(matcher, label);
  }
}

// ---- exhaustive tiny-graph churn against an independent Kuhn
// reference (adjacency-matrix based, no library code).
class KuhnReference {
 public:
  KuhnReference(int nx, int ny, const std::vector<std::vector<bool>>& adj)
      : nx_(nx), ny_(ny), adj_(adj),
        mate_y_(static_cast<std::size_t>(ny), -1) {}

  int solve() {
    int result = 0;
    for (int x = 0; x < nx_; ++x) {
      seen_.assign(static_cast<std::size_t>(ny_), false);
      if (try_augment(x)) ++result;
    }
    return result;
  }

 private:
  bool try_augment(int x) {
    for (int y = 0; y < ny_; ++y) {
      const auto yi = static_cast<std::size_t>(y);
      if (!adj_[static_cast<std::size_t>(x)][yi] || seen_[yi]) continue;
      seen_[yi] = true;
      if (mate_y_[yi] < 0 || try_augment(mate_y_[yi])) {
        mate_y_[yi] = x;
        return true;
      }
    }
    return false;
  }

  int nx_;
  int ny_;
  const std::vector<std::vector<bool>>& adj_;
  std::vector<int> mate_y_;
  std::vector<bool> seen_;
};

TEST(DynamicChurn, ExhaustiveTinyChurnVsKuhn) {
  // Tiny graphs hit the degenerate shapes (empty sides, isolated
  // vertices, complete blocks) far more densely than the corpus does.
  // 4x4 universe, every churn sequence of 8 single-edge flips over a
  // random starting graph, cross-checked against Kuhn on the adjacency
  // matrix after EVERY flip.
  Xoshiro256 rng(mix64(0xe4a57));
  for (int trial = 0; trial < 150; ++trial) {
    const int nx = 1 + static_cast<int>(rng.below(4));
    const int ny = 1 + static_cast<int>(rng.below(4));
    std::vector<std::vector<bool>> adj(
        static_cast<std::size_t>(nx),
        std::vector<bool>(static_cast<std::size_t>(ny), false));
    EdgeList list;
    list.nx = nx;
    list.ny = ny;
    const double density = rng.uniform();
    for (int x = 0; x < nx; ++x) {
      for (int y = 0; y < ny; ++y) {
        if (rng.uniform() < density) {
          adj[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)] =
              true;
          list.edges.push_back({x, y});
        }
      }
    }
    SessionContext session;
    DynamicConfig config;
    config.check_invariants = true;
    DynamicMatcher matcher(session, BipartiteGraph::from_edges(list),
                           config);
    for (int flip = 0; flip < 8; ++flip) {
      const int x = static_cast<int>(rng.below(static_cast<std::uint64_t>(nx)));
      const int y = static_cast<int>(rng.below(static_cast<std::uint64_t>(ny)));
      auto cell = adj[static_cast<std::size_t>(x)].begin() + y;
      const Edge e{x, y};
      if (*cell) {
        *cell = false;
        EXPECT_EQ(matcher.remove_edges({&e, 1}), 1);
      } else {
        *cell = true;
        EXPECT_EQ(matcher.add_edges({&e, 1}), 1);
      }
      KuhnReference reference(nx, ny, adj);
      ASSERT_EQ(matcher.cardinality(), reference.solve())
          << "trial " << trial << " flip " << flip << " nx=" << nx
          << " ny=" << ny;
    }
  }
}

// ---- GraphOverlay unit contracts.

BipartiteGraph tiny_graph() {
  EdgeList list;
  list.nx = 3;
  list.ny = 3;
  list.edges = {{0, 0}, {0, 1}, {1, 1}, {2, 2}};
  return BipartiteGraph::from_edges(list);
}

TEST(GraphOverlay, InsertEraseResurrectRoundTrip) {
  GraphOverlay overlay(tiny_graph());
  EXPECT_EQ(overlay.live_edges(), 4);
  EXPECT_TRUE(overlay.has_edge(0, 1));
  EXPECT_FALSE(overlay.insert(0, 1));  // already live in the base
  EXPECT_TRUE(overlay.erase(0, 1));    // tombstone
  EXPECT_FALSE(overlay.has_edge(0, 1));
  EXPECT_EQ(overlay.live_edges(), 3);
  EXPECT_EQ(overlay.cost(), 1);
  EXPECT_FALSE(overlay.erase(0, 1));  // double erase is a no-op
  EXPECT_TRUE(overlay.insert(0, 1));  // resurrects the tombstoned slot
  EXPECT_TRUE(overlay.has_edge(0, 1));
  EXPECT_EQ(overlay.cost(), 0);  // resurrection, not a delta entry
  EXPECT_TRUE(overlay.insert(2, 0));  // genuinely new -> delta
  EXPECT_EQ(overlay.cost(), 1);
  EXPECT_EQ(overlay.live_edges(), 5);
  EXPECT_TRUE(overlay.erase(2, 0));  // delta removal, not a tombstone
  EXPECT_EQ(overlay.cost(), 0);
  EXPECT_THROW(overlay.insert(3, 0), std::out_of_range);
  EXPECT_THROW(overlay.erase(0, -1), std::out_of_range);
  EXPECT_FALSE(overlay.has_edge(5, 5));  // out of range reads are false
}

TEST(GraphOverlay, DegreesAndNeighborIterationTrackLiveSet) {
  GraphOverlay overlay(tiny_graph());
  ASSERT_TRUE(overlay.erase(0, 0));
  ASSERT_TRUE(overlay.insert(0, 2));
  EXPECT_EQ(overlay.degree_x(0), 2);  // {1 (base), 2 (delta)}
  EXPECT_EQ(overlay.degree_y(2), 2);  // {0 (delta), 2 (base)}
  EXPECT_EQ(overlay.degree_y(0), 0);
  std::vector<vid_t> seen;
  overlay.for_each_neighbor_x(0, [&](vid_t y) {
    seen.push_back(y);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<vid_t>{1, 2}));
  seen.clear();
  overlay.for_each_neighbor_y(2, [&](vid_t x) {
    seen.push_back(x);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<vid_t>{2, 0}));  // base slots, then delta
  // Early exit: callback returning false stops the walk.
  int visits = 0;
  EXPECT_FALSE(overlay.for_each_neighbor_x(0, [&](vid_t) {
    ++visits;
    return false;
  }));
  EXPECT_EQ(visits, 1);
}

TEST(GraphOverlay, MaterializeAndCompactPreserveLiveSet) {
  ErdosRenyiParams params;
  params.nx = 80;
  params.ny = 70;
  params.edges = 300;
  const BipartiteGraph g = generate_erdos_renyi(params);
  GraphOverlay overlay(g);
  Xoshiro256 rng(mix64(7));
  for (int k = 0; k < 120; ++k) {
    const vid_t x = static_cast<vid_t>(rng.below(80));
    const vid_t y = static_cast<vid_t>(rng.below(70));
    if (overlay.has_edge(x, y)) {
      overlay.erase(x, y);
    } else {
      overlay.insert(x, y);
    }
  }
  const BipartiteGraph before = overlay.materialize();
  const std::int64_t live = overlay.live_edges();
  EXPECT_EQ(before.num_edges(), live);
  for (vid_t x = 0; x < before.num_x(); ++x) {
    for (const vid_t y : before.neighbors_of_x(x)) {
      EXPECT_TRUE(overlay.has_edge(x, y));
    }
  }
  overlay.compact();
  EXPECT_EQ(overlay.cost(), 0);
  EXPECT_EQ(overlay.live_edges(), live);
  EXPECT_EQ(overlay.base_edges(), live);
  const BipartiteGraph after = overlay.materialize();
  for (vid_t x = 0; x < before.num_x(); ++x) {
    ASSERT_EQ(before.degree_x(x), after.degree_x(x)) << x;
  }
}

// ---- counters and the strict-JSON "dynamic" stats block.

TEST(DynamicStats, CountersAndStrictJson) {
  SessionContext session;
  DynamicConfig config;
  config.compact_fraction = 0.0;  // force compactions so the counter moves
  const BipartiteGraph g = corpus_graph(0, 41);
  DynamicMatcher matcher(session, g, config);

  const EdgeList edges = g.to_edges();
  std::vector<Edge> batch(edges.edges.begin(), edges.edges.begin() + 32);
  EXPECT_EQ(matcher.remove_edges(batch), 32);
  EXPECT_EQ(matcher.add_edges(batch), 32);
  EXPECT_EQ(matcher.add_edges(batch), 0);  // all already live

  const RunStats stats = matcher.stats();
  EXPECT_EQ(stats.algorithm, "dynamic+graft");
  ASSERT_TRUE(stats.dynamic.collected);
  EXPECT_EQ(stats.dynamic.batches, 3);
  EXPECT_EQ(stats.dynamic.edges_added, 32);
  EXPECT_EQ(stats.dynamic.edges_removed, 32);
  EXPECT_GE(stats.dynamic.compactions, 1);
  EXPECT_GE(stats.dynamic.overlay_peak, 1);
  EXPECT_EQ(stats.final_cardinality, matcher.cardinality());

  std::string error;
  EXPECT_TRUE(testing::json_valid(run_stats_json(stats), &error)) << error;

  // The NaN/Inf guard: poisoned timings must still yield strict JSON.
  RunStats poisoned = stats;
  poisoned.dynamic.apply_seconds = std::numeric_limits<double>::quiet_NaN();
  poisoned.dynamic.resolve_seconds =
      std::numeric_limits<double>::infinity();
  poisoned.dynamic.reaugment_seconds =
      -std::numeric_limits<double>::infinity();
  EXPECT_TRUE(testing::json_valid(run_stats_json(poisoned), &error)) << error;
}

TEST(DynamicStats, ResolveAndCompactEntryPoints) {
  SessionContext session;
  const BipartiteGraph g = corpus_graph(4, 51);
  DynamicConfig config;
  config.staleness_delta_fraction = 1e9;  // never auto-resolve
  config.compact_fraction = 1e9;          // never auto-compact
  DynamicMatcher matcher(session, g, config);
  const std::int64_t before = matcher.cardinality();

  const EdgeList edges = g.to_edges();
  std::vector<Edge> batch(edges.edges.begin(), edges.edges.begin() + 16);
  matcher.remove_edges(batch);
  EXPECT_GT(matcher.overlay().cost(), 0);
  matcher.compact();
  EXPECT_EQ(matcher.overlay().cost(), 0);
  EXPECT_EQ(matcher.stats().dynamic.compactions, 1);
  EXPECT_EQ(matcher.cardinality(), hk_cardinality(matcher.materialize()));

  matcher.resolve();
  EXPECT_EQ(matcher.stats().dynamic.resolves, 1);
  EXPECT_EQ(matcher.cardinality(), hk_cardinality(matcher.materialize()));

  matcher.add_edges(batch);
  EXPECT_EQ(matcher.cardinality(), before);
}

}  // namespace
}  // namespace graftmatch
