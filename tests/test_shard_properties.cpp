// Property battery for the sharded-execution layer (shard/) and its
// engine driver run_sharded.
//
// classify_shards computes an APPROXIMATE coarse DM partition from the
// initializer's (maximal, not necessarily maximum) matching; the
// correctness of the whole pipeline rests on three theorems this file
// tests directly:
//
//   1. with a MAXIMUM matching the approximate partition IS the exact
//      coarse DM partition (classify_shards == dm_decompose);
//   2. matched pairs never straddle a class or a V component, and every
//      neighbor of a V row lands in the same component (closure), so
//      blocks really are independent subproblems;
//   3. every M0-augmenting path is confined to one V component, so
//      solving each solvable block to maximum and stitching yields the
//      global maximum: nu(G) = frozen_matched + sum_i nu(block_i).
//
// On top sit the mechanical contracts: extract/stitch round-trips, the
// payoff-gate abort semantics, run_sharded vs run_reduced cardinality
// across the whole solver registry, an exhaustive small-graph sweep,
// and the strict-JSON robustness of the "shard" stats block.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/dm/dulmage_mendelsohn.hpp"
#include "graftmatch/engine/registry.hpp"
#include "graftmatch/gen/chung_lu.hpp"
#include "graftmatch/gen/sbm.hpp"
#include "graftmatch/gen/webcrawl.hpp"
#include "graftmatch/graftmatch.hpp"
#include "graftmatch/init/greedy.hpp"
#include "graftmatch/init/karp_sipser.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/shard/shard.hpp"
#include "json_check.hpp"

namespace graftmatch {
namespace {

std::int64_t hk_cardinality(const BipartiteGraph& g) {
  Matching m(g.num_x(), g.num_y());
  hopcroft_karp(g, m);
  return m.cardinality();
}

/// Block-rich fixture: disconnected communities, each deficient enough
/// to stay solvable after a greedy start.
BipartiteGraph islands(std::uint64_t seed, int blocks = 8,
                       vid_t rows = 96, vid_t cols = 96,
                       double in_degree = 3.0) {
  SbmParams p;
  p.rows_per_block = rows;
  p.cols_per_block = cols;
  p.blocks = blocks;
  p.in_degree = in_degree;
  p.out_degree = 0.0;
  p.seed = seed;
  return generate_sbm(p);
}

std::vector<BipartiteGraph> fuzz_corpus(std::uint64_t seed) {
  std::vector<BipartiteGraph> graphs;
  graphs.push_back(islands(seed));
  graphs.push_back(islands(seed + 1, 6, 80, 48, 2.0));  // row surplus
  {
    WebCrawlParams p;
    p.nx = 500;
    p.ny = 450;
    p.avg_degree = 4.0;
    p.gamma = 1.9;
    p.stub_fraction = 0.4;
    p.hub_count = 12;
    p.seed = seed + 2;
    graphs.push_back(generate_webcrawl(p));
  }
  {
    ChungLuParams p;
    p.nx = 600;
    p.ny = 600;
    p.avg_degree = 2.0;
    p.seed = seed + 3;
    graphs.push_back(generate_chung_lu(p));
  }
  return graphs;
}

std::vector<Matching> initial_matchings(const BipartiteGraph& g,
                                        std::uint64_t seed) {
  std::vector<Matching> starts;
  starts.emplace_back(g.num_x(), g.num_y());  // empty
  starts.push_back(greedy_maximal(g));
  starts.push_back(randomized_greedy(g, seed));
  starts.push_back(karp_sipser(g, seed));
  return starts;
}

// ---------------------------------------------------------------------
// Theorem 1: exactness on a maximum matching.
// ---------------------------------------------------------------------

class ShardProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardProperties, ClassificationIsExactOnMaximumMatching) {
  for (const BipartiteGraph& g : fuzz_corpus(GetParam())) {
    Matching maximum(g.num_x(), g.num_y());
    hopcroft_karp(g, maximum);
    const shard::ShardClassification c =
        shard::classify_shards(g, maximum);
    ASSERT_FALSE(c.aborted);
    const DmDecomposition dm = dm_decompose(g, maximum);
    for (vid_t x = 0; x < g.num_x(); ++x) {
      ASSERT_EQ(c.row_class[static_cast<std::size_t>(x)],
                dm.row_block[static_cast<std::size_t>(x)])
          << "row " << x;
    }
    for (vid_t y = 0; y < g.num_y(); ++y) {
      ASSERT_EQ(c.col_class[static_cast<std::size_t>(y)],
                dm.col_block[static_cast<std::size_t>(y)])
          << "col " << y;
    }
    // A maximum matching leaves no solvable component: every component
    // is missing a free row or a free column.
    EXPECT_EQ(c.solvable_blocks(), 0);
  }
}

// ---------------------------------------------------------------------
// Theorem 2: structural invariants for ANY maximal starting matching.
// ---------------------------------------------------------------------

void check_classification_invariants(const BipartiteGraph& g,
                                     const Matching& m0,
                                     const shard::ShardClassification& c) {
  const auto nx = static_cast<std::size_t>(g.num_x());
  const auto ny = static_cast<std::size_t>(g.num_y());
  ASSERT_EQ(c.row_class.size(), nx);
  ASSERT_EQ(c.col_class.size(), ny);
  ASSERT_EQ(c.row_component.size(), nx);
  ASSERT_EQ(c.col_component.size(), ny);

  const auto comps = static_cast<std::int64_t>(c.components.size());
  std::int64_t h_rows = 0;
  std::int64_t s_rows = 0;
  std::vector<std::int64_t> rows_in(static_cast<std::size_t>(comps), 0);
  std::vector<std::int64_t> cols_in(static_cast<std::size_t>(comps), 0);
  std::vector<std::int64_t> edges_in(static_cast<std::size_t>(comps), 0);
  std::vector<std::int64_t> unmatched_rows(static_cast<std::size_t>(comps),
                                           0);
  std::vector<std::int64_t> unmatched_cols(static_cast<std::size_t>(comps),
                                           0);
  std::vector<std::int64_t> matched(static_cast<std::size_t>(comps), 0);

  for (std::size_t x = 0; x < nx; ++x) {
    const std::int64_t comp = c.row_component[x];
    if (c.row_class[x] == DmBlock::kVertical) {
      // Component ids are dense and V-only.
      ASSERT_GE(comp, 0) << "V row " << x << " without a component";
      ASSERT_LT(comp, comps);
      rows_in[static_cast<std::size_t>(comp)] += 1;
      edges_in[static_cast<std::size_t>(comp)] +=
          g.degree_x(static_cast<vid_t>(x));
      if (m0.is_matched_x(static_cast<vid_t>(x))) {
        matched[static_cast<std::size_t>(comp)] += 1;
      } else {
        unmatched_rows[static_cast<std::size_t>(comp)] += 1;
      }
    } else {
      ASSERT_EQ(comp, -1) << "non-V row " << x << " with a component";
      h_rows += c.row_class[x] == DmBlock::kHorizontal ? 1 : 0;
      s_rows += c.row_class[x] == DmBlock::kSquare ? 1 : 0;
      // Unmatched rows always seed the V reach.
      ASSERT_TRUE(m0.is_matched_x(static_cast<vid_t>(x)))
          << "unmatched row " << x << " must be V";
    }
  }
  EXPECT_EQ(h_rows, c.h_rows);
  EXPECT_EQ(s_rows, c.s_rows);

  std::int64_t h_cols = 0;
  std::int64_t s_cols = 0;
  for (std::size_t y = 0; y < ny; ++y) {
    const std::int64_t comp = c.col_component[y];
    if (c.col_class[y] == DmBlock::kVertical) {
      ASSERT_GE(comp, 0) << "V col " << y << " without a component";
      ASSERT_LT(comp, comps);
      cols_in[static_cast<std::size_t>(comp)] += 1;
      if (!m0.is_matched_y(static_cast<vid_t>(y))) {
        unmatched_cols[static_cast<std::size_t>(comp)] += 1;
      }
    } else {
      ASSERT_EQ(comp, -1) << "non-V col " << y << " with a component";
      h_cols += c.col_class[y] == DmBlock::kHorizontal ? 1 : 0;
      s_cols += c.col_class[y] == DmBlock::kSquare ? 1 : 0;
    }
  }
  EXPECT_EQ(h_cols, c.h_cols);
  EXPECT_EQ(s_cols, c.s_cols);

  // Closure: every neighbor of a V row is V, in the SAME component --
  // that is what makes blocks independent. Matched pairs co-travel
  // across every class.
  for (vid_t x = 0; x < g.num_x(); ++x) {
    if (c.row_class[static_cast<std::size_t>(x)] == DmBlock::kVertical) {
      for (const vid_t y : g.neighbors_of_x(x)) {
        ASSERT_EQ(c.col_class[static_cast<std::size_t>(y)],
                  DmBlock::kVertical)
            << "edge (" << x << "," << y << ") leaves V";
        ASSERT_EQ(c.col_component[static_cast<std::size_t>(y)],
                  c.row_component[static_cast<std::size_t>(x)])
            << "edge (" << x << "," << y << ") crosses components";
      }
    }
    const vid_t mate = m0.mate_of_x(x);
    if (mate != kInvalidVertex) {
      ASSERT_EQ(static_cast<int>(c.row_class[static_cast<std::size_t>(x)]),
                static_cast<int>(c.col_class[static_cast<std::size_t>(mate)]))
          << "matched pair (" << x << "," << mate << ") straddles classes";
      ASSERT_EQ(c.row_component[static_cast<std::size_t>(x)],
                c.col_component[static_cast<std::size_t>(mate)])
          << "matched pair (" << x << "," << mate << ") straddles components";
    }
  }

  // Per-component tallies agree with a recount from the label arrays.
  for (std::int64_t i = 0; i < comps; ++i) {
    const shard::ShardComponent& comp =
        c.components[static_cast<std::size_t>(i)];
    EXPECT_EQ(comp.rows, rows_in[static_cast<std::size_t>(i)]) << "comp " << i;
    EXPECT_EQ(comp.cols, cols_in[static_cast<std::size_t>(i)]) << "comp " << i;
    EXPECT_EQ(comp.edges, edges_in[static_cast<std::size_t>(i)])
        << "comp " << i;
    EXPECT_EQ(comp.matched, matched[static_cast<std::size_t>(i)])
        << "comp " << i;
    EXPECT_EQ(comp.unmatched_rows,
              unmatched_rows[static_cast<std::size_t>(i)])
        << "comp " << i;
    EXPECT_EQ(comp.unmatched_cols,
              unmatched_cols[static_cast<std::size_t>(i)])
        << "comp " << i;
    EXPECT_GT(comp.rows, 0) << "empty component " << i;
    EXPECT_EQ(comp.solvable(),
              comp.unmatched_rows > 0 && comp.unmatched_cols > 0);
  }
}

TEST_P(ShardProperties, ClassificationInvariantsOnAnyStart) {
  for (const BipartiteGraph& g : fuzz_corpus(GetParam() + 10)) {
    for (const Matching& m0 : initial_matchings(g, GetParam())) {
      const shard::ShardClassification c = shard::classify_shards(g, m0);
      ASSERT_FALSE(c.aborted);
      check_classification_invariants(g, m0, c);
    }
  }
}

// ---------------------------------------------------------------------
// Theorem 3: augmenting-path confinement. Solving each solvable block
// to maximum recovers exactly the global deficiency.
// ---------------------------------------------------------------------

TEST_P(ShardProperties, BlockSolvesRecoverGlobalMaximum) {
  for (const BipartiteGraph& g : fuzz_corpus(GetParam() + 20)) {
    const std::int64_t nu = hk_cardinality(g);
    for (const Matching& m0 : initial_matchings(g, GetParam() + 1)) {
      const shard::ShardClassification c = shard::classify_shards(g, m0);
      ASSERT_FALSE(c.aborted);
      const std::vector<shard::ShardBlock> blocks =
          shard::extract_blocks(g, m0, c);

      Matching stitched = m0;
      std::int64_t solved_total = 0;
      for (const shard::ShardBlock& block : blocks) {
        // Block extraction invariants: ids sorted, shapes consistent,
        // initial matching projects m0.
        const shard::ShardComponent& comp =
            c.components[static_cast<std::size_t>(block.component)];
        ASSERT_EQ(static_cast<std::int64_t>(block.x_ids.size()), comp.rows);
        ASSERT_EQ(static_cast<std::int64_t>(block.y_ids.size()), comp.cols);
        ASSERT_EQ(block.graph.num_edges(), comp.edges);
        ASSERT_EQ(block.initial.cardinality(), comp.matched);

        Matching local = block.initial;
        hopcroft_karp(block.graph, local);
        solved_total += local.cardinality();
        shard::stitch_block(block, local, stitched);
      }
      std::int64_t frozen = m0.cardinality();
      for (const shard::ShardBlock& block : blocks) {
        frozen -= c.components[static_cast<std::size_t>(block.component)]
                      .matched;
      }
      EXPECT_EQ(frozen + solved_total, nu);
      EXPECT_EQ(stitched.cardinality(), nu);
      EXPECT_TRUE(is_valid_matching(g, stitched));
      EXPECT_TRUE(is_maximum_matching(g, stitched));
    }
  }
}

TEST_P(ShardProperties, ExtractStitchRoundTrip) {
  for (const BipartiteGraph& g : fuzz_corpus(GetParam() + 30)) {
    const Matching m0 = greedy_maximal(g);
    const shard::ShardClassification c = shard::classify_shards(g, m0);
    ASSERT_FALSE(c.aborted);
    Matching rebuilt = m0;
    for (const shard::ShardBlock& block : shard::extract_blocks(g, m0, c)) {
      // Stitching the unsolved projection back must be the identity.
      shard::stitch_block(block, block.initial, rebuilt);
    }
    for (vid_t x = 0; x < g.num_x(); ++x) {
      ASSERT_EQ(rebuilt.mate_of_x(x), m0.mate_of_x(x)) << "row " << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardProperties,
                         ::testing::Values(41, 42, 43));

// ---------------------------------------------------------------------
// Payoff-gate abort semantics.
// ---------------------------------------------------------------------

TEST(ShardGate, AbortLeavesOnlyTheFlagUsable) {
  const BipartiteGraph g = islands(7);
  const Matching m0 = greedy_maximal(g);
  ASSERT_LT(m0.cardinality(), hk_cardinality(g))
      << "fixture must be deficient for the gate to have anything to do";
  // Cap of one edge: the first discovered component outgrows it.
  const shard::ShardClassification c = shard::classify_shards(g, m0, 1);
  EXPECT_TRUE(c.aborted);
  EXPECT_TRUE(c.components.empty());
  // The seed pre-scan aborts before allocating the label arrays.
  EXPECT_TRUE(c.row_class.empty());
  EXPECT_TRUE(c.col_class.empty());

  // Unlimited cap on the same input: full classification.
  const shard::ShardClassification full = shard::classify_shards(g, m0, 0);
  EXPECT_FALSE(full.aborted);
  EXPECT_GT(full.solvable_blocks(), 0);

  // A cap comfortably above every component: identical to unlimited.
  const shard::ShardClassification wide =
      shard::classify_shards(g, m0, g.num_edges());
  ASSERT_FALSE(wide.aborted);
  EXPECT_EQ(wide.solvable_blocks(), full.solvable_blocks());
  EXPECT_EQ(wide.components.size(), full.components.size());
}

TEST(ShardGate, ShapeMismatchThrows) {
  const BipartiteGraph g = islands(8);
  EXPECT_THROW(shard::classify_shards(g, Matching(1, 1)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Engine driver: run_sharded vs run_reduced across the whole registry.
// ---------------------------------------------------------------------

TEST(RunSharded, MatchesUnshardedAcrossRegistry) {
  // 32 small islands keep every component under the engine's m/16
  // payoff cap, so these runs go through extract/solve/stitch rather
  // than the monolithic fallback.
  const BipartiteGraph g = islands(9, 32, 48, 48);
  const std::int64_t nu = hk_cardinality(g);
  for (const engine::SolverInfo& solver : engine::solver_registry()) {
    for (const std::string init : {"none", "rgreedy"}) {
      RunConfig config;
      config.seed = 5;
      config.check_invariants = true;
      config.shard = ShardMode::kDm;
      Matching sharded;
      const RunStats stats =
          engine::run_sharded(solver.name, init, g, sharded, config);
      ASSERT_EQ(sharded.cardinality(), nu) << solver.name << " init=" << init;
      ASSERT_TRUE(is_maximum_matching(g, sharded)) << solver.name;
      ASSERT_EQ(stats.final_cardinality, nu) << solver.name;
      ASSERT_TRUE(stats.shard.collected) << solver.name;

      config.shard = ShardMode::kNone;
      Matching plain;
      const RunStats base =
          engine::run_reduced(solver.name, init, g, plain, config);
      ASSERT_EQ(base.final_cardinality, nu) << solver.name;
      ASSERT_EQ(plain.cardinality(), sharded.cardinality()) << solver.name;
    }
  }
}

TEST(RunSharded, ComposesWithReduce) {
  // Sparse graph so the degree-1 pre-pass actually fires, plus island
  // structure so sharding extracts blocks from the kernel.
  const BipartiteGraph g = islands(10, 32, 64, 64, 1.8);
  const std::int64_t nu = hk_cardinality(g);
  RunConfig config;
  config.seed = 3;
  config.reduce = ReduceMode::kDegree1;
  config.shard = ShardMode::kDm;
  config.check_invariants = true;
  Matching m;
  const RunStats stats = engine::run_sharded("graft", "greedy", g, m, config);
  EXPECT_EQ(m.cardinality(), nu);
  EXPECT_TRUE(is_maximum_matching(g, m));
  EXPECT_EQ(stats.final_cardinality, nu);
  EXPECT_TRUE(stats.reduce.collected);
  EXPECT_TRUE(stats.shard.collected);
}

// The sharded total must fold every per-block counter block, not only
// the phase/edge/step totals. Replay the blocks by hand (same
// initializer, same payoff cap, same one-thread config, so every solve
// is deterministic) and compare the sums.
TEST(RunSharded, BlockCountersFoldIntoTheTotal) {
  const BipartiteGraph g = islands(11, 32, 64, 64);
  RunConfig config;
  config.seed = 2;
  config.threads = 1;
  config.shard = ShardMode::kDm;
  Matching m;
  const RunStats stats = engine::run_sharded("graft", "rgreedy", g, m, config);
  ASSERT_FALSE(stats.shard.fallback);
  ASSERT_GE(stats.shard.blocks_solved, 2);

  const Matching m0 = engine::make_initial_matching("rgreedy", g, config);
  const shard::ShardClassification c =
      shard::classify_shards(g, m0, g.num_edges() / 16);
  const std::vector<shard::ShardBlock> blocks =
      shard::extract_blocks(g, m0, c);
  ASSERT_EQ(static_cast<std::int64_t>(blocks.size()),
            stats.shard.blocks_solved);
  RunStats sum;
  for (const shard::ShardBlock& block : blocks) {
    Matching local = block.initial;
    const RunStats b =
        engine::find_solver("graft").run(block.graph, local, config);
    sum.direction.decisions += b.direction.decisions;
    sum.direction.bottom_up_levels += b.direction.bottom_up_levels;
    sum.direction.switches += b.direction.switches;
    sum.bookkeeping.classified_y += b.bookkeeping.classified_y;
    sum.bookkeeping.epoch_bumps += b.bookkeeping.epoch_bumps;
    sum.team.inline_levels += b.team.inline_levels;
    sum.team.wide_levels += b.team.wide_levels;
    sum.team.regions += b.team.regions;
  }
  ASSERT_GT(sum.direction.decisions, 0);
  EXPECT_TRUE(stats.direction.collected);
  EXPECT_EQ(stats.direction.decisions, sum.direction.decisions);
  EXPECT_EQ(stats.direction.bottom_up_levels, sum.direction.bottom_up_levels);
  EXPECT_EQ(stats.direction.switches, sum.direction.switches);
  EXPECT_TRUE(stats.bookkeeping.collected);
  EXPECT_EQ(stats.bookkeeping.classified_y, sum.bookkeeping.classified_y);
  EXPECT_EQ(stats.bookkeeping.epoch_bumps, sum.bookkeeping.epoch_bumps);
  EXPECT_TRUE(stats.team.collected);
  EXPECT_EQ(stats.team.inline_levels, sum.team.inline_levels);
  EXPECT_EQ(stats.team.wide_levels, 0);  // one thread never runs wide
  EXPECT_EQ(stats.team.regions, sum.team.regions);
  EXPECT_EQ(stats.team.inline_levels, stats.direction.decisions);
}

TEST(RunSharded, SaturatedStartSkipsTheSolve) {
  // A graph whose greedy matching saturates one side: run_sharded must
  // return immediately with the maximality certificate, zero blocks.
  EdgeList list;
  list.nx = 3;
  list.ny = 5;
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 5; ++y) list.edges.push_back({x, y});
  }
  const BipartiteGraph g = BipartiteGraph::from_edges(list);
  RunConfig config;
  config.shard = ShardMode::kDm;
  Matching m;
  const RunStats stats = engine::run_sharded("hk", "greedy", g, m, config);
  EXPECT_EQ(stats.final_cardinality, 3);
  EXPECT_TRUE(stats.shard.collected);
  EXPECT_EQ(stats.shard.blocks_total, 0);
  EXPECT_FALSE(stats.shard.fallback);
  EXPECT_TRUE(is_maximum_matching(g, m));
}

// Exhaustive small graphs through the driver: every bipartite graph on
// up to 3x3 vertices (every degenerate shape), rotating through the
// solver registry, sharded run == independent Kuhn-style oracle.
TEST(RunSharded, ExhaustiveSmallGraphs) {
  const auto solvers = engine::solver_registry();
  std::size_t index = 0;
  for (const auto& [nx, ny] :
       {std::tuple<int, int>{2, 2}, {3, 2}, {2, 3}, {3, 3}}) {
    const int bits = nx * ny;
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << bits);
         ++mask, ++index) {
      EdgeList list;
      list.nx = nx;
      list.ny = ny;
      for (int bit = 0; bit < bits; ++bit) {
        if ((mask >> bit) & 1u) {
          list.edges.push_back({bit / ny, bit % ny});
        }
      }
      const BipartiteGraph g = BipartiteGraph::from_edges(list);
      const std::int64_t nu = hk_cardinality(g);
      const engine::SolverInfo& solver = solvers[index % solvers.size()];
      RunConfig config;
      config.shard = ShardMode::kDm;
      config.check_invariants = true;
      Matching m;
      const RunStats stats =
          engine::run_sharded(solver.name, "greedy", g, m, config);
      ASSERT_EQ(m.cardinality(), nu)
          << solver.name << " nx=" << nx << " ny=" << ny << " mask=" << mask;
      ASSERT_EQ(stats.final_cardinality, nu) << solver.name;
      ASSERT_TRUE(is_maximum_matching(g, m)) << solver.name;
    }
  }
}

// ---------------------------------------------------------------------
// Strict JSON for the "shard" RunStats block.
// ---------------------------------------------------------------------

TEST(RunStatsJson, ShardBlockIsStrictlyValid) {
  // 32 blocks: each island is ~m/32 edges, comfortably under the
  // engine's m/16 payoff cap, so the stitched path actually runs.
  const BipartiteGraph g = islands(11, 32, 64, 64);

  obs::arm();
  RunConfig config;
  config.seed = 2;
  config.shard = ShardMode::kDm;
  Matching m;
  const RunStats stats = engine::run_sharded("graft", "rgreedy", g, m, config);
  obs::disarm();

  ASSERT_TRUE(stats.shard.collected);
  ASSERT_GT(stats.shard.blocks_solved, 0)
      << "fixture must actually exercise the stitched path";
  const std::string json = run_stats_json(stats);
  std::string error;
  EXPECT_TRUE(testing::json_valid(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"shard\":{\"mode\":\"dm\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"blocks_solved\":"), std::string::npos);
  EXPECT_NE(json.find("\"blocks_frozen\":"), std::string::npos);
  EXPECT_NE(json.find("\"frozen_matched\":"), std::string::npos);
  EXPECT_NE(json.find("\"decompose_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"stitch_seconds\":"), std::string::npos);

  // Non-finite timings inside the shard block must stay valid JSON with
  // no nan/inf literals leaking through.
  RunStats degenerate = stats;
  degenerate.shard.decompose_seconds =
      std::numeric_limits<double>::quiet_NaN();
  degenerate.shard.extract_seconds = std::numeric_limits<double>::infinity();
  degenerate.shard.solve_seconds = -std::numeric_limits<double>::infinity();
  const std::string bad = run_stats_json(degenerate);
  EXPECT_TRUE(testing::json_valid(bad, &error)) << error << "\n" << bad;
  EXPECT_EQ(bad.find("nan"), std::string::npos);
  EXPECT_EQ(bad.find("inf"), std::string::npos);

  // No shard run, no shard key.
  RunStats plain;
  const std::string without = run_stats_json(plain);
  EXPECT_TRUE(testing::json_valid(without, &error)) << error;
  EXPECT_EQ(without.find("\"shard\""), std::string::npos);

  // A fallback run still emits a complete, strictly valid block.
  WebCrawlParams wp;
  wp.nx = 800;
  wp.ny = 400;
  wp.avg_degree = 3.0;
  wp.gamma = 1.9;
  wp.stub_fraction = 0.6;
  wp.hub_count = 12;
  wp.seed = 3;
  const BipartiteGraph web = generate_webcrawl(wp);
  RunConfig fb_config;
  fb_config.shard = ShardMode::kDm;
  Matching fb_m;
  const RunStats fb =
      engine::run_sharded("graft", "rgreedy", web, fb_m, fb_config);
  ASSERT_TRUE(fb.shard.collected);
  const std::string fb_json = run_stats_json(fb);
  EXPECT_TRUE(testing::json_valid(fb_json, &error)) << error << "\n"
                                                    << fb_json;
  EXPECT_NE(fb_json.find("\"fallback\":"), std::string::npos) << fb_json;
}

}  // namespace
}  // namespace graftmatch
