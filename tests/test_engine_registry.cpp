// Unit tests for the engine's solver/initializer registry: enumeration,
// clear errors for unknown names, correctness of every registered entry
// on a known-maximum graph, and the RunConfig::threads contract -- a
// pinned thread count must reach the OpenMP regions each solver and
// initializer opens (probed via last_team_width()).
#include <gtest/gtest.h>
#include <omp.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graftmatch/graftmatch.hpp"

namespace graftmatch {
namespace {

BipartiteGraph complete_bipartite(vid_t nx, vid_t ny) {
  EdgeList list;
  list.nx = nx;
  list.ny = ny;
  for (vid_t x = 0; x < nx; ++x) {
    for (vid_t y = 0; y < ny; ++y) list.edges.push_back({x, y});
  }
  return BipartiteGraph::from_edges(list);
}

TEST(Registry, EnumeratesSolversAndInitializers) {
  ASSERT_FALSE(engine::solver_registry().empty());
  ASSERT_FALSE(engine::initializer_registry().empty());

  std::set<std::string> solver_keys;
  for (const engine::SolverInfo& solver : engine::solver_registry()) {
    EXPECT_FALSE(solver.name.empty());
    EXPECT_FALSE(solver.display_name.empty());
    EXPECT_TRUE(solver.solve != nullptr) << solver.name;
    EXPECT_TRUE(solver_keys.insert(solver.name).second)
        << "duplicate solver key " << solver.name;
    EXPECT_EQ(&engine::find_solver(solver.name), &solver);
  }
  EXPECT_TRUE(solver_keys.count("graft"));
  EXPECT_TRUE(solver_keys.count("pf"));

  std::set<std::string> init_keys;
  for (const engine::InitializerInfo& init : engine::initializer_registry()) {
    EXPECT_TRUE(init.build != nullptr) << init.name;
    EXPECT_TRUE(init_keys.insert(init.name).second)
        << "duplicate initializer key " << init.name;
    EXPECT_EQ(&engine::find_initializer(init.name), &init);
  }
  EXPECT_TRUE(init_keys.count("ks"));
  EXPECT_TRUE(init_keys.count("none"));
}

TEST(Registry, UnknownSolverNameGivesClearError) {
  EXPECT_EQ(engine::find_solver_or_null("no-such-solver"), nullptr);
  try {
    engine::find_solver("no-such-solver");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    // The message must name the offender and list valid keys so a CLI
    // user can fix a typo without reading the source.
    EXPECT_NE(what.find("unknown solver"), std::string::npos) << what;
    EXPECT_NE(what.find("no-such-solver"), std::string::npos) << what;
    EXPECT_NE(what.find("graft"), std::string::npos) << what;
  }
}

TEST(Registry, UnknownInitializerNameGivesClearError) {
  EXPECT_EQ(engine::find_initializer_or_null("bogus"), nullptr);
  try {
    engine::make_initial_matching("bogus", complete_bipartite(2, 2),
                                  RunConfig{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown initializer"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("ks"), std::string::npos) << what;
  }
}

TEST(Registry, EverySolverReachesMaximumCardinality) {
  const BipartiteGraph g = complete_bipartite(6, 9);
  for (const engine::SolverInfo& solver : engine::solver_registry()) {
    Matching m(g.num_x(), g.num_y());
    RunConfig config;
    config.threads = 1;
    const RunStats stats = solver.run(g, m, config);
    EXPECT_TRUE(is_valid_matching(g, m)) << solver.name;
    EXPECT_EQ(m.cardinality(), 6) << solver.name;
    EXPECT_EQ(stats.final_cardinality, 6) << solver.name;
    EXPECT_EQ(stats.algorithm, solver.display_name) << solver.name;
    EXPECT_EQ(stats.threads_used, 1) << solver.name;
  }
}

TEST(Registry, EveryInitializerProducesValidMatching) {
  const BipartiteGraph g = complete_bipartite(8, 5);
  for (const engine::InitializerInfo& init : engine::initializer_registry()) {
    RunConfig config;
    config.threads = 1;
    config.seed = 42;
    const Matching m = engine::make_initial_matching(init.name, g, config);
    EXPECT_TRUE(is_valid_matching(g, m)) << init.name;
    if (init.name != "none") {
      // Every real initializer is maximal, and on a complete bipartite
      // graph maximal == maximum.
      EXPECT_EQ(m.cardinality(), 5) << init.name;
    }
  }
}

// Regression for RunConfig::threads (the knob used to be ignored by
// some baselines): pin one thread with an oversubscribed OpenMP default
// of 4, run each parallel entry, and assert the parallel regions it
// opened were exactly one thread wide. The graph's first BFS level has
// kMinTeamWork edges, so an unpinned MS-BFS run opens a 4-wide region;
// pinned, the team-width rule runs it inline and may open none at all,
// which leaves the probe at -1.
TEST(Registry, ThreadsPinnedToOneReachesEveryParallelRegion) {
  const BipartiteGraph g = complete_bipartite(256, 256);
  ASSERT_EQ(g.num_edges(), engine::kMinTeamWork);
  ThreadCountGuard ambient(4);  // default would be 4 without the pin
  ASSERT_EQ(omp_get_max_threads(), 4);

  for (const engine::SolverInfo& solver : engine::solver_registry()) {
    if (!solver.parallel) continue;
    last_team_width().store(-1);
    Matching m(g.num_x(), g.num_y());
    RunConfig config;
    config.threads = 1;
    const RunStats stats = solver.run(g, m, config);
    const int width = last_team_width().load();
    EXPECT_TRUE(width == 1 || width == -1) << solver.name << " " << width;
    EXPECT_EQ(stats.threads_used, 1) << solver.name;
    // The pin must not leak into the ambient default.
    EXPECT_EQ(omp_get_max_threads(), 4) << solver.name;
  }

  for (const engine::InitializerInfo& init : engine::initializer_registry()) {
    if (!init.parallel) continue;
    last_team_width().store(-1);
    RunConfig config;
    config.threads = 1;
    config.seed = 3;
    (void)engine::make_initial_matching(init.name, g, config);
    EXPECT_EQ(last_team_width().load(), 1) << init.name;
    EXPECT_EQ(omp_get_max_threads(), 4) << init.name;
  }
}

// The inverse direction: with no pin, parallel solvers pick up the
// runtime default and report it in threads_used. The graph is big
// enough for MS-BFS's first level to run on the team.
TEST(Registry, DefaultThreadsFollowRuntime) {
  const BipartiteGraph g = complete_bipartite(256, 256);
  ThreadCountGuard ambient(3);
  for (const engine::SolverInfo& solver : engine::solver_registry()) {
    if (!solver.parallel) continue;
    last_team_width().store(-1);
    Matching m(g.num_x(), g.num_y());
    const RunStats stats = solver.run(g, m, RunConfig{});
    EXPECT_EQ(last_team_width().load(), 3) << solver.name;
    EXPECT_EQ(stats.threads_used, 3) << solver.name;
  }
}

// RunStats::init_seconds times the in-run initializer on every
// engine::run path -- plain, reduce, shard (monolithic fallback) and DM
// blocks -- and never exceeds the run's own wall time.
TEST(Registry, InitSecondsTimesTheInitializerOnEveryPath) {
  ChungLuParams sparse;
  sparse.nx = sparse.ny = 2000;
  sparse.avg_degree = 2.0;  // pendants for d1, one giant block for dm
  sparse.seed = 3;
  const BipartiteGraph giant = generate_chung_lu(sparse);
  SbmParams islands;
  islands.blocks = 32;
  islands.rows_per_block = islands.cols_per_block = 64;
  islands.in_degree = 3.0;
  islands.out_degree = 0.0;
  islands.seed = 11;
  const BipartiteGraph blocky = generate_sbm(islands);

  struct Path {
    const char* name;
    const BipartiteGraph* g;
    ReduceMode reduce;
    ShardMode shard;
  };
  const Path paths[] = {
      {"plain", &giant, ReduceMode::kNone, ShardMode::kNone},
      {"reduce", &giant, ReduceMode::kDegree1, ShardMode::kNone},
      {"shard", &giant, ReduceMode::kNone, ShardMode::kDm},
      {"dm-blocks", &blocky, ReduceMode::kNone, ShardMode::kDm}};
  for (const Path& path : paths) {
    RunConfig config;
    config.seed = 2;
    config.reduce = path.reduce;
    config.shard = path.shard;
    Matching m;
    const Timer wall;
    const RunStats stats =
        engine::run(ambient_session(), "graft", "rgreedy", *path.g, m, config);
    const double elapsed = wall.elapsed();
    EXPECT_GT(stats.init_seconds, 0.0) << path.name;
    EXPECT_LE(stats.init_seconds, elapsed) << path.name;
    if (path.reduce != ReduceMode::kNone) {
      EXPECT_GT(stats.reduce.forced_matches, 0) << path.name;
    }
    if (path.g == &blocky) {
      EXPECT_GE(stats.shard.blocks_solved, 2) << path.name;
    } else if (path.shard != ShardMode::kNone) {
      EXPECT_TRUE(stats.shard.fallback) << path.name;
    }
  }
}

}  // namespace
}  // namespace graftmatch
