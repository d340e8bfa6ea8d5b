#include "graftmatch/engine/registry.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/baselines/pothen_fan.hpp"
#include "graftmatch/baselines/push_relabel.hpp"
#include "graftmatch/baselines/ss_bfs.hpp"
#include "graftmatch/baselines/ss_dfs.hpp"
#include "graftmatch/core/ms_bfs_graft.hpp"
#include "graftmatch/init/greedy.hpp"
#include "graftmatch/init/karp_sipser.hpp"
#include "graftmatch/init/parallel_karp_sipser.hpp"
#include "graftmatch/init/streaming_ks.hpp"
#include "graftmatch/obs/summary.hpp"
#include "graftmatch/obs/trace.hpp"
#include "graftmatch/reduce/reduce.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/runtime/timer.hpp"
#include "graftmatch/shard/shard.hpp"
#include "graftmatch/verify/koenig.hpp"
#include "graftmatch/verify/validate.hpp"

namespace graftmatch::engine {
namespace {

std::vector<SolverInfo> build_solvers() {
  std::vector<SolverInfo> solvers;
  solvers.push_back(
      {"graft", "MS-BFS-Graft",
       "multi-source BFS with direction optimization and tree grafting "
       "(the paper's algorithm)",
       true,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return ms_bfs_graft(s, g, m, c); }});
  solvers.push_back(
      {"msbfs", "MS-BFS",
       "plain multi-source BFS with frontier rebuilding (Azad et al.)", true,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return ms_bfs(s, g, m, c); }});
  solvers.push_back(
      {"pf", "Pothen-Fan",
       "multithreaded Pothen-Fan DFS with lookahead and fairness", true,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return pothen_fan(s, g, m, c); }});
  solvers.push_back(
      {"pr", "PR", "parallel push-relabel with global relabeling", true,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return push_relabel(s, g, m, c); }});
  solvers.push_back(
      {"hk", "HK", "serial Hopcroft-Karp (shortest augmenting phases)", false,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return hopcroft_karp(s, g, m, c); }});
  solvers.push_back(
      {"ssbfs", "SS-BFS", "serial single-source BFS augmentation", false,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return ss_bfs(s, g, m, c); }});
  solvers.push_back(
      {"ssdfs", "SS-DFS", "serial single-source DFS augmentation", false,
       [](SessionContext& s, const BipartiteGraph& g, Matching& m,
          const RunConfig& c) { return ss_dfs(s, g, m, c); }});
  return solvers;
}

// Initializer bodies take no session parameter; binding the session as
// ambient for the duration of the call routes everything they touch
// (parallel regions, trace emissions, stress jitter) to it.
std::vector<InitializerInfo> build_initializers() {
  std::vector<InitializerInfo> inits;
  inits.push_back({"none", "empty matching (no initialization)", false,
                   [](SessionContext&, const BipartiteGraph& g,
                      const RunConfig&) {
                     return Matching(g.num_x(), g.num_y());
                   }});
  inits.push_back({"greedy", "deterministic greedy maximal matching", false,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig&) {
                     const SessionScope scope(s);
                     return greedy_maximal(g);
                   }});
  inits.push_back({"rgreedy", "randomized-order greedy maximal matching",
                   false,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig& c) {
                     const SessionScope scope(s);
                     return randomized_greedy(g, c.seed);
                   }});
  inits.push_back({"ks", "serial Karp-Sipser (degree-1 rule + random rule)",
                   false,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig& c) {
                     const SessionScope scope(s);
                     return karp_sipser(g, c.seed);
                   }});
  inits.push_back({"ksr1", "serial Karp-Sipser, degree-1 rule only", false,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig&) {
                     const SessionScope scope(s);
                     return karp_sipser_rule1(g);
                   }});
  inits.push_back({"pks", "parallel Karp-Sipser (Azad et al. style)", true,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig& c) {
                     const SessionScope scope(s);
                     return parallel_karp_sipser(g, c.seed, c.threads);
                   }});
  inits.push_back({"streaming_ks",
                   "single-pass streaming maximal (degree-1 rows first)",
                   false,
                   [](SessionContext& s, const BipartiteGraph& g,
                      const RunConfig& c) {
                     const SessionScope scope(s);
                     return streaming_karp_sipser(g, c.seed);
                   }});
  return inits;
}

std::string known_keys(std::span<const std::string> names) {
  std::ostringstream out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    out << (i == 0 ? "" : ", ") << names[i];
  }
  return out.str();
}

}  // namespace

std::span<const SolverInfo> solver_registry() {
  static const std::vector<SolverInfo> solvers = build_solvers();
  return solvers;
}

std::span<const InitializerInfo> initializer_registry() {
  static const std::vector<InitializerInfo> inits = build_initializers();
  return inits;
}

const SolverInfo* find_solver_or_null(const std::string& name) {
  for (const SolverInfo& solver : solver_registry()) {
    if (solver.name == name) return &solver;
  }
  return nullptr;
}

const InitializerInfo* find_initializer_or_null(const std::string& name) {
  for (const InitializerInfo& init : initializer_registry()) {
    if (init.name == name) return &init;
  }
  return nullptr;
}

const SolverInfo& find_solver(const std::string& name) {
  if (const SolverInfo* solver = find_solver_or_null(name)) return *solver;
  throw std::invalid_argument("unknown solver \"" + name +
                              "\"; known solvers: " +
                              known_keys(solver_names()));
}

const InitializerInfo& find_initializer(const std::string& name) {
  if (const InitializerInfo* init = find_initializer_or_null(name)) {
    return *init;
  }
  throw std::invalid_argument("unknown initializer \"" + name +
                              "\"; known initializers: " +
                              known_keys(initializer_names()));
}

std::vector<std::string> solver_names() {
  std::vector<std::string> names;
  for (const SolverInfo& solver : solver_registry()) {
    names.push_back(solver.name);
  }
  return names;
}

std::vector<std::string> initializer_names() {
  std::vector<std::string> names;
  for (const InitializerInfo& init : initializer_registry()) {
    names.push_back(init.name);
  }
  return names;
}

Matching make_initial_matching(SessionContext& session,
                               const std::string& name,
                               const BipartiteGraph& g,
                               const RunConfig& config) {
  const InitializerInfo& init = find_initializer(name);
  // RunConfig::threads must bind for every initializer, including any
  // future one that opens regions without plumbing an explicit thread
  // argument (parallel_karp_sipser takes one, but the guard makes the
  // contract hold registry-wide).
  const ThreadCountGuard guard(config.threads);
  return init.make(session, g, config);
}

Matching make_initial_matching(const std::string& name,
                               const BipartiteGraph& g,
                               const RunConfig& config) {
  return make_initial_matching(ambient_session(), name, g, config);
}

namespace {

/// Close the session's owned trace run and stamp the distilled counters.
void distill_obs(SessionContext& session, RunStats& stats) {
  session.trace().end_run();
  const obs::TraceSummary summary =
      obs::summarize(session.trace().last_run());
  ObsCounters& o = stats.obs;
  o.collected = true;
  o.events = summary.events;
  o.dropped = summary.dropped;
  o.levels = summary.levels;
  o.bottom_up_levels = summary.bottom_up_levels;
  o.direction_switches = summary.direction_switches;
  o.grafts = summary.grafts;
  o.rebuilds = summary.rebuilds;
  o.frontier_peak = summary.frontier_peak;
  o.frontier_volume = summary.frontier_volume;
}

/// Solves a kernel graph end to end: builds the initial matching and
/// grows it to maximum, however the caller composes that (plain
/// initializer + solver, or the sharded pipeline).
using KernelSolveFn = std::function<RunStats(const BipartiteGraph& g,
                                             Matching& matching)>;

/// The reduce -> kernel-solve -> reconstruct pipeline shared by
/// run_reduced and run_sharded; `solve_kernel` is what varies. Owns the
/// trace run (when armed) so the reduce/compact/reconstruct spans
/// emitted outside the solver land in the same trace; nested StatsSinks
/// record into this run instead of opening their own, and the distilled
/// counters are stamped here.
RunStats reduce_pipeline(SessionContext& session, const BipartiteGraph& g,
                         Matching& matching, const RunConfig& config,
                         const std::string& trace_name,
                         const KernelSolveFn& solve_kernel) {
  const SessionScope scope(session);
  const ThreadCountGuard guard(config.threads);
  const bool owns_trace =
      session.trace().begin_run(trace_name.c_str(), omp_get_max_threads());

  reduce::Reduction reduction = reduce::reduce_graph(g, config.reduce);
  // Identity reduction: solve on the original graph and skip the
  // reconstruction pass entirely (the matching is already in
  // original-graph terms).
  const BipartiteGraph& solve_g = reduce::solve_graph(reduction, g);
  Matching kernel_matching(solve_g.num_x(), solve_g.num_y());
  RunStats stats = solve_kernel(solve_g, kernel_matching);

  if (reduction.identity) {
    matching = std::move(kernel_matching);
  } else {
    const Timer timer;
    matching = reduce::reconstruct_matching(g, reduction, kernel_matching);
    reduction.stats.reconstruct_seconds = timer.elapsed();
  }

  stats.reduce = reduction.stats;
  // Translate cardinalities to original-graph terms: each forced match
  // and each fold contributes exactly one edge on top of the kernel
  // matching, both before and after the solve, so the augmentation
  // delta (final - initial) still describes the kernel solve.
  stats.initial_cardinality +=
      reduction.stats.forced_matches + reduction.stats.folds;
  stats.final_cardinality = matching.cardinality();

  if (owns_trace) distill_obs(session, stats);
  return stats;
}

/// Fold one per-block solve into the aggregate sharded stats.
void accumulate_block(RunStats& total, const RunStats& block) {
  total.phases += block.phases;
  total.edges_traversed += block.edges_traversed;
  total.augmentations += block.augmentations;
  total.total_path_edges += block.total_path_edges;
  total.step_seconds.top_down += block.step_seconds.top_down;
  total.step_seconds.bottom_up += block.step_seconds.bottom_up;
  total.step_seconds.augment += block.step_seconds.augment;
  total.step_seconds.graft += block.step_seconds.graft;
  total.step_seconds.statistics += block.step_seconds.statistics;
  total.step_seconds.other += block.step_seconds.other;

  if (block.bookkeeping.collected) {
    BookkeepingCounters& b = total.bookkeeping;
    const BookkeepingCounters& add = block.bookkeeping;
    // Warm only when every block ran on reused arrays.
    b.workspace_warm = (b.collected ? b.workspace_warm : true) &&
                       add.workspace_warm;
    b.collected = true;
    b.pool_builds += add.pool_builds;
    b.pool_reinserts += add.pool_reinserts;
    b.classified_y += add.classified_y;
    b.counted_x += add.counted_x;
    b.epoch_bumps += add.epoch_bumps;
  }
  if (block.direction.collected) {
    DirectionCounters& d = total.direction;
    const DirectionCounters& add = block.direction;
    d.collected = true;
    d.policy = add.policy;  // one config for every block
    d.kernel = add.kernel;
    d.decisions += add.decisions;
    d.bottom_up_levels += add.bottom_up_levels;
    d.switches += add.switches;
    d.scout_edges += add.scout_edges;
    d.awake_edges += add.awake_edges;
    d.word_commits += add.word_commits;
    d.word_fallbacks += add.word_fallbacks;
  }
  if (block.team.collected) {
    TeamCounters& t = total.team;
    t.collected = true;
    t.inline_levels += block.team.inline_levels;
    t.wide_levels += block.team.wide_levels;
    t.regions += block.team.regions;
  }
}

/// The sharded solve of one graph: initializer, DM classification,
/// per-block solves, stitch, audit. See engine::run_sharded for the
/// contract; this is the kernel-solve half (the reduce pre-pass and
/// trace ownership live in the callers).
RunStats solve_sharded_graph(SessionContext& session,
                             const SolverInfo& solver,
                             const std::string& initializer_name,
                             const BipartiteGraph& g, Matching& matching,
                             const RunConfig& config) {
  const SessionScope scope(session);
  const Timer total_timer;
  ShardCounters counters;
  counters.collected = true;
  counters.mode = ShardMode::kDm;

  const Timer init_timer;
  matching = make_initial_matching(session, initializer_name, g, config);
  const double init_seconds = init_timer.elapsed();
  const std::int64_t initial_cardinality = matching.cardinality();

  // Saturating one side is a maximality certificate: no augmenting path
  // can exist, so there is nothing to classify, let alone solve.
  if (initial_cardinality == g.num_x() || initial_cardinality == g.num_y()) {
    RunStats stats;
    stats.algorithm = solver.display_name;
    stats.threads_used = omp_get_max_threads();
    stats.initial_cardinality = initial_cardinality;
    stats.final_cardinality = initial_cardinality;
    stats.seconds = total_timer.elapsed();
    stats.init_seconds = init_seconds;
    stats.shard = counters;
    return stats;
  }

  obs::emit_begin(obs::names::kShardDecompose);
  const Timer decompose_timer;
  // Payoff gate: a component crossing a sixteenth of the edge mass
  // means the graph is dominated by one deficient block, so the
  // decomposition aborts (a fraction of one pass in) and we solve
  // monolithically. Block-rich graphs sit well under the cap (32
  // communities put the largest component near m/32), while web-shaped
  // giants trip it a few percent of a pass in.
  const shard::ShardClassification classes =
      shard::classify_shards(g, matching, g.num_edges() / 16);
  counters.decompose_seconds = decompose_timer.elapsed();
  // The coarse H and S parts are frozen as wholes (one block each when
  // non-empty); only the V part splits into components.
  counters.blocks_h = (classes.h_rows + classes.h_cols) > 0 ? 1 : 0;
  counters.blocks_s = (classes.s_rows + classes.s_cols) > 0 ? 1 : 0;
  counters.blocks_v = static_cast<std::int64_t>(classes.components.size());
  counters.blocks_total =
      counters.blocks_h + counters.blocks_s + counters.blocks_v;
  const std::int64_t solvable = classes.aborted ? 0 : classes.solvable_blocks();
  counters.blocks_frozen = counters.blocks_total - solvable;
  counters.largest_block_edges = classes.largest_solvable_edges();
  obs::emit_end(obs::names::kShardDecompose, counters.blocks_total,
                solvable);

  // Every matched pair lives in exactly one class/component, so the
  // frozen tally is what the solvable components don't account for.
  if (!classes.aborted) {
    counters.frozen_matched =
        initial_cardinality - classes.solvable_matched();
  }

  RunStats stats;
  stats.algorithm = solver.display_name;
  stats.threads_used = omp_get_max_threads();
  stats.initial_cardinality = initial_cardinality;
  stats.final_cardinality = initial_cardinality;

  bool stitched_blocks = false;
  if (classes.aborted ||
      (solvable == 1 && counters.largest_block_edges * 2 > g.num_edges())) {
    // One deficient block dominates the graph (the payoff gate tripped,
    // or the finished census says so); extracting it would copy most of
    // the CSR for no concurrency win. Solve monolithically from the
    // initializer's matching instead.
    counters.fallback = true;
    const Timer solve_timer;
    stats = solver.run(session, g, matching, config);
    counters.solve_seconds = solve_timer.elapsed();
  } else if (solvable == 0) {
    // No component has a free vertex on both sides, so no augmenting
    // path exists anywhere: the initializer's matching is maximum and
    // there is nothing to solve.
  } else {
    const Timer extract_timer;
    std::vector<shard::ShardBlock> blocks =
        shard::extract_blocks(g, matching, classes);
    counters.extract_seconds = extract_timer.elapsed();
    counters.blocks_solved = static_cast<std::int64_t>(blocks.size());

    const Timer solve_timer;
    const int team = std::max(1, omp_get_max_threads());
    const std::int64_t total_edges = classes.solvable_edges();
    // A block holding more than a 1/team share of the deficient work
    // would leave the pool imbalanced; give it the whole team instead.
    std::vector<std::size_t> wide;
    std::vector<std::size_t> pooled;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const bool is_wide =
          team == 1 || blocks[i].graph.num_edges() * team > total_edges;
      (is_wide ? wide : pooled).push_back(i);
    }

    std::vector<std::int64_t> initial_block(blocks.size(), 0);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      initial_block[i] = blocks[i].initial.cardinality();
    }

    std::vector<Matching> solved(blocks.size());
    for (const std::size_t i : wide) {
      obs::emit_begin(obs::names::kShardBlock,
                      static_cast<std::int64_t>(i),
                      blocks[i].graph.num_edges());
      Matching local = std::move(blocks[i].initial);
      accumulate_block(stats,
                       solver.run(session, blocks[i].graph, local, config));
      solved[i] = std::move(local);
      obs::emit_end(obs::names::kShardBlock, static_cast<std::int64_t>(i));
    }
    counters.solved_wide = static_cast<std::int64_t>(wide.size());

    if (!pooled.empty()) {
      // One-thread-per-block pool: each worker pins its OpenMP width to
      // 1 (a per-thread ICV), so every region a nested solver opens is
      // one wide -- which parallel_region supports from any number of
      // host threads at once, TSan builds included.
      std::atomic<std::size_t> cursor{0};
      std::vector<RunStats> pooled_stats(pooled.size());
      RunConfig pool_config = config;
      pool_config.threads = 1;
      const int pool_width = static_cast<int>(std::min<std::size_t>(
          pooled.size(), static_cast<std::size_t>(team)));
      parallel_region(pool_width, [&] {
        const ThreadCountGuard pin(1);
        for (;;) {
          const std::size_t slot =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (slot >= pooled.size()) break;
          const std::size_t i = pooled[slot];
          obs::emit_begin(obs::names::kShardBlock,
                          static_cast<std::int64_t>(i),
                          blocks[i].graph.num_edges());
          Matching local = std::move(blocks[i].initial);
          pooled_stats[slot] =
              solver.run(session, blocks[i].graph, local, pool_config);
          solved[i] = std::move(local);
          obs::emit_end(obs::names::kShardBlock,
                        static_cast<std::int64_t>(i));
        }
      });
      for (const RunStats& s : pooled_stats) accumulate_block(stats, s);
      counters.solved_pooled = static_cast<std::int64_t>(pooled.size());
    }
    counters.solve_seconds = solve_timer.elapsed();

    const Timer stitch_timer;
    std::int64_t expected = initial_cardinality;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      expected += solved[i].cardinality() - initial_block[i];
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      shard::stitch_block(blocks[i], solved[i], matching);
    }
    counters.stitch_seconds = stitch_timer.elapsed();
    const std::int64_t stitched = matching.cardinality();
    obs::emit_instant(obs::names::kShardStitch, stitched);
    if (stitched != expected) {
      throw std::logic_error(
          "run_sharded: stitched cardinality disagrees with the per-block "
          "solves");
    }
    stats.final_cardinality = stitched;
    stitched_blocks = true;
  }

  // Audit: whenever block solutions were stitched back, the result must
  // be a valid matching of the whole graph (the no-op and monolithic
  // paths never touch global ids, so the pass would only re-verify the
  // solver). The Koenig maximality certificate -- itself a full graph
  // traversal -- runs under the invariant-checking knob.
  if ((stitched_blocks || config.check_invariants) &&
      !is_valid_matching(g, matching)) {
    throw std::logic_error("run_sharded: stitched result is not a valid "
                           "matching");
  }
  if (config.check_invariants && !is_maximum_matching(g, matching)) {
    throw std::logic_error("run_sharded: stitched matching failed the "
                           "Koenig maximality audit");
  }

  stats.seconds = total_timer.elapsed();
  stats.init_seconds = init_seconds;
  stats.shard = counters;
  return stats;
}

}  // namespace

RunStats run_reduced(SessionContext& session,
                     const std::string& solver_name,
                     const std::string& initializer_name,
                     const BipartiteGraph& g, Matching& matching,
                     const RunConfig& config) {
  const SolverInfo& solver = find_solver(solver_name);
  const auto init_and_solve = [&](const BipartiteGraph& solve_g,
                                  Matching& solve_matching) {
    const Timer init_timer;
    solve_matching =
        make_initial_matching(session, initializer_name, solve_g, config);
    const double init_seconds = init_timer.elapsed();
    RunStats stats = solver.run(session, solve_g, solve_matching, config);
    stats.init_seconds = init_seconds;
    return stats;
  };
  if (config.reduce == ReduceMode::kNone) return init_and_solve(g, matching);
  return reduce_pipeline(session, g, matching, config, "reduce+" + solver.name,
                         init_and_solve);
}

RunStats run_reduced(const std::string& solver_name,
                     const std::string& initializer_name,
                     const BipartiteGraph& g, Matching& matching,
                     const RunConfig& config) {
  return run_reduced(ambient_session(), solver_name, initializer_name, g,
                     matching, config);
}

RunStats run_sharded(SessionContext& session,
                     const std::string& solver_name,
                     const std::string& initializer_name,
                     const BipartiteGraph& g, Matching& matching,
                     const RunConfig& config) {
  if (config.shard == ShardMode::kNone) {
    return run_reduced(session, solver_name, initializer_name, g, matching,
                       config);
  }
  const SolverInfo& solver = find_solver(solver_name);
  const auto sharded_solve = [&](const BipartiteGraph& solve_g,
                                 Matching& solve_matching) {
    return solve_sharded_graph(session, solver, initializer_name, solve_g,
                               solve_matching, config);
  };
  if (config.reduce == ReduceMode::kNone) {
    const SessionScope scope(session);
    const ThreadCountGuard guard(config.threads);
    const std::string trace_name = "shard+" + solver.name;
    const bool owns_trace =
        session.trace().begin_run(trace_name.c_str(), omp_get_max_threads());
    RunStats stats = sharded_solve(g, matching);
    if (owns_trace) distill_obs(session, stats);
    return stats;
  }
  // Reduce first, shard the kernel: the decomposition then runs on the
  // graph the solver actually sees.
  return reduce_pipeline(session, g, matching, config,
                         "reduce+shard+" + solver.name, sharded_solve);
}

RunStats run_sharded(const std::string& solver_name,
                     const std::string& initializer_name,
                     const BipartiteGraph& g, Matching& matching,
                     const RunConfig& config) {
  return run_sharded(ambient_session(), solver_name, initializer_name, g,
                     matching, config);
}

RunStats run(SessionContext& session, const std::string& solver_name,
             const std::string& initializer_name, const BipartiteGraph& g,
             Matching& matching, const RunConfig& config) {
  return run_sharded(session, solver_name, initializer_name, g, matching,
                     config);
}

RunStats run_batch(SessionContext& session, const std::string& solver_name,
                   const std::string& initializer_name,
                   const BipartiteGraph& g, Matching& matching,
                   const RunConfig& config, std::size_t group_size) {
  if (group_size == 0) {
    throw std::invalid_argument("run_batch: group_size must be >= 1");
  }
  // One solve answers the whole group: the result of a maximum-matching
  // run does not depend on how many identical requests are waiting on
  // it, so the amortization is pure -- no per-member work exists.
  return run_sharded(session, solver_name, initializer_name, g, matching,
                     config);
}

}  // namespace graftmatch::engine
