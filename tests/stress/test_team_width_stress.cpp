// Team-width stress harness (ctest label: stress).
//
// Every kernel call of MS-BFS-Graft picks its own width: below
// engine::kMinTeamWork edge mass it runs inline on the calling thread
// with plain bitmap ops, above it on the team with atomic ones. Small
// graphs therefore never run wide, so this harness solves graphs whose
// first frontier (every X vertex, from an empty matching) is far above
// the cutoff while the tail levels of each phase fall below it: one
// solve hands the visited and eligible-parent bitmaps from the team to
// the calling thread and back many times. Every solve is checked
// against Hopcroft-Karp, and under ThreadSanitizer (`cmake
// -DGRAFTMATCH_SAN=tsan`, `ctest -L stress`) the handoffs must stay
// suppression-free.
//
// Every randomized trial derives its seed from a fixed master seed via
// a splitmix64 stream and prints it on failure.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>

#include "graftmatch/baselines/hopcroft_karp.hpp"
#include "graftmatch/core/ms_bfs_graft.hpp"
#include "graftmatch/engine/edge_partition.hpp"
#include "graftmatch/gen/erdos_renyi.hpp"
#include "graftmatch/runtime/atomics.hpp"
#include "graftmatch/runtime/prng.hpp"
#include "graftmatch/verify/validate.hpp"

namespace graftmatch {
namespace {

constexpr std::uint64_t kMasterSeed = 0x7EA3D1DULL;

/// Jitter with probability 1/16 at every hook when hooks are compiled
/// in (TSan / stress builds); a no-op in plain builds.
class StressEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { stress::set_yield_period(16); }
  void TearDown() override { stress::set_yield_period(0); }
};
[[maybe_unused]] const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new StressEnvironment);

/// Sparse random graph (average degree 3) with half the cutoff on each
/// side: the all-roots first frontier carries about 1.5x the cutoff in
/// edge mass and runs wide, while the tail levels of each phase do not.
BipartiteGraph wide_then_narrow(std::uint64_t seed) {
  ErdosRenyiParams params;
  params.nx = static_cast<vid_t>(engine::kMinTeamWork / 2);
  params.ny = params.nx;
  params.edges = 3 * static_cast<std::int64_t>(params.nx);
  params.seed = seed;
  return generate_erdos_renyi(params);
}

std::int64_t hk_cardinality(const BipartiteGraph& g) {
  Matching m(g.num_x(), g.num_y());
  hopcroft_karp(g, m);
  return m.cardinality();
}

TEST(TeamWidthStress, OneSolveRunsLevelsInlineAndWide) {
  const BipartiteGraph g = wide_then_narrow(kMasterSeed);
  RunConfig config;
  config.threads = 4;
  config.check_invariants = true;
  Matching m(g.num_x(), g.num_y());
  const RunStats stats = ms_bfs_graft(g, m, config);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_EQ(m.cardinality(), hk_cardinality(g));
  ASSERT_TRUE(stats.team.collected);
  EXPECT_GT(stats.team.wide_levels, 0);
  EXPECT_GT(stats.team.inline_levels, 0);
  EXPECT_EQ(stats.team.wide_levels + stats.team.inline_levels,
            stats.direction.decisions);
  EXPECT_EQ(stats.threads_used, 4);
}

TEST(TeamWidthStress, RandomizedWidthsPoliciesAndKernels) {
  std::uint64_t stream = kMasterSeed;
  const int hw = omp_get_num_procs();
  constexpr DirectionPolicy kPolicies[] = {
      DirectionPolicy::kFixed, DirectionPolicy::kAdaptive,
      DirectionPolicy::kBottomUp};
  for (int trial = 0; trial < 6; ++trial) {
    const std::uint64_t seed = splitmix64_next(stream);
    Xoshiro256 rng(seed);
    const BipartiteGraph g = wide_then_narrow(seed);
    RunConfig config;
    config.threads =
        2 + static_cast<int>(rng.below(static_cast<std::uint64_t>(2 * hw)));
    config.direction_policy = kPolicies[rng.below(3)];
    config.bottom_up_kernel =
        rng.below(2) == 0 ? BottomUpKernel::kBit : BottomUpKernel::kWord;
    config.check_invariants = true;
    Matching m(g.num_x(), g.num_y());
    const RunStats stats = ms_bfs_graft(g, m, config);
    EXPECT_TRUE(is_valid_matching(g, m)) << "seed " << seed;
    EXPECT_EQ(m.cardinality(), hk_cardinality(g))
        << "seed " << seed << " threads " << config.threads << " dirsel "
        << to_string(config.direction_policy) << " kernel "
        << to_string(config.bottom_up_kernel);
    EXPECT_GT(stats.team.wide_levels, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace graftmatch
