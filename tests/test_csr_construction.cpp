// Construction equivalence: every way the library builds a CSR --
// from_edges, from_canonical_csr and the induced-subgraph builder behind
// the d1 kernel and the DM blocks -- yields the same arrays as a naive
// reference. The edge counts straddle 4096 (where the builders once
// switched from a serial to a parallel path) and reach past
// kMinTeamWork, where the induced builder gathers on the team; each
// check runs at one and at four threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "graftmatch/gen/sbm.hpp"
#include "graftmatch/graftmatch.hpp"
#include "graftmatch/graph/induced_subgraph.hpp"
#include "graftmatch/init/greedy.hpp"
#include "graftmatch/reduce/reduce.hpp"
#include "graftmatch/runtime/parallel.hpp"
#include "graftmatch/shard/shard.hpp"

namespace graftmatch {
namespace {

/// Random edge list with duplicates, empty X rows (the last eighth of X
/// draws no edge) and isolated Y vertices (the last quarter of Y is
/// never drawn).
EdgeList random_edges(vid_t nx, vid_t ny, std::int64_t draws,
                      std::uint64_t seed) {
  EdgeList list;
  list.nx = nx;
  list.ny = ny;
  if (nx == 0 || ny == 0) return list;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vid_t> pick_x(0, nx - nx / 8 - 1);
  std::uniform_int_distribution<vid_t> pick_y(0, ny - ny / 4 - 1);
  for (std::int64_t i = 0; i < draws; ++i) {
    const Edge e{pick_x(rng), pick_y(rng)};
    list.edges.push_back(e);
    if (i % 7 == 0) list.edges.push_back(e);  // duplicate
  }
  return list;
}

void expect_same_csr(const BipartiteGraph& a, const BipartiteGraph& b) {
  ASSERT_EQ(a.num_x(), b.num_x());
  ASSERT_EQ(a.num_y(), b.num_y());
  EXPECT_TRUE(std::ranges::equal(a.x_offsets(), b.x_offsets()));
  EXPECT_TRUE(std::ranges::equal(a.x_neighbors(), b.x_neighbors()));
  EXPECT_TRUE(std::ranges::equal(a.y_offsets(), b.y_offsets()));
  EXPECT_TRUE(std::ranges::equal(a.y_neighbors(), b.y_neighbors()));
}

/// Every Y row strictly ascending and equal to the naive transpose of
/// the X side.
void expect_y_side_is_transpose(const BipartiteGraph& g) {
  std::vector<std::vector<vid_t>> naive(static_cast<std::size_t>(g.num_y()));
  for (vid_t x = 0; x < g.num_x(); ++x) {
    for (const vid_t y : g.neighbors_of_x(x)) {
      naive[static_cast<std::size_t>(y)].push_back(x);
    }
  }
  for (vid_t y = 0; y < g.num_y(); ++y) {
    const auto row = g.neighbors_of_y(y);
    EXPECT_TRUE(std::ranges::adjacent_find(row, std::greater_equal<>()) ==
                row.end())
        << "row " << y << " not strictly ascending";
    EXPECT_TRUE(std::ranges::equal(row, naive[static_cast<std::size_t>(y)]))
        << "row " << y;
  }
}

/// Reference for one induced part: from_edges over the filtered edge
/// list in local ids.
BipartiteGraph reference_part(const BipartiteGraph& g,
                              const std::vector<vid_t>& x_ids,
                              const std::vector<vid_t>& y_ids) {
  std::vector<vid_t> x_local(static_cast<std::size_t>(g.num_x()), -1);
  std::vector<vid_t> y_local(static_cast<std::size_t>(g.num_y()), -1);
  for (std::size_t i = 0; i < x_ids.size(); ++i) {
    x_local[static_cast<std::size_t>(x_ids[i])] = static_cast<vid_t>(i);
  }
  for (std::size_t j = 0; j < y_ids.size(); ++j) {
    y_local[static_cast<std::size_t>(y_ids[j])] = static_cast<vid_t>(j);
  }
  EdgeList list;
  list.nx = static_cast<vid_t>(x_ids.size());
  list.ny = static_cast<vid_t>(y_ids.size());
  for (const Edge& e : g.to_edges().edges) {
    const vid_t i = x_local[static_cast<std::size_t>(e.x)];
    const vid_t j = y_local[static_cast<std::size_t>(e.y)];
    if (i != -1 && j != -1) list.edges.push_back({i, j});
  }
  return BipartiteGraph::from_edges(list);
}

struct Shape {
  vid_t nx;
  vid_t ny;
  std::int64_t draws;
};

// Edge counts on both sides of 4096 and past kMinTeamWork, plus the
// degenerate shapes.
const Shape kShapes[] = {{0, 0, 0},        {0, 9, 0},
                         {9, 0, 0},        {5, 4, 12},
                         {400, 300, 3600}, {400, 300, 4600},
                         {700, 900, 90000}};

class CsrConstruction : public ::testing::TestWithParam<int> {};

TEST_P(CsrConstruction, FromEdgesAndCanonicalCsrMatchNaiveTranspose) {
  const ThreadCountGuard guard(GetParam());
  std::uint64_t seed = 1;
  for (const Shape& shape : kShapes) {
    const EdgeList list = random_edges(shape.nx, shape.ny, shape.draws, seed++);
    const BipartiteGraph g = BipartiteGraph::from_edges(list);
    const std::set<Edge> distinct(list.edges.begin(), list.edges.end());
    ASSERT_EQ(g.num_edges(), static_cast<std::int64_t>(distinct.size()));
    EXPECT_TRUE(std::ranges::equal(g.to_edges().edges, distinct));
    expect_y_side_is_transpose(g);

    const BipartiteGraph adopted = BipartiteGraph::from_canonical_csr(
        {g.x_offsets().begin(), g.x_offsets().end()},
        {g.x_neighbors().begin(), g.x_neighbors().end()}, g.num_y());
    expect_same_csr(adopted, g);
  }
}

TEST_P(CsrConstruction, InducedPartsMatchFilteredFromEdges) {
  const ThreadCountGuard guard(GetParam());
  std::uint64_t seed = 100;
  for (const Shape& shape : kShapes) {
    const BipartiteGraph g = BipartiteGraph::from_edges(
        random_edges(shape.nx, shape.ny, shape.draws, seed));
    std::mt19937_64 rng(seed++);
    for (const std::int32_t parts : {1, 3}) {
      std::uniform_int_distribution<std::int32_t> label(-1, parts - 1);
      std::vector<std::int32_t> x_part(static_cast<std::size_t>(g.num_x()));
      std::vector<std::int32_t> y_part(static_cast<std::size_t>(g.num_y()));
      for (auto& p : x_part) p = label(rng);
      for (auto& p : y_part) p = label(rng);
      const std::vector<InducedSubgraph> cut =
          induced_subgraphs(g, x_part, y_part, parts);
      ASSERT_EQ(cut.size(), static_cast<std::size_t>(parts));
      for (std::int32_t p = 0; p < parts; ++p) {
        // Every labelled vertex with an edge in its part.
        const auto members = [&](vid_t n, const std::vector<std::int32_t>& own,
                                 const std::vector<std::int32_t>& other,
                                 auto row_of) {
          std::vector<vid_t> ids;
          for (vid_t v = 0; v < n; ++v) {
            if (own[static_cast<std::size_t>(v)] != p) continue;
            if (std::ranges::any_of(row_of(v), [&](vid_t u) {
                  return other[static_cast<std::size_t>(u)] == p;
                })) {
              ids.push_back(v);
            }
          }
          return ids;
        };
        const std::vector<vid_t> x_ids =
            members(g.num_x(), x_part, y_part,
                    [&](vid_t x) { return g.neighbors_of_x(x); });
        const std::vector<vid_t> y_ids =
            members(g.num_y(), y_part, x_part,
                    [&](vid_t y) { return g.neighbors_of_y(y); });
        const InducedSubgraph& part = cut[static_cast<std::size_t>(p)];
        EXPECT_EQ(part.x_ids, x_ids);
        EXPECT_EQ(part.y_ids, y_ids);
        expect_same_csr(part.graph, reference_part(g, x_ids, y_ids));
        expect_y_side_is_transpose(part.graph);
      }
    }
  }
}

TEST_P(CsrConstruction, DegreeOneKernelMatchesFilteredFromEdges) {
  const ThreadCountGuard guard(GetParam());
  std::uint64_t seed = 200;
  int reduced = 0;
  // About 1.3 draws per X vertex leaves many pendants to peel.
  const Shape shapes[] = {{0, 0, 0},          {0, 9, 0},
                          {9, 0, 0},          {400, 300, 520},
                          {3000, 3000, 3900}, {3400, 3400, 4420},
                          {60000, 60000, 78000}};
  for (const Shape& shape : shapes) {
    const BipartiteGraph g = BipartiteGraph::from_edges(
        random_edges(shape.nx, shape.ny, shape.draws, seed++));
    const reduce::Reduction red = reduce::reduce_graph(g, ReduceMode::kDegree1);
    if (red.identity) continue;
    ++reduced;
    // Kernel X: every vertex the log did not remove, minus the isolated
    // ones. Kernel Y: every vertex no forced match took that keeps an
    // edge to a kernel X.
    std::vector<std::uint8_t> y_dead(static_cast<std::size_t>(g.num_y()), 0);
    std::vector<std::uint8_t> x_dead(static_cast<std::size_t>(g.num_x()), 0);
    for (const reduce::Op& op : red.ops) {
      x_dead[static_cast<std::size_t>(op.x)] = 1;
      y_dead[static_cast<std::size_t>(op.a)] = 1;
    }
    std::vector<vid_t> x_ids;
    for (vid_t x = 0; x < g.num_x(); ++x) {
      if (x_dead[static_cast<std::size_t>(x)]) continue;
      const auto row = g.neighbors_of_x(x);
      const auto live = std::ranges::count_if(
          row, [&](vid_t y) { return !y_dead[static_cast<std::size_t>(y)]; });
      if (live >= 2) x_ids.push_back(x);  // d1 leaves no live degree <= 1
    }
    std::vector<std::uint8_t> x_kept(static_cast<std::size_t>(g.num_x()), 0);
    for (const vid_t x : x_ids) x_kept[static_cast<std::size_t>(x)] = 1;
    std::vector<vid_t> y_ids;
    for (vid_t y = 0; y < g.num_y(); ++y) {
      if (y_dead[static_cast<std::size_t>(y)]) continue;
      const auto row = g.neighbors_of_y(y);
      if (std::ranges::any_of(row, [&](vid_t x) {
            return x_kept[static_cast<std::size_t>(x)] != 0;
          })) {
        y_ids.push_back(y);
      }
    }
    EXPECT_EQ(red.kernel_x_to_orig, x_ids);
    EXPECT_EQ(red.kernel_y_to_rep, y_ids);
    expect_same_csr(red.kernel, reference_part(g, x_ids, y_ids));
    expect_y_side_is_transpose(red.kernel);
  }
  EXPECT_EQ(reduced, 5);  // every shape with an X vertex
}

TEST_P(CsrConstruction, DmBlocksMatchFilteredFromEdges) {
  const ThreadCountGuard guard(GetParam());
  // 8 small islands, then 32 islands of ~96k edges in all, so the
  // block gather runs inline and on the team.
  for (const auto& [blocks, rows] : {std::pair{8, 96}, std::pair{32, 1500}}) {
    SbmParams params;
    params.blocks = blocks;
    params.rows_per_block = rows;
    params.cols_per_block = rows;
    params.in_degree = 2.0;
    params.out_degree = 0.0;
    params.seed = 7;
    const BipartiteGraph g = generate_sbm(params);
    const Matching m0 = greedy_maximal(g);
    const shard::ShardClassification c = shard::classify_shards(g, m0);
    const std::vector<shard::ShardBlock> extracted =
        shard::extract_blocks(g, m0, c);
    ASSERT_GE(extracted.size(), 2u);
    for (const shard::ShardBlock& block : extracted) {
      std::vector<vid_t> x_ids;
      std::vector<vid_t> y_ids;
      for (vid_t x = 0; x < g.num_x(); ++x) {
        if (c.row_component[static_cast<std::size_t>(x)] == block.component) {
          x_ids.push_back(x);
        }
      }
      for (vid_t y = 0; y < g.num_y(); ++y) {
        if (c.col_component[static_cast<std::size_t>(y)] == block.component) {
          y_ids.push_back(y);
        }
      }
      EXPECT_EQ(block.x_ids, x_ids);
      EXPECT_EQ(block.y_ids, y_ids);
      expect_same_csr(block.graph, reference_part(g, x_ids, y_ids));
      expect_y_side_is_transpose(block.graph);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CsrConstruction, ::testing::Values(1, 4));

TEST(InducedSubgraphs, RejectsLabelsThatDoNotFit) {
  const BipartiteGraph g = BipartiteGraph::from_edges(random_edges(4, 3, 6, 1));
  const std::vector<std::int32_t> x_ok(4, 0);
  const std::vector<std::int32_t> y_ok(3, 0);
  EXPECT_THROW(induced_subgraphs(g, std::vector<std::int32_t>(3, 0), y_ok, 1),
               std::invalid_argument);
  EXPECT_THROW(induced_subgraphs(g, x_ok, std::vector<std::int32_t>(3, 1), 1),
               std::invalid_argument);
  EXPECT_THROW(induced_subgraphs(g, std::vector<std::int32_t>(4, -2), y_ok, 1),
               std::invalid_argument);
  EXPECT_NO_THROW(induced_subgraphs(g, x_ok, y_ok, 1));
}

}  // namespace
}  // namespace graftmatch
