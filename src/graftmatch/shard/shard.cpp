#include "graftmatch/shard/shard.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "graftmatch/graph/induced_subgraph.hpp"

namespace graftmatch::shard {
namespace {

// Union-find over row ids [0, nx) and column ids [nx, nx + ny), with
// path halving and weighting by accumulated intra-V edge count. The
// edge weights double as the payoff gate's progress meter.
struct ComponentForest {
  std::vector<std::int64_t> parent;
  std::vector<std::int64_t> edges;  ///< row-side edge count at the root

  explicit ComponentForest(std::size_t nodes)
      : parent(nodes), edges(nodes, 0) {
    for (std::size_t i = 0; i < nodes; ++i) {
      parent[i] = static_cast<std::int64_t>(i);
    }
  }

  std::int64_t find(std::int64_t v) noexcept {
    while (parent[static_cast<std::size_t>(v)] != v) {
      auto& p = parent[static_cast<std::size_t>(v)];
      p = parent[static_cast<std::size_t>(p)];
      v = p;
    }
    return v;
  }

  /// Returns the merged root's edge count (unchanged if already joined).
  std::int64_t unite(std::int64_t a, std::int64_t b) noexcept {
    a = find(a);
    b = find(b);
    if (a == b) return edges[static_cast<std::size_t>(a)];
    if (edges[static_cast<std::size_t>(a)] < edges[static_cast<std::size_t>(b)]) {
      std::swap(a, b);
    }
    parent[static_cast<std::size_t>(b)] = a;
    edges[static_cast<std::size_t>(a)] += edges[static_cast<std::size_t>(b)];
    return edges[static_cast<std::size_t>(a)];
  }
};

void reach_from_cols(const BipartiteGraph& g, const Matching& m,
                     std::vector<std::uint8_t>& row_mark,
                     std::vector<std::uint8_t>& col_mark) {
  std::vector<vid_t> frontier;
  std::vector<vid_t> next;
  for (vid_t y = 0; y < g.num_y(); ++y) {
    if (!m.is_matched_y(y)) {
      col_mark[static_cast<std::size_t>(y)] = 1;
      frontier.push_back(y);
    }
  }
  while (!frontier.empty()) {
    next.clear();
    for (const vid_t y : frontier) {
      for (const vid_t x : g.neighbors_of_y(y)) {
        if (row_mark[static_cast<std::size_t>(x)]) continue;
        if (m.mate_of_y(y) == x) continue;
        row_mark[static_cast<std::size_t>(x)] = 1;
        const vid_t mate = m.mate_of_x(x);
        if (mate != kInvalidVertex &&
            !col_mark[static_cast<std::size_t>(mate)]) {
          col_mark[static_cast<std::size_t>(mate)] = 1;
          next.push_back(mate);
        }
      }
    }
    frontier.swap(next);
  }
}

}  // namespace

std::int64_t ShardClassification::solvable_blocks() const noexcept {
  std::int64_t count = 0;
  for (const ShardComponent& c : components) count += c.solvable();
  return count;
}

std::int64_t ShardClassification::solvable_edges() const noexcept {
  std::int64_t total = 0;
  for (const ShardComponent& c : components) {
    if (c.solvable()) total += c.edges;
  }
  return total;
}

std::int64_t ShardClassification::largest_solvable_edges() const noexcept {
  std::int64_t largest = 0;
  for (const ShardComponent& c : components) {
    if (c.solvable()) largest = std::max(largest, c.edges);
  }
  return largest;
}

std::int64_t ShardClassification::solvable_matched() const noexcept {
  std::int64_t total = 0;
  for (const ShardComponent& c : components) {
    if (c.solvable()) total += c.matched;
  }
  return total;
}

ShardClassification classify_shards(const BipartiteGraph& g,
                                    const Matching& m0,
                                    std::int64_t max_component_edges) {
  const auto nx = static_cast<std::size_t>(g.num_x());
  const auto ny = static_cast<std::size_t>(g.num_y());
  if (static_cast<vid_t>(nx) != m0.num_x() ||
      static_cast<vid_t>(ny) != m0.num_y()) {
    throw std::invalid_argument("classify_shards: matching shape mismatch");
  }

  ShardClassification c;

  // Zero-allocation pre-scan for the seed gate (signal 2 in the header
  // doc, plus the single-row case of signal 1): the unmatched rows'
  // combined degree is a lower bound on the V region's edge mass before
  // a single BFS step. Once it crosses three times the cap (~m/5 at the
  // engine's m/16), the reach is guaranteed to span several times the
  // cap whatever its component structure, so extraction could never pay
  // -- return before allocating or filling a single per-vertex array.
  // This is what keeps the overhead on massively deficient web graphs
  // to a fraction of one row scan.
  if (max_component_edges > 0) {
    std::int64_t seed_weight = 0;
    for (vid_t x = 0; x < g.num_x(); ++x) {
      if (m0.is_matched_x(x)) continue;
      seed_weight += g.degree_x(x);
      if (g.degree_x(x) > max_component_edges ||
          seed_weight > 3 * max_component_edges) {
        c.aborted = true;
        return c;
      }
    }
  }

  c.row_class.assign(nx, DmBlock::kSquare);
  c.col_class.assign(ny, DmBlock::kSquare);
  c.row_component.assign(nx, -1);
  c.col_component.assign(ny, -1);

  std::vector<std::uint8_t> v_rows(nx, 0);
  std::vector<std::uint8_t> v_cols(ny, 0);

  // Fused row-side pass: the alternating BFS from the unmatched rows
  // (the same marking dm_decompose uses, but tolerant of a non-maximum
  // M0), with G[V]-component union-find and the per-component edge
  // tally inline. Every neighbor of a V row is itself V -- non-mate
  // neighbors are marked the moment the row's adjacency is scanned, and
  // the mate is the column that reached the row -- so a row's whole
  // degree joins its component's edge weight as soon as the row enters
  // V, and the weight at the root is exact for finished components and
  // a live lower bound while the reach is still growing. That lower
  // bound drives the payoff gate (see the header for the three abort
  // signals): abort once one component outgrows `max_component_edges`
  // outright, or -- much earlier on giant-component graphs -- once the
  // reach has traversed a quarter of the cap and a single component
  // holds more than half of everything traversed so far. Block-rich
  // graphs never trip the concentration test (each community holds a
  // small slice of the total), while a web-shaped giant trips it within
  // a few percent of a pass, so the monolithic fallback pays almost
  // nothing.
  ComponentForest forest(nx + ny);
  const auto col_node = [nx](vid_t y) {
    return static_cast<std::int64_t>(nx) + static_cast<std::int64_t>(y);
  };
  std::int64_t total_weight = 0;  // sum of degree_x over V rows so far
  const auto gate_trips = [&](std::int64_t weight) {
    if (max_component_edges <= 0) return false;
    if (weight > max_component_edges) return true;
    return total_weight * 4 >= max_component_edges &&
           weight * 2 > total_weight;
  };
  std::vector<vid_t> frontier;
  std::vector<vid_t> next;
  bool aborted = false;
  // The pre-scan above already bounded the seeds' combined degree, so
  // this fill runs gate-free.
  for (vid_t x = 0; x < g.num_x(); ++x) {
    if (m0.is_matched_x(x)) continue;
    v_rows[static_cast<std::size_t>(x)] = 1;
    forest.edges[static_cast<std::size_t>(x)] = g.degree_x(x);
    total_weight += g.degree_x(x);
    frontier.push_back(x);
  }
  while (!frontier.empty() && !aborted) {
    next.clear();
    for (const vid_t x : frontier) {
      for (const vid_t y : g.neighbors_of_x(x)) {
        if (m0.mate_of_x(x) == y) continue;  // pair already joined below
        // Union even when y is already marked: that is exactly how
        // distinct alternating trees merge into one G[V] component.
        const std::int64_t weight = forest.unite(x, col_node(y));
        if (gate_trips(weight)) {
          aborted = true;
          break;
        }
        if (v_cols[static_cast<std::size_t>(y)]) continue;
        v_cols[static_cast<std::size_t>(y)] = 1;
        const vid_t mate = m0.mate_of_y(y);
        if (mate == kInvalidVertex ||
            v_rows[static_cast<std::size_t>(mate)]) {
          continue;
        }
        v_rows[static_cast<std::size_t>(mate)] = 1;
        forest.unite(col_node(y), mate);
        const std::int64_t root = forest.find(mate);
        forest.edges[static_cast<std::size_t>(root)] += g.degree_x(mate);
        total_weight += g.degree_x(mate);
        if (gate_trips(forest.edges[static_cast<std::size_t>(root)])) {
          aborted = true;
          break;
        }
        next.push_back(mate);
      }
      if (aborted) break;
    }
    frontier.swap(next);
  }
  if (aborted) {
    c.aborted = true;
    return c;
  }

  std::vector<std::uint8_t> h_row_mark(nx, 0);
  std::vector<std::uint8_t> h_col_mark(ny, 0);
  reach_from_cols(g, m0, h_row_mark, h_col_mark);

  // V wins over H, mirroring dm_decompose. With a maximum matching the
  // two reaches are disjoint and the priority never fires; with a
  // non-maximum M0 an overlap marks an augmenting path's territory,
  // which must land in V for the solvable blocks to capture it.
  std::vector<vid_t> v_row_list;
  std::vector<vid_t> v_col_list;
  for (std::size_t x = 0; x < nx; ++x) {
    if (v_rows[x]) {
      c.row_class[x] = DmBlock::kVertical;
      v_row_list.push_back(static_cast<vid_t>(x));
    } else if (h_row_mark[x]) {
      c.row_class[x] = DmBlock::kHorizontal;
      c.h_rows += 1;
    } else {
      c.s_rows += 1;
    }
  }
  for (std::size_t y = 0; y < ny; ++y) {
    if (v_cols[y]) {
      c.col_class[y] = DmBlock::kVertical;
      v_col_list.push_back(static_cast<vid_t>(y));
    } else if (h_col_mark[y]) {
      c.col_class[y] = DmBlock::kHorizontal;
      c.h_cols += 1;
    } else {
      c.s_cols += 1;
    }
  }

  // Compact union-find roots into dense component ids and tally. Each
  // V row contributes its full degree to its component's edge count
  // (all its neighbors are V and in the same component, and each edge
  // is counted once, from the row side).
  std::vector<std::int64_t> root_to_comp(nx + ny, -1);
  for (const vid_t x : v_row_list) {
    const auto root = static_cast<std::size_t>(
        forest.find(static_cast<std::int64_t>(x)));
    std::int64_t id = root_to_comp[root];
    if (id == -1) {
      id = static_cast<std::int64_t>(c.components.size());
      root_to_comp[root] = id;
      c.components.emplace_back();
    }
    c.row_component[static_cast<std::size_t>(x)] = id;
    ShardComponent& comp = c.components[static_cast<std::size_t>(id)];
    comp.rows += 1;
    comp.edges += g.degree_x(x);
    if (m0.is_matched_x(x)) {
      comp.matched += 1;
    } else {
      comp.unmatched_rows += 1;
    }
  }
  for (const vid_t y : v_col_list) {
    const auto root = static_cast<std::size_t>(forest.find(col_node(y)));
    std::int64_t id = root_to_comp[root];
    if (id == -1) {
      // A V column is always adjacent to the V row that reached it, so
      // this is a belt-and-braces branch that keeps malformed inputs
      // total rather than a path real graphs take.
      id = static_cast<std::int64_t>(c.components.size());
      root_to_comp[root] = id;
      c.components.emplace_back();
    }
    c.col_component[static_cast<std::size_t>(y)] = id;
    ShardComponent& comp = c.components[static_cast<std::size_t>(id)];
    comp.cols += 1;
    if (!m0.is_matched_y(y)) comp.unmatched_cols += 1;
  }
  return c;
}

std::vector<ShardBlock> extract_blocks(const BipartiteGraph& g,
                                       const Matching& m0,
                                       const ShardClassification& c) {
  // Component -> block index for the solvable components only.
  std::vector<std::int32_t> block_of(c.components.size(), -1);
  std::int32_t blocks_total = 0;
  for (std::size_t i = 0; i < c.components.size(); ++i) {
    if (c.components[i].solvable()) block_of[i] = blocks_total++;
  }
  if (blocks_total == 0) return {};

  // Every block is the subgraph induced by its component's vertices.
  const auto label = [&](const std::vector<std::int64_t>& component) {
    std::vector<std::int32_t> part(component.size(), -1);
    for (std::size_t v = 0; v < component.size(); ++v) {
      if (component[v] != -1) {
        part[v] = block_of[static_cast<std::size_t>(component[v])];
      }
    }
    return part;
  };
  // No vertex of a solvable component lacks an edge in it (a V column
  // is adjacent to the V row that reached it; an edgeless V row is a
  // component of its own with no free column), so every block keeps
  // its whole component.
  std::vector<InducedSubgraph> parts = induced_subgraphs(
      g, label(c.row_component), label(c.col_component), blocks_total);

  std::vector<ShardBlock> blocks(parts.size());
  std::vector<vid_t> y_local(static_cast<std::size_t>(g.num_y()),
                             kInvalidVertex);
  for (std::size_t i = 0, b = 0; i < c.components.size(); ++i) {
    if (block_of[i] == -1) continue;
    ShardBlock& block = blocks[b];
    InducedSubgraph& part = parts[b++];
    block.component = static_cast<std::int64_t>(i);
    block.graph = std::move(part.graph);
    block.x_ids = std::move(part.x_ids);
    block.y_ids = std::move(part.y_ids);
    for (std::size_t j = 0; j < block.y_ids.size(); ++j) {
      y_local[static_cast<std::size_t>(block.y_ids[j])] =
          static_cast<vid_t>(j);
    }

    block.initial = Matching(block.graph.num_x(), block.graph.num_y());
    for (std::size_t k = 0; k < block.x_ids.size(); ++k) {
      const vid_t y = m0.mate_of_x(block.x_ids[k]);
      if (y == kInvalidVertex) continue;
      // A matched pair never crosses a class, hence never a component:
      // its global mate must live in this block.
      const vid_t j = y_local[static_cast<std::size_t>(y)];
      assert(j != kInvalidVertex);
      block.initial.match(static_cast<vid_t>(k), j);
    }
  }
  return blocks;
}

void stitch_block(const ShardBlock& block, const Matching& local,
                  Matching& global) {
  if (local.num_x() != static_cast<vid_t>(block.x_ids.size()) ||
      local.num_y() != static_cast<vid_t>(block.y_ids.size())) {
    throw std::invalid_argument("stitch_block: local matching shape mismatch");
  }
  // Clear every stale M0 edge on the block first; interleaving the
  // unmatch with the re-match could leave a half-updated pair when the
  // local solution rewires a column to a different row.
  for (const vid_t x : block.x_ids) global.unmatch_x(x);
  for (std::size_t i = 0; i < block.x_ids.size(); ++i) {
    const vid_t j = local.mate_of_x(static_cast<vid_t>(i));
    if (j == kInvalidVertex) continue;
    global.match(block.x_ids[i], block.y_ids[static_cast<std::size_t>(j)]);
  }
}

}  // namespace graftmatch::shard
