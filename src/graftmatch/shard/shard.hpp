// Dulmage-Mendelsohn block sharding: partition a bipartite graph into
// independent subproblems that can be matched concurrently and stitched
// back together without losing cardinality.
//
// The decomposition starts from ANY matching M0 (typically a cheap
// initializer, not necessarily maximum) and mirrors dm_decompose's
// alternating-reachability marking:
//
//   * V (vertical) vertices are alternating-reachable from the
//     unmatched rows, H (horizontal) vertices are reachable from the
//     unmatched columns and not from unmatched rows, S (square) is the
//     rest. When M0 is maximum this IS the coarse DM partition; for a
//     non-maximum M0 it is a coarsening with the same closure property.
//   * A matched pair always lands in one class together (the reach
//     visits a column and its matched row, or a row and its matched
//     column, as one step), so matched edges never cross classes.
//   * Every M0-augmenting path is an alternating walk from an unmatched
//     row, so all of its vertices are in V and all of its edges are
//     intra-class; the path therefore lies inside ONE connected
//     component of G[V].
//
// The H and S parts contain no unmatched row at all (every unmatched
// row is a V seed), so they are *frozen*: their M0 edges pass through
// verbatim, and they are never split further -- only the V part is
// broken into connected components, because only a V component with a
// free vertex on BOTH sides can host an augmenting path. Components
// failing that test are frozen too. Solving each remaining component
// to optimality and stitching recovers a maximum matching of the whole
// graph by Berge's lemma -- M* (+) M0 decomposes into vertex-disjoint
// augmenting paths, each confined to one solvable component. Keeping
// the component search inside V is also what makes the decomposition
// cheap on nearly-saturated graphs: the alternating reaches only walk
// the deficient region, never the matched bulk. docs/SHARDING.md
// carries the full argument and the operational flag reference.
#pragma once

#include <cstdint>
#include <vector>

#include "graftmatch/dm/dulmage_mendelsohn.hpp"
#include "graftmatch/graph/bipartite_graph.hpp"
#include "graftmatch/graph/matching.hpp"
#include "graftmatch/types.hpp"

namespace graftmatch::shard {

/// Tallies for one connected component of G[V].
struct ShardComponent {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t unmatched_rows = 0;
  std::int64_t unmatched_cols = 0;
  std::int64_t edges = 0;    ///< intra-V edges inside the component
  std::int64_t matched = 0;  ///< M0 pairs inside the component

  /// A component can host an augmenting path only if it still has a
  /// free vertex on BOTH sides; otherwise it is frozen.
  bool solvable() const noexcept {
    return unmatched_rows > 0 && unmatched_cols > 0;
  }
};

/// Vertex classes + V-component labels for a (graph, matching) pair.
/// Every vertex is classified exactly once; every V vertex belongs to
/// exactly one component (H/S vertices keep label -1 -- their coarse
/// parts are frozen as wholes and never split).
struct ShardClassification {
  std::vector<DmBlock> row_class;           ///< size nx
  std::vector<DmBlock> col_class;           ///< size ny
  std::vector<std::int64_t> row_component;  ///< size nx; -1 outside V
  std::vector<std::int64_t> col_component;  ///< size ny; -1 outside V
  std::vector<ShardComponent> components;   ///< V components only
  std::int64_t h_rows = 0;  ///< rows in the (frozen) horizontal part
  std::int64_t h_cols = 0;
  std::int64_t s_rows = 0;  ///< rows in the (frozen) square part
  std::int64_t s_cols = 0;
  /// True when the `max_component_edges` gate fired (see
  /// classify_shards), so classification stopped early. The per-vertex
  /// label vectors are then empty (the seed pre-scan aborts before
  /// allocating them) or partially filled; no other field may be used.
  bool aborted = false;

  std::int64_t solvable_blocks() const noexcept;
  std::int64_t solvable_edges() const noexcept;
  std::int64_t largest_solvable_edges() const noexcept;
  std::int64_t solvable_matched() const noexcept;
};

/// Classify vertices (alternating reach from both free sides, V wins
/// over H as in dm_decompose) and label connected components of G[V].
/// The row-side reach, the component labels, and the per-component edge
/// tallies are fused into a single union-find pass, so the cost is O(n)
/// for the label arrays plus work proportional to the alternating reach
/// regions -- near-saturating initializers leave those tiny.
///
/// `max_component_edges` (0 = unlimited) is the payoff gate. The scan
/// stops early and returns with `aborted` set as soon as any of three
/// signals says sharding cannot pay:
///   1. one component's edge weight crosses the cap (the graph is
///      dominated by a single deficient block);
///   2. the unmatched rows' combined degree crosses three times the cap
///      during a zero-allocation pre-scan (the V region is guaranteed
///      to span several times the cap before the BFS even starts, and
///      the function returns before touching a per-vertex array);
///   3. a quarter of the cap has been traversed and a single component
///      holds more than half of it (a giant is forming, no need to
///      wait for it to reach the cap).
/// Callers then solve monolithically having spent only a fraction of
/// one pass; block-rich graphs (many communities, each a small slice of
/// the total) trip none of the three.
ShardClassification classify_shards(const BipartiteGraph& g,
                                    const Matching& m0,
                                    std::int64_t max_component_edges = 0);

/// One solvable V component lifted out as a standalone subproblem.
struct ShardBlock {
  std::int64_t component = -1;  ///< index into `components`
  BipartiteGraph graph;         ///< sub-CSR over local ids
  std::vector<vid_t> x_ids;     ///< local row -> global row, ascending
  std::vector<vid_t> y_ids;     ///< local col -> global col, ascending
  Matching initial;             ///< M0 projected into local ids
};

/// Extract every solvable component as a sub-CSR with its slice of M0.
/// Each block is the subgraph induced by its component's vertices
/// (graph/induced_subgraph.hpp): one pass gathers every block's rows
/// from g's sorted rows, with no sort and no transpose.
/// Frozen components are not extracted -- their M0 edges stay in the
/// global matching untouched.
std::vector<ShardBlock> extract_blocks(const BipartiteGraph& g,
                                       const Matching& m0,
                                       const ShardClassification& c);

/// Replace `global`'s edges on `block`'s vertices with the solved local
/// matching, translated back to global ids. Blocks are vertex-disjoint,
/// so stitching different blocks never conflicts.
void stitch_block(const ShardBlock& block, const Matching& local,
                  Matching& global);

}  // namespace graftmatch::shard
