// Induced-subgraph builder: cut a bipartite graph into the subgraphs
// induced by a labelling of its vertices, each over its own dense ids.
//
// This is how every derived CSR in the library is built: the d1 kernel
// of reduce/ (one part: the live vertices) and the DM blocks of shard/
// (one part per solvable component). Local ids follow source ids in
// ascending order, so both sides of every part are GATHERED from the
// source's already-sorted rows -- a count pass, a serial prefix over
// the labels, then a fill pass -- and nothing is sorted or transposed.
// The count and fill passes run in parallel by row once the source has
// kMinTeamWork edges (runtime/parallel.hpp); every slot has one writer,
// so they need no atomics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graftmatch/graph/bipartite_graph.hpp"
#include "graftmatch/types.hpp"

namespace graftmatch {

/// One part cut out of a source graph by induced_subgraphs().
struct InducedSubgraph {
  BipartiteGraph graph;      ///< over local ids
  std::vector<vid_t> x_ids;  ///< local X id -> source X id, ascending
  std::vector<vid_t> y_ids;  ///< local Y id -> source Y id, ascending
};

/// Cut `g` into `parts` induced subgraphs. x_part[x] (size nx) and
/// y_part[y] (size ny) name the part a vertex belongs to, in
/// [0, parts), or -1 for none; part p keeps exactly the edges whose
/// ends are both labelled p. A labelled vertex with no edge in its
/// part is left out of it (no matching of the part can use it). The
/// result is the same, array for array, as from_edges over each part's
/// filtered edge list in local ids, with the part's vertices that have
/// an edge numbered in ascending source order.
/// Throws std::invalid_argument on mis-sized labels or a label out of
/// range.
std::vector<InducedSubgraph> induced_subgraphs(
    const BipartiteGraph& g, std::span<const std::int32_t> x_part,
    std::span<const std::int32_t> y_part, std::int32_t parts);

}  // namespace graftmatch
