// Bipartite graph in compressed sparse row form, stored in BOTH
// directions (X -> Y and Y -> X adjacency).
//
// The paper (Sec. IV-B) keeps each nonzero A[i][j] as two directed edges
// so that top-down traversals can scan X adjacency and bottom-up
// traversals can scan Y adjacency; we mirror that layout. In the paper's
// accounting, m = 2 * nnz; num_edges() below returns nnz (the number of
// undirected edges) and num_directed_edges() returns the paper's m.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graftmatch/graph/edge_list.hpp"
#include "graftmatch/types.hpp"

namespace graftmatch {

struct InducedSubgraph;
class BipartiteGraph;

/// See graph/induced_subgraph.hpp.
std::vector<InducedSubgraph> induced_subgraphs(
    const BipartiteGraph& g, std::span<const std::int32_t> x_part,
    std::span<const std::int32_t> y_part, std::int32_t parts);

class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  /// Build from an edge list. Duplicate edges are merged. Endpoints are
  /// validated; throws std::invalid_argument on out-of-range vertices.
  /// The list is canonicalized (sorted by (x, y)), which gives the X
  /// side as-is; the Y side is its serial counting transpose.
  static BipartiteGraph from_edges(const EdgeList& edges);

  /// Build directly from an X-side CSR (offsets of size nx+1, neighbors
  /// holding Y ids). The Y-side adjacency is derived. Neighbor lists may
  /// be unsorted and contain duplicates; they are canonicalized. Throws
  /// std::invalid_argument on malformed offsets or out-of-range ids.
  static BipartiteGraph from_csr(std::span<const eid_t> offsets,
                                 std::span<const vid_t> neighbors, vid_t ny);

  /// Build from an already-canonical X-side CSR: offsets framing
  /// neighbors, every row sorted strictly ascending, ids in [0, ny).
  /// The arrays are adopted without a canonicalization sort (the
  /// validation and the derived Y side are serial O(n + m) passes),
  /// which is what the overlay compaction in dynamic/ relies on. Throws
  /// std::invalid_argument when the input is not canonical.
  static BipartiteGraph from_canonical_csr(std::vector<eid_t> offsets,
                                           std::vector<vid_t> neighbors,
                                           vid_t ny);

  vid_t num_x() const noexcept { return nx_; }
  vid_t num_y() const noexcept { return ny_; }
  vid_t num_vertices() const noexcept { return nx_ + ny_; }

  /// Number of undirected edges (nnz of the underlying matrix).
  std::int64_t num_edges() const noexcept {
    return static_cast<std::int64_t>(x_neighbors_.size());
  }
  /// m in the paper's convention: each nonzero counted in both directions.
  std::int64_t num_directed_edges() const noexcept { return 2 * num_edges(); }

  /// Neighbors (Y vertices) of an X vertex, sorted ascending.
  std::span<const vid_t> neighbors_of_x(vid_t x) const noexcept {
    return {x_neighbors_.data() + x_offsets_[static_cast<std::size_t>(x)],
            x_neighbors_.data() + x_offsets_[static_cast<std::size_t>(x) + 1]};
  }

  /// Neighbors (X vertices) of a Y vertex, sorted ascending.
  std::span<const vid_t> neighbors_of_y(vid_t y) const noexcept {
    return {y_neighbors_.data() + y_offsets_[static_cast<std::size_t>(y)],
            y_neighbors_.data() + y_offsets_[static_cast<std::size_t>(y) + 1]};
  }

  eid_t degree_x(vid_t x) const noexcept {
    return x_offsets_[static_cast<std::size_t>(x) + 1] -
           x_offsets_[static_cast<std::size_t>(x)];
  }
  eid_t degree_y(vid_t y) const noexcept {
    return y_offsets_[static_cast<std::size_t>(y) + 1] -
           y_offsets_[static_cast<std::size_t>(y)];
  }

  /// True when (x, y) is an edge. O(log degree_x(x)).
  bool has_edge(vid_t x, vid_t y) const noexcept;

  /// Raw CSR views for kernel implementations.
  std::span<const eid_t> x_offsets() const noexcept { return x_offsets_; }
  std::span<const vid_t> x_neighbors() const noexcept { return x_neighbors_; }
  std::span<const eid_t> y_offsets() const noexcept { return y_offsets_; }
  std::span<const vid_t> y_neighbors() const noexcept { return y_neighbors_; }

  /// Reconstruct the (canonical) edge list.
  EdgeList to_edges() const;

  /// Approximate resident bytes of the CSR arrays.
  std::int64_t memory_bytes() const noexcept;

 private:
  friend std::vector<InducedSubgraph> induced_subgraphs(
      const BipartiteGraph& g, std::span<const std::int32_t> x_part,
      std::span<const std::int32_t> y_part, std::int32_t parts);

  /// Adopt both sides as they are (the induced builder's output).
  BipartiteGraph(vid_t nx, vid_t ny, std::vector<eid_t> x_offsets,
                 std::vector<vid_t> x_neighbors, std::vector<eid_t> y_offsets,
                 std::vector<vid_t> y_neighbors);

  vid_t nx_ = 0;
  vid_t ny_ = 0;
  std::vector<eid_t> x_offsets_;  ///< size nx+1
  std::vector<vid_t> x_neighbors_;
  std::vector<eid_t> y_offsets_;  ///< size ny+1
  std::vector<vid_t> y_neighbors_;
};

}  // namespace graftmatch
