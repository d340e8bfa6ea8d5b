#include "graftmatch/graph/bipartite_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace graftmatch {
namespace {

// Transpose a canonical CSR (rows strictly ascending): entry r of the
// result lists, ascending, every row that holds column r. One serial
// counting pass with plain stores -- count, prefix-sum, scatter -- and
// the scatter walks the rows in ascending order, so every transposed
// row comes out sorted without a sort pass. A parallel scatter needs a
// locked fetch_add per edge into randomly placed slots and measured
// several times slower than this loop on four threads
// (docs/PERFORMANCE.md).
void transpose(const std::vector<eid_t>& offsets,
               const std::vector<vid_t>& neighbors, vid_t columns,
               std::vector<eid_t>& t_offsets, std::vector<vid_t>& t_neighbors) {
  t_offsets.assign(static_cast<std::size_t>(columns) + 1, 0);
  for (const vid_t c : neighbors) ++t_offsets[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < static_cast<std::size_t>(columns); ++c) {
    t_offsets[c + 1] += t_offsets[c];
  }
  t_neighbors.resize(neighbors.size());
  std::vector<eid_t> cursor(t_offsets.begin(), t_offsets.end() - 1);
  const auto rows = static_cast<vid_t>(offsets.size()) - 1;
  for (vid_t r = 0; r < rows; ++r) {
    for (eid_t k = offsets[static_cast<std::size_t>(r)];
         k < offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      const vid_t c = neighbors[static_cast<std::size_t>(k)];
      t_neighbors[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(c)]++)] = r;
    }
  }
}

}  // namespace

BipartiteGraph::BipartiteGraph(vid_t nx, vid_t ny, std::vector<eid_t> x_offsets,
                               std::vector<vid_t> x_neighbors,
                               std::vector<eid_t> y_offsets,
                               std::vector<vid_t> y_neighbors)
    : nx_(nx),
      ny_(ny),
      x_offsets_(std::move(x_offsets)),
      x_neighbors_(std::move(x_neighbors)),
      y_offsets_(std::move(y_offsets)),
      y_neighbors_(std::move(y_neighbors)) {}

BipartiteGraph BipartiteGraph::from_edges(const EdgeList& list) {
  if (list.nx < 0 || list.ny < 0) {
    throw std::invalid_argument("BipartiteGraph: negative part size");
  }
  if (!list.in_bounds()) {
    throw std::invalid_argument("BipartiteGraph: edge endpoint out of range");
  }

  EdgeList canonical = list;
  canonical.canonicalize();

  // The canonical list is sorted by (x, y): its y column, in order, is
  // the X side's neighbor array, and counting x gives the offsets.
  BipartiteGraph g;
  g.nx_ = canonical.nx;
  g.ny_ = canonical.ny;
  g.x_offsets_.assign(static_cast<std::size_t>(g.nx_) + 1, 0);
  g.x_neighbors_.reserve(canonical.edges.size());
  for (const Edge& e : canonical.edges) {
    ++g.x_offsets_[static_cast<std::size_t>(e.x) + 1];
    g.x_neighbors_.push_back(e.y);
  }
  for (std::size_t x = 0; x < static_cast<std::size_t>(g.nx_); ++x) {
    g.x_offsets_[x + 1] += g.x_offsets_[x];
  }
  transpose(g.x_offsets_, g.x_neighbors_, g.ny_, g.y_offsets_, g.y_neighbors_);
  return g;
}

BipartiteGraph BipartiteGraph::from_csr(std::span<const eid_t> offsets,
                                        std::span<const vid_t> neighbors,
                                        vid_t ny) {
  if (offsets.empty()) {
    throw std::invalid_argument("from_csr: offsets must have nx+1 entries");
  }
  if (offsets.front() != 0 ||
      offsets.back() != static_cast<eid_t>(neighbors.size())) {
    throw std::invalid_argument("from_csr: offsets do not frame neighbors");
  }
  EdgeList list;
  list.nx = static_cast<vid_t>(offsets.size()) - 1;
  list.ny = ny;
  list.edges.reserve(neighbors.size());
  for (vid_t x = 0; x < list.nx; ++x) {
    const eid_t begin = offsets[static_cast<std::size_t>(x)];
    const eid_t end = offsets[static_cast<std::size_t>(x) + 1];
    if (begin > end) {
      throw std::invalid_argument("from_csr: offsets must be nondecreasing");
    }
    for (eid_t k = begin; k < end; ++k) {
      list.edges.push_back({x, neighbors[static_cast<std::size_t>(k)]});
    }
  }
  return from_edges(list);
}

BipartiteGraph BipartiteGraph::from_canonical_csr(
    std::vector<eid_t> offsets, std::vector<vid_t> neighbors, vid_t ny) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != static_cast<eid_t>(neighbors.size())) {
    throw std::invalid_argument(
        "from_canonical_csr: offsets do not frame neighbors");
  }
  if (ny < 0) {
    throw std::invalid_argument("from_canonical_csr: negative part size");
  }
  const vid_t nx = static_cast<vid_t>(offsets.size()) - 1;

  // Validate per row: nondecreasing offsets, strictly ascending
  // neighbors in range.
  for (vid_t x = 0; x < nx; ++x) {
    const eid_t begin = offsets[static_cast<std::size_t>(x)];
    const eid_t end = offsets[static_cast<std::size_t>(x) + 1];
    bool malformed = begin > end;
    vid_t previous = -1;
    for (eid_t k = begin; k < end && !malformed; ++k) {
      const vid_t y = neighbors[static_cast<std::size_t>(k)];
      malformed = y <= previous || y >= ny;
      previous = y;
    }
    if (malformed) {
      throw std::invalid_argument(
          "from_canonical_csr: rows must be sorted, duplicate-free, in "
          "range");
    }
  }

  BipartiteGraph g;
  g.nx_ = nx;
  g.ny_ = ny;
  g.x_offsets_ = std::move(offsets);
  g.x_neighbors_ = std::move(neighbors);
  transpose(g.x_offsets_, g.x_neighbors_, ny, g.y_offsets_, g.y_neighbors_);
  return g;
}

bool BipartiteGraph::has_edge(vid_t x, vid_t y) const noexcept {
  if (x < 0 || x >= nx_ || y < 0 || y >= ny_) return false;
  const auto adj = neighbors_of_x(x);
  return std::binary_search(adj.begin(), adj.end(), y);
}

EdgeList BipartiteGraph::to_edges() const {
  EdgeList list;
  list.nx = nx_;
  list.ny = ny_;
  list.edges.reserve(static_cast<std::size_t>(num_edges()));
  for (vid_t x = 0; x < nx_; ++x) {
    for (vid_t y : neighbors_of_x(x)) list.edges.push_back({x, y});
  }
  return list;
}

std::int64_t BipartiteGraph::memory_bytes() const noexcept {
  return static_cast<std::int64_t>(
      (x_offsets_.size() + y_offsets_.size()) * sizeof(eid_t) +
      (x_neighbors_.size() + y_neighbors_.size()) * sizeof(vid_t));
}

}  // namespace graftmatch
