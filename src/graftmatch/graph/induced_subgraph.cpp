#include "graftmatch/graph/induced_subgraph.hpp"

#include <stdexcept>
#include <utility>

#include "graftmatch/runtime/parallel.hpp"

namespace graftmatch {
namespace {

/// One CSR side of the source graph with the labels of its rows.
struct Rows {
  std::span<const eid_t> offsets;
  std::span<const vid_t> neighbors;
  std::span<const std::int32_t> part;

  vid_t size() const noexcept { return static_cast<vid_t>(part.size()); }
  std::span<const vid_t> of(vid_t v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    const auto begin = static_cast<std::size_t>(offsets[i]);
    return neighbors.subspan(begin,
                             static_cast<std::size_t>(offsets[i + 1]) - begin);
  }
};

/// One side of one part while it is being built.
struct SideBuild {
  std::vector<vid_t> ids;  ///< local -> source, ascending
  std::vector<eid_t> offsets{0};
  std::vector<vid_t> neighbors;
};

/// body(v) for every row v: on the team when `wide`, else inline.
template <typename Body>
void for_each_row(bool wide, vid_t n, Body&& body) {
  if (!wide) {
    for (vid_t v = 0; v < n; ++v) body(v);
    return;
  }
  parallel_region([&] {
#pragma omp for schedule(dynamic, 512)
    for (std::int64_t v = 0; v < n; ++v) body(static_cast<vid_t>(v));
  });
}

/// Per row: how many of its neighbors share its part (0 if unlabelled).
std::vector<eid_t> count_rows(const Rows& rows,
                              std::span<const std::int32_t> col_part,
                              bool wide) {
  std::vector<eid_t> count(static_cast<std::size_t>(rows.size()), 0);
  for_each_row(wide, rows.size(), [&](vid_t v) {
    const std::int32_t p = rows.part[static_cast<std::size_t>(v)];
    if (p < 0) return;
    eid_t kept = 0;
    for (const vid_t u : rows.of(v)) {
      kept += col_part[static_cast<std::size_t>(u)] == p;
    }
    count[static_cast<std::size_t>(v)] = kept;
  });
  return count;
}

/// Serial pass in ascending source order: check every row's label and
/// give every labelled row with an edge in its part the next local id
/// of that part and its offsets. Turns the per-row counts into the
/// source -> local id map in place (kInvalidVertex for rows left out).
/// The count pass before it reads labels only by comparison, so an
/// unchecked label cannot misdirect it.
std::vector<vid_t> number_rows(const Rows& rows, std::vector<eid_t> count,
                               std::vector<SideBuild>& sides) {
  for (vid_t v = 0; v < rows.size(); ++v) {
    const std::int32_t p = rows.part[static_cast<std::size_t>(v)];
    if (p < -1 || p >= static_cast<std::int32_t>(sides.size())) {
      throw std::invalid_argument("induced_subgraphs: part label out of range");
    }
    eid_t& slot = count[static_cast<std::size_t>(v)];
    if (p < 0 || slot == 0) {
      slot = kInvalidVertex;
      continue;
    }
    SideBuild& side = sides[static_cast<std::size_t>(p)];
    side.offsets.push_back(side.offsets.back() + slot);
    slot = static_cast<vid_t>(side.ids.size());
    side.ids.push_back(v);
  }
  for (SideBuild& side : sides) {
    side.neighbors.resize(static_cast<std::size_t>(side.offsets.back()));
  }
  return count;
}

/// Gather every kept row's same-part neighbors through `col_local`.
/// The source row is sorted and `col_local` is monotone within a part,
/// so the local row comes out sorted.
void fill_rows(const Rows& rows, std::span<const std::int32_t> col_part,
               const std::vector<vid_t>& row_local,
               const std::vector<vid_t>& col_local,
               std::vector<SideBuild>& sides, bool wide) {
  for_each_row(wide, rows.size(), [&](vid_t v) {
    const vid_t i = row_local[static_cast<std::size_t>(v)];
    if (i == kInvalidVertex) return;
    const std::int32_t p = rows.part[static_cast<std::size_t>(v)];
    SideBuild& side = sides[static_cast<std::size_t>(p)];
    auto cursor =
        static_cast<std::size_t>(side.offsets[static_cast<std::size_t>(i)]);
    for (const vid_t u : rows.of(v)) {
      if (col_part[static_cast<std::size_t>(u)] != p) continue;
      side.neighbors[cursor++] = col_local[static_cast<std::size_t>(u)];
    }
  });
}

}  // namespace

std::vector<InducedSubgraph> induced_subgraphs(
    const BipartiteGraph& g, std::span<const std::int32_t> x_part,
    std::span<const std::int32_t> y_part, std::int32_t parts) {
  if (static_cast<vid_t>(x_part.size()) != g.num_x() ||
      static_cast<vid_t>(y_part.size()) != g.num_y() || parts < 0) {
    throw std::invalid_argument("induced_subgraphs: labels do not fit graph");
  }
  const Rows xs{g.x_offsets(), g.x_neighbors(), x_part};
  const Rows ys{g.y_offsets(), g.y_neighbors(), y_part};
  const bool wide = team_pays(g.num_edges());

  std::vector<SideBuild> x_sides(static_cast<std::size_t>(parts));
  std::vector<SideBuild> y_sides(static_cast<std::size_t>(parts));
  const std::vector<vid_t> x_local =
      number_rows(xs, count_rows(xs, y_part, wide), x_sides);
  const std::vector<vid_t> y_local =
      number_rows(ys, count_rows(ys, x_part, wide), y_sides);
  // A same-part neighbor is never a dropped vertex: that edge alone
  // gives it a nonzero count.
  fill_rows(xs, y_part, x_local, y_local, x_sides, wide);
  fill_rows(ys, x_part, y_local, x_local, y_sides, wide);

  std::vector<InducedSubgraph> out;
  out.reserve(static_cast<std::size_t>(parts));
  for (std::size_t p = 0; p < static_cast<std::size_t>(parts); ++p) {
    SideBuild& x = x_sides[p];
    SideBuild& y = y_sides[p];
    const auto nx = static_cast<vid_t>(x.ids.size());
    const auto ny = static_cast<vid_t>(y.ids.size());
    out.push_back({BipartiteGraph(nx, ny, std::move(x.offsets),
                                  std::move(x.neighbors), std::move(y.offsets),
                                  std::move(y.neighbors)),
                   std::move(x.ids), std::move(y.ids)});
  }
  return out;
}

}  // namespace graftmatch
