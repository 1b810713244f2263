#include "delaunay/triangulator.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "delaunay/brio.hpp"
#include "obs/trace.hpp"

namespace aero {

TriangulateResult triangulate(const Pslg& pslg,
                              const TriangulateOptions& opts) {
  AERO_TRACE_SPAN("delaunay", "triangulate");
  TriangulateResult out;

  // Determine insertion order. Triangle sorts its input by x-coordinate on
  // invocation; when the caller guarantees sortedness we skip this, which is
  // exactly the optimization the paper applies after its decompositions.
  // kBrio instead uses the randomized-round + Hilbert-curve order of
  // delaunay/brio.hpp — better locate locality on large unsorted clouds.
  const InsertionOrder order =
      opts.assume_sorted ? InsertionOrder::kInput : opts.order;
  std::vector<std::uint32_t> perm;
  if (order == InsertionOrder::kBrio) {
    perm = brio_order(pslg.points);
  } else {
    perm.resize(pslg.points.size());
    std::iota(perm.begin(), perm.end(), 0u);
    if (order == InsertionOrder::kXSorted) {
      std::sort(perm.begin(), perm.end(),
                [&pslg](std::uint32_t a, std::uint32_t b) {
                  return LessXY{}(pslg.points[a], pslg.points[b]);
                });
    }
  }
  std::vector<Vec2> ordered(pslg.points.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    ordered[i] = pslg.points[perm[i]];
  }

  std::vector<VertIndex> ids_by_position;
  if (!out.mesh.triangulate(ordered, &ids_by_position)) {
    throw std::invalid_argument(
        "triangulate: input has fewer than 3 non-collinear points");
  }

  // Undo the permutation so vertex_ids is indexed by original point index.
  out.vertex_ids.assign(pslg.points.size(), kGhost);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    out.vertex_ids[perm[i]] = ids_by_position[i];
  }

  if (opts.constrained) {
    for (const auto& [a, b] : pslg.segments) {
      out.mesh.insert_segment(out.vertex_ids[a], out.vertex_ids[b]);
    }
  }
  if (opts.carve) {
    out.mesh.carve(pslg.holes);
  }
  if (opts.refine) {
    RuppertRefiner refiner(out.mesh, opts.refine_options);
    out.refine_stats = refiner.refine();
  }
  return out;
}

TriangulateResult triangulate_points(const std::vector<Vec2>& points,
                                     bool assume_sorted) {
  Pslg pslg;
  pslg.points = points;
  TriangulateOptions opts;
  opts.constrained = false;
  opts.carve = false;
  opts.assume_sorted = assume_sorted;
  return triangulate(pslg, opts);
}

TriangulateResult triangulate_points(const std::vector<Vec2>& points,
                                     InsertionOrder order) {
  Pslg pslg;
  pslg.points = points;
  TriangulateOptions opts;
  opts.constrained = false;
  opts.carve = false;
  opts.order = order;
  return triangulate(pslg, opts);
}

}  // namespace aero
