#pragma once

#include <vector>

#include "delaunay/mesh.hpp"
#include "delaunay/pslg.hpp"
#include "delaunay/refine.hpp"

namespace aero {

/// Insertion-order policy for incremental Delaunay construction. All three
/// orders yield the same Delaunay triangulation for points in general
/// position; for inputs with exactly cocircular quadruples the diagonal
/// choice inside a cocircular polygon can depend on insertion order, which is
/// why kXSorted stays the default (it is the historical, baseline-identical
/// order) and kBrio is opt-in.
enum class InsertionOrder {
  /// Lexicographic (x, then y) sort — Triangle's default, near-O(1) locate
  /// steps because consecutive points are neighbors along the sweep.
  kXSorted,
  /// Biased Randomized Insertion Order with Hilbert-curve locality within
  /// rounds (see delaunay/brio.hpp): randomized-incremental work bounds plus
  /// cache-friendly walks. Preferred for large unsorted clouds.
  kBrio,
  /// Insert in the caller's order (the caller vouches for locality; this is
  /// what `assume_sorted` selects).
  kInput,
};

/// Options mirroring the Triangle switches the paper relies on.
struct TriangulateOptions {
  /// Insert the PSLG segments (constrained Delaunay). Without this only the
  /// point set is triangulated.
  bool constrained = true;
  /// Remove triangles outside the outer boundary and inside holes.
  bool carve = true;
  /// Run Ruppert refinement after construction.
  bool refine = false;
  RefineOptions refine_options;
  /// Insertion order for the incremental construction.
  InsertionOrder order = InsertionOrder::kXSorted;
  /// The input points are already x-sorted: skip the internal sort (overrides
  /// `order` with kInput). This is the fast path the paper unlocks by
  /// maintaining x-sorted vertex arrays through every decomposition step.
  bool assume_sorted = false;
};

/// Result bundle of a triangulation run.
struct TriangulateResult {
  DelaunayMesh mesh;
  /// Mesh vertex index for each input point (duplicates merged).
  std::vector<VertIndex> vertex_ids;
  RefineStats refine_stats;
};

/// Triangulate a PSLG: Delaunay construction (+ constrained segments,
/// carving, Ruppert refinement per `opts`). This is the drop-in role that
/// Shewchuk's Triangle plays in the paper.
TriangulateResult triangulate(const Pslg& pslg, const TriangulateOptions& opts);

/// Convenience: plain Delaunay triangulation of a point set.
TriangulateResult triangulate_points(const std::vector<Vec2>& points,
                                     bool assume_sorted = false);

/// Convenience: plain Delaunay triangulation with an explicit insertion
/// order (the A/B entry point test_kernel.cpp and bench_kernel use to compare
/// kBrio against kXSorted on the same cloud).
TriangulateResult triangulate_points(const std::vector<Vec2>& points,
                                     InsertionOrder order);

}  // namespace aero
