#pragma once

#include <cstddef>
#include <functional>
#include <limits>

#include "delaunay/mesh.hpp"

namespace aero {

/// Area sizing function: upper bound on triangle area at a location.
/// Infinity means unconstrained.
using AreaSizing = std::function<double(Vec2)>;

/// Options for Ruppert-style Delaunay refinement.
struct RefineOptions {
  /// Circumradius-to-shortest-edge bound B. Ruppert's algorithm terminates
  /// for B >= sqrt(2) (minimum angle arcsin(1/(2B)) ~ 20.7 degrees), which is
  /// the bound the paper's decoupling procedure is derived from.
  double radius_edge_bound = std::numeric_limits<double>::infinity();
  /// Uniform maximum triangle area (like Triangle's -a<value>).
  double max_area = std::numeric_limits<double>::infinity();
  /// Spatially varying maximum area, evaluated at the triangle centroid
  /// (the graded sizing function of the inviscid region). Null = unused.
  AreaSizing sizing;
  /// Safety valve on the number of Steiner points.
  std::size_t max_steiner = 50'000'000;
  /// Optional veto on splitting a constrained segment (by its endpoints).
  /// Used to protect decoupled shared borders: the grading rule guarantees
  /// they never *need* splitting, and splitting one would break conformity
  /// with the neighboring subdomain refined on another process.
  std::function<bool(Vec2, Vec2)> splittable;
};

/// Statistics returned by a refinement run.
struct RefineStats {
  std::size_t steiner_points = 0;
  std::size_t segment_splits = 0;
  std::size_t circumcenters = 0;
  std::size_t skipped_seditious = 0;
  bool hit_steiner_cap = false;
};

/// Ruppert Delaunay refinement over a carved constrained Delaunay mesh.
///
/// Splits encroached constrained subsegments (diametral-circle rule, with
/// concentric power-of-two shells off input vertices to survive the small
/// input angles of sharp trailing edges) and inserts circumcenters of
/// low-quality or oversized interior triangles, exactly as Triangle does for
/// the paper's inviscid subdomains.
class RuppertRefiner {
 public:
  RuppertRefiner(DelaunayMesh& mesh, RefineOptions options);

  /// Run to completion; returns statistics. The mesh must already be
  /// triangulated, constrained, and carved.
  RefineStats refine();

 private:
  bool triangle_is_bad(TriIndex t) const;
  bool edge_is_encroached(TriIndex t, int slot) const;
  /// Split constrained edge (u, w); returns the new vertex or kGhost if the
  /// edge no longer exists / is too short to split.
  VertIndex split_segment(VertIndex u, VertIndex w);
  /// Queue bad triangles and encroached segments in the star of v.
  void scan_star(VertIndex v);
  /// Straight walk from triangle `t` toward point c that refuses to cross
  /// constrained edges. Returns either the located triangle or the blocking
  /// constrained edge.
  struct Walk {
    bool blocked = false;
    bool on_vertex = false;
    TriIndex tri = kNoTri;
    int edge = -1;
  };
  Walk walk_to(Vec2 c, TriIndex t) const;

  DelaunayMesh& mesh_;
  RefineOptions opts_;
  RefineStats stats_;

  std::vector<std::pair<VertIndex, VertIndex>> seg_queue_;
  std::vector<TriIndex> tri_queue_;
  /// Scratch for the circumcenter encroachment pre-check (grow-only; cleared,
  /// not freed, between circumcenter attempts).
  std::vector<TriIndex> precheck_stack_;
  std::vector<TriIndex> precheck_visited_;
  std::vector<std::pair<VertIndex, VertIndex>> encroached_;
  /// For each vertex, the input vertex its concentric shell is centered on
  /// (kGhost when not a shell split point). Used to detect "seditious" short
  /// edges between shells of the same small-angle cluster.
  std::vector<VertIndex> shell_origin_;
};

}  // namespace aero
