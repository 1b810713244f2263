#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "delaunay/chunked.hpp"
#include "geom/bbox.hpp"
#include "geom/vec2.hpp"
#include "obs/annotations.hpp"

namespace aero {

/// Vertex index. kGhost denotes the single topological vertex "at infinity"
/// that closes the triangulation into a sphere; every convex-hull edge is
/// shared between a finite triangle and a ghost triangle incident to kGhost.
using VertIndex = std::int32_t;
using TriIndex = std::int32_t;
inline constexpr VertIndex kGhost = -1;
inline constexpr TriIndex kNoTri = -1;

/// A value snapshot of one triangle, assembled from the SoA arrays by
/// DelaunayMesh::tri(). Finite triangles store their vertices in
/// counter-clockwise order. Ghost triangles have v[2] == kGhost and
/// (v[0], v[1]) traversing the convex hull so that the finite interior is on
/// the right of v[0]->v[1] (i.e. the matching finite triangle owns the
/// directed hull edge (v[1], v[0])).
struct MeshTri {
  std::array<VertIndex, 3> v{kGhost, kGhost, kGhost};
  /// Neighbor across the edge opposite v[i]; edge i is (v[i+1], v[i+2]).
  std::array<TriIndex, 3> n{kNoTri, kNoTri, kNoTri};
  /// Per-edge constraint marks, aligned with `n`.
  std::array<bool, 3> constrained{false, false, false};
  /// Region flag maintained by carving: true while the triangle belongs to
  /// the meshed domain. Ghost triangles are never inside.
  bool inside = true;
  bool dead = false;

  bool is_ghost() const { return v[2] == kGhost; }
  /// Local index (0..2) of vertex `u`, or -1.
  int index_of(VertIndex u) const {
    for (int i = 0; i < 3; ++i) {
      if (v[i] == u) return i;
    }
    return -1;
  }
};

/// Result of point location.
struct LocateResult {
  enum class Kind {
    kInside,      ///< strictly inside a finite triangle
    kOnEdge,      ///< on the interior of edge `edge` of triangle `tri`
    kOnVertex,    ///< coincides with vertex v[edge] of triangle `tri`
    kOutside,     ///< outside the convex hull; `tri` is a ghost triangle
  };
  Kind kind = Kind::kInside;
  TriIndex tri = kNoTri;
  int edge = 0;  ///< meaning depends on kind (edge index or vertex slot)
};

/// Delaunay triangulation with incremental Bowyer-Watson insertion,
/// constrained edges, and region carving.
///
/// The structure is a topological sphere: in addition to the finite
/// triangles, a ring of ghost triangles (incident to the virtual vertex
/// kGhost) covers the outer face. This removes every hull special case from
/// insertion: a point outside the current hull simply has ghost triangles in
/// its cavity.
///
/// Storage is structure-of-arrays over chunked grow-only arenas
/// (delaunay/chunked.hpp): vertex coordinates, triangle connectivity
/// (`tri_v_`), adjacency (`tri_n_`), and a packed per-triangle flag byte
/// each live in their own arena. 25 bytes per triangle slot (vs 32 for the
/// old array-of-structs record) and no reallocation spikes. Triangle ids
/// are never reused within one triangulation run, so the id sequence — and
/// through it the merged-mesh output — is identical to the old layout.
class DelaunayMesh {
 public:
  DelaunayMesh() = default;

  /// Number of live finite triangles.
  std::size_t triangle_count() const { return live_finite_; }
  /// Number of live finite triangles marked inside the domain.
  std::size_t inside_triangle_count() const;
  std::size_t point_count() const { return points_.size(); }

  Vec2 point(VertIndex v) const { return points_[static_cast<size_t>(v)]; }

  /// Total triangle slots including dead and ghost entries; callers filter
  /// with is_live_finite(). Index stability: triangle ids are never reused
  /// within one triangulation run.
  std::size_t triangle_slots() const { return tri_v_.size(); }

  /// Value snapshot of triangle t (dead and ghost slots included).
  MeshTri tri(TriIndex t) const {
    const auto i = static_cast<std::size_t>(t);
    MeshTri m;
    m.v = tri_v_[i];
    m.n = tri_n_[i];
    const std::uint8_t f = tri_flags_[i];
    m.constrained = {(f & kConstrained0) != 0, (f & kConstrained1) != 0,
                     (f & kConstrained2) != 0};
    m.inside = (f & kInside) != 0;
    m.dead = (f & kDead) != 0;
    return m;
  }

  /// Override the region flag of a triangle (used by the decomposition's
  /// circumcenter ownership rule and by global carving).
  void set_inside(TriIndex t, bool inside) {
    set_flag(t, kInside, inside);
  }

  bool is_live_finite(TriIndex t) const {
    const auto i = static_cast<std::size_t>(t);
    return (tri_flags_[i] & kDead) == 0 && tri_v_[i][2] != kGhost;
  }

  /// Initialize from at least two distinct points; returns false if all
  /// input points are collinear (no 2D triangulation exists).
  /// Points are inserted in the given order — pre-sorting them (x-sorted, as
  /// the paper maintains through every decomposition step) makes the
  /// walk-from-previous point location near O(1) per insertion.
  /// If `ids` is non-null it receives, for each input position, the vertex
  /// index assigned in the mesh (duplicates map to the first occurrence).
  bool triangulate(const std::vector<Vec2>& pts,
                   std::vector<VertIndex>* ids = nullptr);

  /// Insert one point. Returns the vertex index (an existing index if the
  /// point duplicates a present vertex). `respect_constraints` stops the
  /// cavity from crossing constrained edges (required once segments exist).
  /// `hint` seeds the locate walk (pass a triangle near/containing p when
  /// the caller already walked there, e.g. Ruppert's circumcenter walk);
  /// kNoTri falls back to the last touched triangle.
  VertIndex insert_point(Vec2 p, bool respect_constraints,
                         TriIndex hint = kNoTri);

  /// Insert a point known to lie in the interior of constrained edge
  /// `edge` of triangle `t`. Splits the constraint into two constrained
  /// subedges. Returns the new vertex index.
  VertIndex insert_point_on_edge(Vec2 p, TriIndex t, int edge);

  /// Force edge (u, w) into the triangulation (constrained Delaunay): removes
  /// crossing edges and retriangulates both side polygons, then marks the
  /// edge constrained. Existing constrained edges must not cross it; input
  /// vertices lying exactly on the segment split it automatically.
  void insert_segment(VertIndex u, VertIndex w);

  /// Locate point p starting from triangle `hint` (or the last touched
  /// triangle when kNoTri).
  LocateResult locate(Vec2 p, TriIndex hint = kNoTri) const;

  /// Find the triangle/edge pair for directed edge (u, w), or kNoTri.
  std::pair<TriIndex, int> find_edge(VertIndex u, VertIndex w) const;

  /// Mark triangles outside the outer boundary and inside holes as
  /// !inside, flooding from ghost triangles / hole seeds and stopping at
  /// constrained edges.
  void carve(const std::vector<Vec2>& hole_seeds);

  /// Some incident live triangle of v (kNoTri if isolated, which cannot
  /// happen after triangulate()).
  TriIndex incident_triangle(VertIndex v) const {
    return vert_tri_[static_cast<size_t>(v)];
  }

  /// True if vertex v was present in the original input (not a Steiner
  /// point added by refinement). Valid after triangulate().
  bool is_input_vertex(VertIndex v) const {
    return static_cast<std::size_t>(v) < input_point_count_;
  }
  std::size_t input_point_count() const { return input_point_count_; }

  /// Visit each live finite triangle index.
  template <typename Fn>
  void for_each_triangle(Fn&& fn) const {
    for (TriIndex t = 0; t < static_cast<TriIndex>(tri_v_.size()); ++t) {
      if (is_live_finite(t)) fn(t);
    }
  }

  /// Validate internal adjacency/orientation invariants (tests only; O(n)).
  bool check_topology() const;
  /// Validate the (constrained) Delaunay property of every inside edge
  /// (tests only; O(n)).
  bool check_delaunay() const;

  /// Test-only backdoor (defined in tests/test_audit.cpp): the audit tests
  /// corrupt triangles and points through it to prove audit_delaunay()
  /// detects each defect class. Never used by library code.
  struct TestAccess;

 private:
  friend class RuppertRefiner;

  // Flag byte layout (tri_flags_): three per-edge constraint bits aligned
  // with tri_n_, the carve region bit, and the tombstone bit.
  static constexpr std::uint8_t kConstrained0 = 1u << 0;
  static constexpr std::uint8_t kConstrained1 = 1u << 1;
  static constexpr std::uint8_t kConstrained2 = 1u << 2;
  static constexpr std::uint8_t kInside = 1u << 3;
  static constexpr std::uint8_t kDead = 1u << 4;
  static constexpr std::uint8_t kConstrainedMask =
      kConstrained0 | kConstrained1 | kConstrained2;

  // -- SoA accessors (the only paths to the arenas; friends use these) -----
  std::array<VertIndex, 3>& tv(TriIndex t) {
    return tri_v_[static_cast<std::size_t>(t)];
  }
  const std::array<VertIndex, 3>& tv(TriIndex t) const {
    return tri_v_[static_cast<std::size_t>(t)];
  }
  std::array<TriIndex, 3>& tn(TriIndex t) {
    return tri_n_[static_cast<std::size_t>(t)];
  }
  const std::array<TriIndex, 3>& tn(TriIndex t) const {
    return tri_n_[static_cast<std::size_t>(t)];
  }
  bool tri_dead(TriIndex t) const {
    return (tri_flags_[static_cast<std::size_t>(t)] & kDead) != 0;
  }
  bool tri_ghost(TriIndex t) const { return tv(t)[2] == kGhost; }
  bool tri_inside(TriIndex t) const {
    return (tri_flags_[static_cast<std::size_t>(t)] & kInside) != 0;
  }
  bool tri_constrained(TriIndex t, int edge) const {
    return (tri_flags_[static_cast<std::size_t>(t)] &
            (kConstrained0 << edge)) != 0;
  }
  void set_flag(TriIndex t, std::uint8_t bit, bool on) {
    std::uint8_t& f = tri_flags_[static_cast<std::size_t>(t)];
    f = on ? static_cast<std::uint8_t>(f | bit)
           : static_cast<std::uint8_t>(f & ~bit);
  }
  void set_constrained(TriIndex t, int edge, bool on) {
    set_flag(t, static_cast<std::uint8_t>(kConstrained0 << edge), on);
  }
  int index_of(TriIndex t, VertIndex u) const {
    const auto& v = tv(t);
    for (int i = 0; i < 3; ++i) {
      if (v[i] == u) return i;
    }
    return -1;
  }

  TriIndex new_tri();
  std::uint32_t next_rand() const;
  void kill_tri(TriIndex t);
  void link(TriIndex t, int edge, TriIndex u, int uedge);
  void set_vert_tri(TriIndex t);

  /// True if p lies in the circumdisk of triangle t (half-plane test for
  /// ghosts). Exact.
  bool in_cavity(TriIndex t, Vec2 p) const;

  /// Bowyer-Watson cavity insertion. `seeds` are the (at most two) triangles
  /// already known to be in the cavity. Returns the new vertex. All scratch
  /// state lives in the cavity arena below: steady-state insertion performs
  /// no heap allocation beyond the amortized growth of the mesh arrays.
  VertIndex insert_into_cavity(Vec2 p, const TriIndex* seeds,
                               std::size_t nseeds, bool respect_constraints);

  /// Replace diagonal (a, b) of the strictly convex quad around edge `edge`
  /// of t with the opposite diagonal. Both incident triangles must be finite.
  void flip_edge(TriIndex t, int edge);

  /// Restore the (constrained) Delaunay property by flip propagation
  /// starting from the given edge.
  void legalize_edge(TriIndex t, int edge);

  // SoA arenas (see class comment).
  ChunkedArray<Vec2> points_;
  ChunkedArray<std::array<VertIndex, 3>> tri_v_;
  ChunkedArray<std::array<TriIndex, 3>> tri_n_;
  ChunkedArray<std::uint8_t> tri_flags_;
  ChunkedArray<TriIndex> vert_tri_;
  std::size_t live_finite_ = 0;
  std::size_t input_point_count_ = 0;
  /// Walk-hint cache. Per-mesh state: one thread owns each mesh, so pool
  /// ranks and service workers meshing concurrently never share it.
  mutable TriIndex last_tri_
      AERO_SHARED_STATE("per-mesh; one thread owns each mesh") = kNoTri;
  /// Stochastic-walk PRNG state (see next_rand in mesh.cpp). Per-mesh so a
  /// triangulation's result never depends on process history, and owned by
  /// the one thread that owns the mesh.
  mutable std::uint32_t rand_state_
      AERO_SHARED_STATE("per-mesh; one thread owns each mesh") = 0x9d2c5680u;

  /// One directed edge of the cavity boundary cycle (see insert_into_cavity).
  struct CavityEdge {
    VertIndex a, b;
    TriIndex outside;
    int outside_edge;
    bool constrained;
    bool inside_region;
  };

  // Cavity arena: grow-only scratch owned by the mesh and *cleared, never
  // freed* between insertions, so the Bowyer-Watson steady state touches the
  // allocator only when an insert outgrows every previous one. `fan_start_`
  // is a vertex-indexed map (slot v+1, so kGhost lands at 0) from a boundary
  // edge's start vertex to its fresh triangle; entries touched by an insert
  // are reset on the way out, keeping resets O(cavity), not O(vertices).
  std::vector<TriIndex> cavity_;
  std::vector<std::uint8_t> in_cavity_mark_;
  std::vector<TriIndex> cavity_stack_;
  std::vector<CavityEdge> boundary_;
  std::vector<TriIndex> fresh_;
  std::vector<TriIndex> fan_start_;
  std::vector<std::pair<TriIndex, int>> legalize_stack_;
};

}  // namespace aero
