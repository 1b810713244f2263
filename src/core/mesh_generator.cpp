#include "core/mesh_generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/pipeline_config.hpp"
#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "obs/trace.hpp"
#include "spatial/adt.hpp"

namespace aero {

namespace {

/// Exact removal of every live triangle that crosses or lies inside an
/// airfoil element. Needed because concave surface stretches (coves) are
/// legitimately non-Delaunay -- their surface edges can be absent from the
/// cloud triangulation, letting the ring flood leak into the body interior.
/// ADT-accelerated: candidate surface segments per triangle via extent-box
/// query; deep-inside tests by crossing parity along a rightward ray using
/// the same tree.
void remove_body_overlaps(MergedMesh& mesh,
                          const std::vector<std::vector<Vec2>>& surfaces) {
  for (const auto& surface : surfaces) {
    BBox2 box;
    for (const Vec2 p : surface) box.expand(p);
    AlternatingDigitalTree adt(box.inflated(1e-9 + 1e-9 * box.width()));
    std::vector<Segment> segs(surface.size());
    for (std::size_t i = 0; i < surface.size(); ++i) {
      segs[i] = Segment{surface[i], surface[(i + 1) % surface.size()]};
      adt.insert(segs[i].bbox(), static_cast<std::uint32_t>(i));
    }

    // Crossing-parity point-in-element using only ADT candidates.
    const auto inside_element = [&](Vec2 p) {
      if (!box.contains(p)) return false;
      bool inside = false;
      const BBox2 ray_box{{p.x, p.y}, {box.hi.x, p.y}};
      adt.for_each_overlap(ray_box, [&](std::uint32_t i) {
        const Vec2 a = segs[i].a;
        const Vec2 b = segs[i].b;
        if ((a.y <= p.y) != (b.y <= p.y)) {
          const double o = orient2d(a, b, p);
          if (b.y > a.y ? o > 0.0 : o < 0.0) inside = !inside;
        }
      });
      return inside;
    };

    for (std::size_t t = 0; t < mesh.record_count(); ++t) {
      if (!mesh.alive(t)) continue;
      const std::array<std::uint32_t, 3>& tri = mesh.tri(t);
      const Vec2 a = mesh.point(tri[0]);
      const Vec2 b = mesh.point(tri[1]);
      const Vec2 c = mesh.point(tri[2]);
      BBox2 tb;
      tb.expand(a);
      tb.expand(b);
      tb.expand(c);
      if (!tb.intersects(box)) continue;

      bool overlap = false;
      adt.for_each_overlap(tb, [&](std::uint32_t i) {
        if (overlap) return;
        for (const Segment e : {Segment{a, b}, Segment{b, c}, Segment{c, a}}) {
          // Only PROPER crossings mean the triangle straddles the surface.
          // Shared or collinear edges are the normal surface-adjacent case;
          // the centroid test below decides which side they are on.
          const IntersectResult hit = intersect(e, segs[i]);
          if (hit && hit.kind == IntersectKind::kProper) {
            overlap = true;
            return;
          }
        }
      });
      if (!overlap) {
        const Vec2 centroid{(a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0};
        overlap = inside_element(centroid);
      }
      if (overlap) mesh.kill(t);
    }
  }
}

/// All surface and outer-border edges of a boundary layer, as the barrier
/// set of the ring flood.
std::vector<std::pair<Vec2, Vec2>> ring_barrier(const BoundaryLayer& bl) {
  std::vector<std::pair<Vec2, Vec2>> barrier;
  for (const auto& surface : bl.surfaces) {
    for (std::size_t i = 0; i < surface.size(); ++i) {
      barrier.emplace_back(surface[i], surface[(i + 1) % surface.size()]);
    }
  }
  for (const auto& border : bl.outer_borders) {
    for (std::size_t i = 0; i < border.size(); ++i) {
      const Vec2 a = border[i];
      const Vec2 b = border[(i + 1) % border.size()];
      if (a != b) barrier.emplace_back(a, b);
    }
  }
  return barrier;
}

/// Fire the configured phase observer (no-op when none is installed).
void notify_phase(const Options& opts, const char* phase,
                  const BoundaryLayer* bl, const MergedMesh* mesh) {
  if (opts.phase_hook) {
    opts.phase_hook(phase, PhaseArtifacts{bl, mesh});
  }
}

}  // namespace

void triangulate_boundary_layer(const BoundaryLayer& bl,
                                const DecomposeOptions& opts,
                                MergedMesh& out, std::size_t* subdomains,
                                std::vector<double>* task_seconds) {
  Subdomain root = make_root_subdomain(bl.points);
  const std::vector<Subdomain> leaves = decompose(std::move(root), opts);
  if (subdomains) *subdomains = leaves.size();

  for (const Subdomain& leaf : leaves) {
    Timer t;
    // Divide-and-conquer with vertical cuts, as the paper configures
    // Triangle for the over-decomposed leaves.
    const auto owned = triangulate_subdomain_dc(leaf);
    if (task_seconds) task_seconds->push_back(t.seconds());
    for (const auto& tri : owned) out.add_triangle(tri[0], tri[1], tri[2]);
  }

  // The Delaunay triangulation of the cloud covers its convex hull; the
  // boundary-layer mesh is only the ring between each surface and its outer
  // border. Airfoil interiors, coves, inter-element gaps, and hull pockets
  // are dropped and meshed isotropically by the near-body refinement.
  restrict_to_ring(out, bl);
}

void restrict_to_ring(MergedMesh& mesh, const BoundaryLayer& bl) {
  mesh.keep_only(ring_barrier(bl), bl.ring_seeds);
  // Safety pass: concave (cove) surface edges can be legitimately absent
  // from the Delaunay triangulation, letting the flood leak into a body.
  remove_body_overlaps(mesh, bl.surfaces);
}

InviscidDomain make_inviscid_domain(const BoundaryLayer& bl,
                                    const Options& opts,
                                    const MergedMesh& bl_mesh) {
  InviscidDomain domain;

  // Sizing: the near-body edge length continues the isotropic transition
  // size of the boundary layer (mean outer-border segment length).
  double mean_border_len = 0.0;
  std::size_t nseg = 0;
  for (const auto& border : bl.outer_borders) {
    for (std::size_t i = 0; i + 1 < border.size(); ++i) {
      mean_border_len += distance(border[i], border[i + 1]);
      ++nseg;
    }
  }
  mean_border_len = nseg > 0 ? mean_border_len / static_cast<double>(nseg)
                             : 0.01 * opts.airfoil.chord;

  BBox2 cloud_box;
  for (const Vec2 p : bl.points) cloud_box.expand(p);
  domain.inner =
      cloud_box.inflated(opts.nearbody_margin * opts.airfoil.chord);
  const Vec2 center = cloud_box.center();
  const double half = opts.farfield_chords * opts.airfoil.chord;
  domain.outer = BBox2{{center.x - half, center.y - half},
                       {center.x + half, center.y + half}};
  domain.sizing =
      GradedSizing{domain.inner,
                   opts.surface_length_factor * mean_border_len,
                   opts.grade};

  // The exact interface: the *actual* boundary of the assembled
  // boundary-layer mesh (minus the airfoil surfaces) becomes the hole
  // border of the near-body subdomain. Deriving it from the mesh rather
  // than from the nominal ray tips makes the two meshes conform by
  // construction, even where a nominal outer-border edge was not a Delaunay
  // edge of the cloud (e.g. around trailing-edge fans).
  std::vector<std::pair<Vec2, Vec2>> surface_edges;
  for (const auto& surface : bl.surfaces) {
    for (std::size_t i = 0; i < surface.size(); ++i) {
      surface_edges.emplace_back(surface[i],
                                 surface[(i + 1) % surface.size()]);
    }
  }
  domain.bl_interface = bl_mesh.boundary_edges(surface_edges);
  // Surface edges with no fluid-side triangle (zero-layer stretches) are
  // exposed directly to the near-body region and bound it too.
  for (const auto& e : bl_mesh.missing_edges(surface_edges)) {
    domain.bl_interface.push_back(e);
  }
  // Canonicalize: boundary_edges reports in triangle-scan order and
  // missing_edges in candidate order; both are deterministic, but neither is
  // the canonical form. The interface feeds the near-body unit's serialized
  // content (and the CDT's constraint insertion order), so checkpoint keys
  // and resumed meshes are bit-stable only if this list is sorted here.
  for (auto& e : domain.bl_interface) {
    if (std::make_pair(e.second.x, e.second.y) <
        std::make_pair(e.first.x, e.first.y)) {
      std::swap(e.first, e.second);
    }
  }
  std::sort(domain.bl_interface.begin(), domain.bl_interface.end(),
            [](const std::pair<Vec2, Vec2>& a, const std::pair<Vec2, Vec2>& b) {
              return std::tie(a.first.x, a.first.y, a.second.x, a.second.y) <
                     std::tie(b.first.x, b.first.y, b.second.x, b.second.y);
            });
  domain.hole_seeds = bl.hole_seeds;
  return domain;
}

MeshGenerationResult generate_mesh(const Options& opts) {
  const std::vector<OptionIssue> issues = opts.validate();
  for (const OptionIssue& i : issues) {
    if (i.is_error()) {
      throw std::invalid_argument("invalid options:\n" + format_issues(issues));
    }
  }

  MeshGenerationResult result;
  obs::apply(trace_config(opts));
  AERO_TRACE_THREAD("pipeline", -1);
  AERO_TRACE_SPAN("pipeline", "generate_mesh");
  Timer total;

  // Stage 1: anisotropic boundary layer (rays, fans, intersections, points).
  Timer t1;
  {
    AERO_TRACE_SPAN("pipeline", "boundary_layer_points");
    result.boundary_layer =
        build_boundary_layer(opts.airfoil, blayer_options(opts));
  }
  result.timings.record("boundary_layer_points", t1.seconds());
  notify_phase(opts, "boundary_layer", &result.boundary_layer, nullptr);

  // Stage 2: parallel-decomposed boundary-layer triangulation.
  Timer t3;
  {
    AERO_TRACE_SPAN("pipeline", "boundary_layer_triangulation");
    triangulate_boundary_layer(result.boundary_layer,
                               bl_decompose_options(opts), result.mesh,
                               &result.bl_subdomains,
                               &result.bl_task_seconds);
  }
  result.bl_triangles = result.mesh.triangle_count();
  result.timings.record("boundary_layer_triangulation", t3.seconds());
  notify_phase(opts, "boundary_layer_mesh", &result.boundary_layer,
               &result.mesh);

  // Stage 3: inviscid domain layout around the boundary-layer mesh.
  Timer t2;
  const InviscidDomain domain = [&] {
    AERO_TRACE_SPAN("pipeline", "inviscid_layout");
    return make_inviscid_domain(result.boundary_layer, opts, result.mesh);
  }();
  result.sizing = domain.sizing;
  result.timings.record("inviscid_layout", t2.seconds());

  // Stage 4: decoupled inviscid refinement.
  Timer t4;
  std::vector<InviscidSubdomain> subdomains;
  {
    AERO_TRACE_SPAN("pipeline", "inviscid_decoupling");
    for (InviscidSubdomain& quad : initial_quadrants(domain)) {
      for (InviscidSubdomain& leaf :
           decouple_recursive(std::move(quad), domain.sizing,
                              opts.inviscid_target_triangles,
                              opts.inviscid_max_level)) {
        subdomains.push_back(std::move(leaf));
      }
    }
    subdomains.push_back(near_body_subdomain(domain));
  }
  result.inviscid_subdomains = subdomains.size();
  result.timings.record("inviscid_decoupling", t4.seconds());

  Timer t5;
  {
    AERO_TRACE_SPAN("pipeline", "inviscid_refinement");
    for (const InviscidSubdomain& sub : subdomains) {
      Timer t;
      const TriangulateResult r = refine_subdomain(sub, domain.sizing);
      result.inviscid_task_seconds.push_back(t.seconds());
      result.mesh.append(r.mesh);
    }
  }
  result.inviscid_triangles =
      result.mesh.triangle_count() - result.bl_triangles;
  result.timings.record("inviscid_refinement", t5.seconds());
  notify_phase(opts, "final_mesh", &result.boundary_layer, &result.mesh);

  result.status = RunStatus::kOk;  // every stage completed (throws otherwise)
  result.timings.record("total", total.seconds());
  return result;
}

}  // namespace aero
