#include "delaunay/refine.hpp"

#include <cassert>
#include <cmath>

#include "geom/predicates.hpp"
#include "geom/predicates_fast.hpp"
#include "geom/triangle_quality.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aero {

RuppertRefiner::RuppertRefiner(DelaunayMesh& mesh, RefineOptions options)
    : mesh_(mesh), opts_(std::move(options)) {}

bool RuppertRefiner::triangle_is_bad(TriIndex t) const {
  const MeshTri& mt = mesh_.tri(t);
  const Vec2 a = mesh_.point(mt.v[0]);
  const Vec2 b = mesh_.point(mt.v[1]);
  const Vec2 c = mesh_.point(mt.v[2]);
  const double area = signed_area(a, b, c);
  if (area > opts_.max_area) return true;
  if (opts_.sizing) {
    const Vec2 centroid{(a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0};
    if (area > opts_.sizing(centroid)) return true;
  }
  if (radius_edge_exceeds(a, b, c, opts_.radius_edge_bound)) {
    // Seditious-edge guard: if the shortest edge joins two shell points of
    // the same small-angle cluster, splitting would ping-pong forever; the
    // triangle's smallest angle is already bounded by the cluster geometry.
    const double lab = distance2(a, b), lbc = distance2(b, c),
                 lca = distance2(c, a);
    VertIndex e0, e1;
    if (lab <= lbc && lab <= lca) {
      e0 = mt.v[0];
      e1 = mt.v[1];
    } else if (lbc <= lca) {
      e0 = mt.v[1];
      e1 = mt.v[2];
    } else {
      e0 = mt.v[2];
      e1 = mt.v[0];
    }
    const VertIndex o0 = shell_origin_[static_cast<size_t>(e0)];
    const VertIndex o1 = shell_origin_[static_cast<size_t>(e1)];
    if (o0 != kGhost && o0 == o1) {
      return false;  // counted by the caller as seditious when it pops
    }
    return true;
  }
  return false;
}

bool RuppertRefiner::edge_is_encroached(TriIndex t, int slot) const {
  const MeshTri& mt = mesh_.tri(t);
  const Vec2 a = mesh_.point(mt.v[(slot + 1) % 3]);
  const Vec2 b = mesh_.point(mt.v[(slot + 2) % 3]);
  // A vertex encroaches iff it lies strictly inside the diametral circle,
  // i.e. it sees the segment under an angle > 90 degrees.
  const auto apex_encroaches = [&](VertIndex v) {
    if (v == kGhost) return false;
    const Vec2 p = mesh_.point(v);
    return (a - p).dot(b - p) < 0.0;
  };
  if (apex_encroaches(mt.v[slot])) return true;
  const MeshTri& mn = mesh_.tri(mt.n[slot]);
  for (int i = 0; i < 3; ++i) {
    if (mn.n[i] == t) return apex_encroaches(mn.v[i]);
  }
  return false;
}

RuppertRefiner::Walk RuppertRefiner::walk_to(Vec2 c, TriIndex t) const {
  Walk w;
  int came_from = -1;
  const std::size_t guard = 4 * mesh_.triangle_slots() + 16;
  for (std::size_t step = 0; step < guard; ++step) {
    const MeshTri& mt = mesh_.tri(t);
    int cross = -1;
    int zeros = 0;
    for (int i = 0; i < 3; ++i) {
      if (i == came_from) continue;
      const double o = orient2d_fast(mesh_.point(mt.v[(i + 1) % 3]),
                                     mesh_.point(mt.v[(i + 2) % 3]), c);
      if (o < 0.0) {
        cross = i;
        break;
      }
      if (o == 0.0) ++zeros;
    }
    if (cross < 0) {
      w.tri = t;
      w.on_vertex = zeros >= 2;
      return w;
    }
    if (mt.constrained[cross]) {
      w.blocked = true;
      w.tri = t;
      w.edge = cross;
      return w;
    }
    const TriIndex nb = mt.n[cross];
    const MeshTri& mn = mesh_.tri(nb);
    if (mn.is_ghost()) {
      // Circumcenter beyond an unconstrained hull edge; treat like a
      // blocking edge so the caller skips this triangle.
      w.blocked = true;
      w.tri = t;
      w.edge = cross;
      return w;
    }
    came_from = -1;
    for (int i = 0; i < 3; ++i) {
      if (mn.n[i] == t) came_from = i;
    }
    t = nb;
  }
  w.blocked = true;  // should not happen; fail safe
  return w;
}

VertIndex RuppertRefiner::split_segment(VertIndex u, VertIndex w) {
  const auto [t, slot] = mesh_.find_edge(u, w);
  if (t == kNoTri || !mesh_.tri(t).constrained[slot]) return kGhost;

  const Vec2 pu = mesh_.point(u);
  const Vec2 pw = mesh_.point(w);
  if (opts_.splittable && !opts_.splittable(pu, pw)) return kGhost;
  const double len = distance(pu, pw);
  if (len == 0.0) return kGhost;

  // Concentric-shell split: measure a power-of-two distance from an input
  // endpoint so successive splits off the same small-angle vertex land on
  // common circles and stop encroaching each other.
  double frac = 0.5;
  VertIndex origin = kGhost;
  const bool u_input = mesh_.is_input_vertex(u);
  const bool w_input = mesh_.is_input_vertex(w);
  if (u_input || w_input) {
    const double d = std::exp2(std::round(std::log2(len * 0.5)));
    if (u_input) {
      frac = d / len;
      origin = u;
    } else {
      frac = 1.0 - d / len;
      origin = w;
    }
    frac = std::clamp(frac, 0.25, 0.75);
  } else {
    // Interior subsegment: inherit the cluster if both ends share one.
    const VertIndex ou = shell_origin_[static_cast<size_t>(u)];
    const VertIndex ow = shell_origin_[static_cast<size_t>(w)];
    if (ou != kGhost && ou == ow) origin = ou;
  }

  const Vec2 p = lerp(pu, pw, frac);
  if (p == pu || p == pw) return kGhost;  // segment shorter than one ulp

  const VertIndex vi = mesh_.insert_point_on_edge(p, t, slot);
  shell_origin_.resize(mesh_.point_count(), kGhost);
  shell_origin_[static_cast<size_t>(vi)] = origin;
  ++stats_.segment_splits;
  ++stats_.steiner_points;
  scan_star(vi);
  return vi;
}

void RuppertRefiner::scan_star(VertIndex v) {
  const TriIndex start = mesh_.incident_triangle(v);
  if (start == kNoTri) return;
  TriIndex t = start;
  do {
    const MeshTri& mt = mesh_.tri(t);
    const int k = mt.index_of(v);
    assert(k >= 0);
    if (!mt.is_ghost() && mt.inside) {
      if (triangle_is_bad(t)) tri_queue_.push_back(t);
      for (int i = 0; i < 3; ++i) {
        if (mt.constrained[i] && edge_is_encroached(t, i)) {
          seg_queue_.emplace_back(mt.v[(i + 1) % 3], mt.v[(i + 2) % 3]);
        }
      }
    }
    t = mt.n[(k + 1) % 3];
  } while (t != start);
}

RefineStats RuppertRefiner::refine() {
  AERO_TRACE_SPAN("delaunay", "ruppert_refine");
  stats_ = RefineStats{};
  shell_origin_.assign(mesh_.point_count(), kGhost);
  seg_queue_.clear();
  tri_queue_.clear();

  // Initial scans, over live inside triangles in id order.
  mesh_.for_each_triangle([this](TriIndex t) {
    const MeshTri& mt = mesh_.tri(t);
    if (!mt.inside) return;
    if (triangle_is_bad(t)) tri_queue_.push_back(t);
    for (int i = 0; i < 3; ++i) {
      if (mt.constrained[i] && edge_is_encroached(t, i)) {
        seg_queue_.emplace_back(mt.v[(i + 1) % 3], mt.v[(i + 2) % 3]);
      }
    }
  });

  while (!seg_queue_.empty() || !tri_queue_.empty()) {
    if (stats_.steiner_points >= opts_.max_steiner) {
      stats_.hit_steiner_cap = true;
      break;
    }

    // Encroached segments take priority (Ruppert's ordering).
    if (!seg_queue_.empty()) {
      const auto [u, w] = seg_queue_.back();
      seg_queue_.pop_back();
      const auto [t, slot] = mesh_.find_edge(u, w);
      if (t == kNoTri || !mesh_.tri(t).constrained[slot]) continue;
      if (!edge_is_encroached(t, slot)) continue;
      split_segment(u, w);
      continue;
    }

    const TriIndex t = tri_queue_.back();
    tri_queue_.pop_back();
    if (!mesh_.is_live_finite(t) || !mesh_.tri(t).inside) continue;
    if (!triangle_is_bad(t)) continue;

    const MeshTri& mt = mesh_.tri(t);
    const Vec2 a = mesh_.point(mt.v[0]);
    const Vec2 b = mesh_.point(mt.v[1]);
    const Vec2 c3 = mesh_.point(mt.v[2]);
    const Vec2 cc = circumcenter(a, b, c3);

    const Walk walk = walk_to(cc, t);
    if (walk.blocked) {
      // The circumcenter lies beyond a constrained edge: that edge is
      // (deemed) encroached; split it and revisit the triangle.
      const MeshTri& bt = mesh_.tri(walk.tri);
      if (bt.constrained[walk.edge]) {
        const VertIndex u = bt.v[(walk.edge + 1) % 3];
        const VertIndex w = bt.v[(walk.edge + 2) % 3];
        if (split_segment(u, w) != kGhost) tri_queue_.push_back(t);
      }
      continue;
    }
    if (walk.on_vertex) continue;  // circumcenter duplicates a vertex

    // Ruppert pre-check: would the circumcenter encroach any constrained
    // segment on its cavity boundary? If so, split those segments instead.
    // (Simulated Bowyer-Watson cavity walk, read-only; the scratch vectors
    // are members so the steady state allocates nothing.)
    encroached_.clear();
    {
      precheck_stack_.clear();
      precheck_visited_.clear();
      precheck_stack_.push_back(walk.tri);
      precheck_visited_.push_back(walk.tri);
      auto seen = [this](TriIndex x) {
        for (const TriIndex v : precheck_visited_) {
          if (v == x) return true;
        }
        return false;
      };
      while (!precheck_stack_.empty()) {
        const TriIndex ct = precheck_stack_.back();
        precheck_stack_.pop_back();
        const MeshTri& cm = mesh_.tri(ct);
        for (int i = 0; i < 3; ++i) {
          const TriIndex nb = cm.n[i];
          if (cm.constrained[i]) {
            const Vec2 ea = mesh_.point(cm.v[(i + 1) % 3]);
            const Vec2 eb = mesh_.point(cm.v[(i + 2) % 3]);
            if ((ea - cc).dot(eb - cc) < 0.0) {
              encroached_.emplace_back(cm.v[(i + 1) % 3], cm.v[(i + 2) % 3]);
            }
            continue;
          }
          if (nb == kNoTri || seen(nb)) continue;
          const MeshTri& nm = mesh_.tri(nb);
          if (nm.is_ghost()) continue;
          if (incircle_fast(mesh_.point(nm.v[0]), mesh_.point(nm.v[1]),
                            mesh_.point(nm.v[2]), cc) > 0.0) {
            precheck_visited_.push_back(nb);
            precheck_stack_.push_back(nb);
          }
        }
      }
    }
    if (!encroached_.empty()) {
      bool any = false;
      for (const auto& [u, w] : encroached_) {
        if (split_segment(u, w) != kGhost) any = true;
      }
      if (any) tri_queue_.push_back(t);
      continue;
    }

    // walk_to() already located the triangle containing cc, and the pre-check
    // BFS above already computed the (constraint-respecting) cavity in
    // precheck_visited_ -- every triangle whose circumdisk strictly contains
    // cc, reached from walk.tri. Hand the whole set to the cavity insertion
    // as pre-verified seeds so the incircle tests are not repeated. A short
    // hinted locate still runs first to catch the degenerate placements
    // (circumcenter exactly on a vertex or a constrained edge) that need the
    // duplicate-merging / constraint-splitting paths.
    VertIndex vi;
    const LocateResult loc = mesh_.locate(cc, walk.tri);
    if (loc.kind == LocateResult::Kind::kOnVertex) {
      vi = mesh_.tri(loc.tri).v[loc.edge];
    } else if (loc.kind == LocateResult::Kind::kOutside ||
               (loc.kind == LocateResult::Kind::kOnEdge &&
                mesh_.tri(loc.tri).constrained[loc.edge])) {
      vi = mesh_.insert_point(cc, /*respect_constraints=*/true, walk.tri);
    } else {
      vi = mesh_.insert_into_cavity(cc, precheck_visited_.data(),
                                    precheck_visited_.size(),
                                    /*respect_constraints=*/true);
    }
    if (static_cast<std::size_t>(vi) + 1 == mesh_.point_count()) {
      shell_origin_.resize(mesh_.point_count(), kGhost);
      ++stats_.circumcenters;
      ++stats_.steiner_points;
      scan_star(vi);
    }
  }

  // Flush once per refinement run (not per point): registry lookups lock.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("delaunay.refine_calls").add(1);
  reg.counter("delaunay.steiner_points").add(stats_.steiner_points);
  reg.counter("delaunay.circumcenters").add(stats_.circumcenters);
  if (stats_.hit_steiner_cap) reg.counter("delaunay.steiner_cap_hits").add(1);
  reg.histogram("delaunay.steiner_per_refine")
      .observe(static_cast<double>(stats_.steiner_points));
  return stats_;
}

}  // namespace aero
