// Kernel fast-path benchmark: the Bowyer-Watson hot loop in isolation.
//
// Measures the pieces the kernel overhaul touched, each on the same clouds:
//   - insertion order: x-sorted vs BRIO/Hilbert vs unsorted input order
//   - cavity-arena reuse: fresh DelaunayMesh per run vs one reused object
//   - Ruppert refinement (locate hints + filtered predicates on the
//     circumcenter walk)
//
// The headline wall_ms (guarded by bench_compare) is the sum of the
// representative cases: x-sorted and BRIO triangulation of the large cloud
// plus the refinement case, so a regression in any fast path moves it.

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "core/timer.hpp"
#include "delaunay/triangulator.hpp"
#include "obs/bench_report.hpp"

int main() {
  using namespace aero;
  Timer bench_wall;

  constexpr std::size_t kN = 400000;
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<Vec2> cloud(kN);
  for (Vec2& p : cloud) p = {u(rng), u(rng)};

  std::printf("cloud: %zu uniform random points\n\n", cloud.size());

  const auto time_order = [&](const char* name, InsertionOrder order) {
    Timer t;
    const TriangulateResult r = triangulate_points(cloud, order);
    const double s = t.seconds();
    std::printf("  %-12s %8.3f s  (%zu tris)\n", name, s,
                r.mesh.triangle_count());
    return s;
  };

  std::printf("insertion order (fresh mesh each):\n");
  const double t_xsorted = time_order("x-sorted", InsertionOrder::kXSorted);
  const double t_brio = time_order("brio", InsertionOrder::kBrio);
  // Unsorted input order has no walk locality at all (quadratic-ish walks);
  // a 100k subset is enough to show the cliff without dominating the run.
  double t_input;
  {
    const std::vector<Vec2> sub(cloud.begin(), cloud.begin() + 100000);
    Timer t;
    const TriangulateResult r = triangulate_points(sub, InsertionOrder::kInput);
    t_input = t.seconds();
    std::printf("  %-12s %8.3f s  (%zu tris, 100k subset)\n", "input", t_input,
                r.mesh.triangle_count());
  }

  // Arena reuse: repeated medium clouds through one DelaunayMesh vs a fresh
  // object per run. The delta is the allocator traffic the arena removes.
  // One untimed warm-up pass faults in the clouds and primes the allocator,
  // and each variant takes the min of several passes: a single cold
  // measurement is dominated by page-fault noise that used to drown the
  // reuse win (and occasionally invert its sign).
  constexpr int kRuns = 16;
  constexpr int kPasses = 3;
  constexpr std::size_t kM = 50000;
  std::vector<std::vector<Vec2>> clouds(kRuns);
  for (int i = 0; i < kRuns; ++i) {
    clouds[i].resize(kM);
    for (Vec2& p : clouds[i]) p = {u(rng), u(rng)};
    std::sort(clouds[i].begin(), clouds[i].end(), LessXY{});
  }
  {
    DelaunayMesh warmup;
    for (int i = 0; i < kRuns; ++i) warmup.triangulate(clouds[i]);
  }
  double t_fresh = 1e30, t_reused = 1e30;
  for (int pass = 0; pass < kPasses; ++pass) {
    {
      Timer t;
      for (int i = 0; i < kRuns; ++i) {
        DelaunayMesh mesh;
        mesh.triangulate(clouds[i]);
      }
      t_fresh = std::min(t_fresh, t.seconds());
    }
    {
      Timer t;
      DelaunayMesh mesh;
      for (int i = 0; i < kRuns; ++i) mesh.triangulate(clouds[i]);
      t_reused = std::min(t_reused, t.seconds());
    }
  }
  std::printf(
      "\narena (%d x %zu-point runs, min of %d): fresh %.3f s, reused %.3f "
      "s\n",
      kRuns, kM, kPasses, t_fresh, t_reused);

  // Refinement: exercises locate hints on the circumcenter walk plus the
  // filtered predicates in the cavity and quality tests.
  double t_refine;
  std::size_t refine_tris;
  {
    Pslg pslg;
    pslg.points = {{-1, -1}, {1, -1}, {1, 1}, {-1, 1}};
    pslg.segments = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
    TriangulateOptions opts;
    opts.refine = true;
    opts.refine_options.radius_edge_bound = 1.4142135623730951;
    opts.refine_options.sizing = [](Vec2 p) {
      const double r2 = p.x * p.x + p.y * p.y;
      return 1e-5 + 4e-4 * r2;  // fine at the center, graded outward
    };
    Timer t;
    const TriangulateResult r = triangulate(pslg, opts);
    t_refine = t.seconds();
    refine_tris = r.mesh.inside_triangle_count();
    std::printf("refinement: %.3f s (%zu tris, %zu Steiner points)\n",
                t_refine, refine_tris, r.refine_stats.steiner_points);
  }

  const double headline_ms = 1000.0 * (t_xsorted + t_brio + t_refine);
  std::printf("\nheadline (x-sorted + brio + refine): %.1f ms\n", headline_ms);

  obs::BenchReport report;
  report.bench = "bench_kernel";
  report.case_name = "uniform-400k";
  report.ranks = 1;
  report.wall_ms = headline_ms;
  report.counters = {
      {"cloud_points", static_cast<double>(kN)},
      {"xsorted_s", t_xsorted},
      {"brio_s", t_brio},
      {"input_order_s", t_input},
      {"arena_fresh_s", t_fresh},
      {"arena_reused_s", t_reused},
      {"refine_s", t_refine},
      {"refine_triangles", static_cast<double>(refine_tris)},
  };
  if (write_bench_json(report, "BENCH_kernel.json")) {
    std::printf("wrote BENCH_kernel.json\n");
  }
  return 0;
}
