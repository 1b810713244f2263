// The three mesh workloads (highlift-seq, highlift-pool2, bl-dense).
//
// Untraced run: one job is what one `aeromesh` invocation does --
// options -> generate_mesh (or parallel_generate_mesh) -> compute_stats ->
// check_conformity -> write_binary -- timed as a whole.
//
// Traced run: untraced and traced jobs alternate. For the sequential
// workloads the traced job composes the pipeline from the public stage
// calls in the order generate_mesh makes them, with one span per call, and
// its serialized mesh must equal generate_mesh's byte for byte. For the
// pool workload the spans wrap parallel_generate_mesh and each finalization
// call, and the per-pass numbers come from the PoolStats it returns.

#include "mesh.hpp"

#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/mesh_generator.hpp"
#include "core/mesh_view.hpp"
#include "core/pipeline_config.hpp"
#include "io/mesh_io.hpp"
#include "runtime/parallel_driver.hpp"

namespace perfbench {
namespace {

struct MeshWorkload {
  aero::Options options;
  bool pool = false;
  std::size_t triangles = 0;  ///< pinned output size
  std::size_t vertices = 0;
};

/// bench_sequential's job: the paper-scale three-element mesh.
aero::Options highlift_options() {
  aero::Options o;
  o.airfoil = aero::make_three_element(400);
  o.growth_kind = aero::GrowthKind::kGeometric;
  o.first_height = 2e-4;
  o.growth_ratio = 1.2;
  o.max_layers = 45;
  o.farfield_chords = 25.0;
  o.grade = 0.01;
  o.surface_length_factor = 2.0;
  o.inviscid_target_triangles = 100000.0;
  o.bl_min_points = 2000;
  o.bl_max_level = 12;
  return o;
}

std::optional<MeshWorkload> find_workload(const std::string& name) {
  if (name == "highlift-seq" || name == "highlift-pool2") {
    MeshWorkload w;
    w.options = highlift_options();
    if (name == "highlift-pool2") {
      w.pool = true;
      w.options.ranks = 2;
    }
    w.triangles = 1273725;
    w.vertices = 638335;
    return w;
  }
  if (name == "bl-dense") {
    // Boundary-layer heavy: a dense surface and deep layers under a coarse
    // inviscid region, so the boundary-layer stages dominate.
    MeshWorkload w;
    w.options.airfoil = aero::make_three_element(1200);
    w.options.max_layers = 60;
    w.options.first_height = 2e-5;
    w.options.surface_length_factor = 6.0;
    w.options.grade = 0.5;
    w.options.farfield_chords = 10.0;
    w.triangles = 295479;
    w.vertices = 150150;
    return w;
  }
  return std::nullopt;
}

/// Everything one job produced. Kept alive until after its timer stops, so
/// freeing the mesh is not part of the measured job.
struct Job {
  std::optional<aero::MeshGenerationResult> seq;
  std::optional<aero::ParallelMeshResult> par;
  aero::BoundaryLayer bl;  ///< composed (traced) jobs own their pieces here
  aero::MergedMesh composed;
  const aero::MergedMesh* mesh = nullptr;
  aero::MergedStats stats;
  aero::MergedMesh::Conformity conformity;
  bool run_ok = true;
  double seconds = 0.0;
  std::uintmax_t file_bytes = 0;
  // Exact work counts of a composed job.
  std::size_t leaves = 0;
  std::size_t units = 0;
  std::size_t steiner = 0;
};

void throw_on_errors(const aero::Options& o) {
  const std::vector<aero::OptionIssue> issues = o.validate();
  for (const aero::OptionIssue& i : issues) {
    if (i.is_error()) {
      throw std::invalid_argument(aero::format_issues(issues));
    }
  }
}

std::unique_ptr<Job> plain_job(const MeshWorkload& w, const std::string& path) {
  auto job = std::make_unique<Job>();
  const Clock::time_point t0 = Clock::now();
  if (w.pool) {
    job->par.emplace(aero::parallel_generate_mesh(w.options));
    job->run_ok = job->par->status == aero::RunStatus::kOk;
    job->mesh = &job->par->mesh;
  } else {
    job->seq.emplace(aero::generate_mesh(w.options));
    job->run_ok = job->seq->status == aero::RunStatus::kOk;
    job->mesh = &job->seq->mesh;
  }
  job->stats = aero::compute_stats(*job->mesh);
  job->conformity = job->mesh->check_conformity();
  aero::write_binary(*job->mesh, path);
  job->seconds = seconds_between(t0, Clock::now());
  job->file_bytes = std::filesystem::file_size(path);
  return job;
}

/// generate_mesh, rebuilt from its public stage calls with a span around
/// each call, followed by the finalization calls.
std::unique_ptr<Job> composed_job(const MeshWorkload& w, const std::string& path,
                                  SpanRecorder& rec, int* root) {
  const aero::Options& o = w.options;
  auto job = std::make_unique<Job>();
  aero::MergedMesh& mesh = job->composed;
  job->mesh = &mesh;
  const Clock::time_point t0 = Clock::now();
  const int top = rec.open("job", -1);
  *root = top;
  throw_on_errors(o);
  job->bl = rec.time("blayer.points", top, [&] {
    return aero::build_boundary_layer(o.airfoil, aero::blayer_options(o));
  });
  const aero::BoundaryLayer& bl = job->bl;
  {
    const std::vector<aero::Subdomain> leaves =
        rec.time("hull.decompose", top, [&] {
          return aero::decompose(aero::make_root_subdomain(bl.points),
                                 aero::bl_decompose_options(o));
        });
    job->leaves = leaves.size();
    for (const aero::Subdomain& leaf : leaves) {
      const std::vector<std::array<aero::Vec2, 3>> owned = rec.time(
          "hull.leaf", top, [&] { return aero::triangulate_subdomain_dc(leaf); });
      rec.time("core.bl_assemble", top, [&] {
        for (const auto& t : owned) mesh.add_triangle(t[0], t[1], t[2]);
      });
    }
  }
  rec.time("core.restrict", top, [&] { aero::restrict_to_ring(mesh, bl); });
  const aero::InviscidDomain domain = rec.time(
      "core.layout", top, [&] { return aero::make_inviscid_domain(bl, o, mesh); });
  {
    std::vector<aero::InviscidSubdomain> subdomains =
        rec.time("inviscid.decouple", top, [&] {
          std::vector<aero::InviscidSubdomain> subs;
          for (aero::InviscidSubdomain& quad : aero::initial_quadrants(domain)) {
            for (aero::InviscidSubdomain& leaf : aero::decouple_recursive(
                     std::move(quad), domain.sizing,
                     o.inviscid_target_triangles, o.inviscid_max_level)) {
              subs.push_back(std::move(leaf));
            }
          }
          subs.push_back(aero::near_body_subdomain(domain));
          return subs;
        });
    job->units = subdomains.size();
    for (const aero::InviscidSubdomain& sub : subdomains) {
      const aero::TriangulateResult r = rec.time("inviscid.refine", top, [&] {
        return aero::refine_subdomain(sub, domain.sizing, o.threads_per_rank);
      });
      job->steiner += r.refine_stats.steiner_points;
      rec.time("core.weld", top, [&] { mesh.append(r.mesh); });
    }
  }
  job->stats = rec.time("core.stats", top, [&] { return aero::compute_stats(mesh); });
  job->conformity =
      rec.time("core.conformity", top, [&] { return mesh.check_conformity(); });
  rec.time("io.write", top, [&] { aero::write_binary(mesh, path); });
  rec.close(top);
  job->seconds = seconds_between(t0, Clock::now());
  job->file_bytes = std::filesystem::file_size(path);
  return job;
}

/// The pool job with spans around parallel_generate_mesh and each
/// finalization call.
std::unique_ptr<Job> traced_pool_job(const MeshWorkload& w,
                                     const std::string& path, SpanRecorder& rec,
                                     int* root) {
  auto job = std::make_unique<Job>();
  const Clock::time_point t0 = Clock::now();
  const int top = rec.open("job", -1);
  *root = top;
  rec.time("runtime.parallel_generate_mesh", top, [&] {
    job->par.emplace(aero::parallel_generate_mesh(w.options));
  });
  job->run_ok = job->par->status == aero::RunStatus::kOk;
  job->mesh = &job->par->mesh;
  job->stats =
      rec.time("core.stats", top, [&] { return aero::compute_stats(*job->mesh); });
  job->conformity = rec.time("core.conformity", top,
                             [&] { return job->mesh->check_conformity(); });
  rec.time("io.write", top, [&] { aero::write_binary(*job->mesh, path); });
  rec.close(top);
  job->seconds = seconds_between(t0, Clock::now());
  job->file_bytes = std::filesystem::file_size(path);
  return job;
}

/// Correctness of one finished job: pinned counts, a manifold, consistently
/// oriented mesh, and a .bin file of exactly the size its counts imply.
/// Returns true when the job passed.
bool check_job(const MeshWorkload& w, const Job& job, Result& r) {
  ++r.attempted;
  std::string why;
  if (!job.run_ok) why += " pipeline status is not ok;";
  if (job.stats.triangles != w.triangles || job.stats.vertices != w.vertices) {
    char counts[128];
    std::snprintf(counts, sizeof(counts),
                  " %zu triangles / %zu vertices, expected %zu / %zu;",
                  job.stats.triangles, job.stats.vertices, w.triangles,
                  w.vertices);
    why += counts;
  }
  if (!job.conformity.manifold || job.conformity.nonmanifold_edges != 0 ||
      !job.conformity.orientation_ok) {
    why += " not a consistently oriented manifold;";
  }
  const std::uintmax_t expect_bytes =
      16 + 16 * static_cast<std::uintmax_t>(job.mesh->point_count()) +
      12 * static_cast<std::uintmax_t>(job.stats.triangles);
  if (job.file_bytes != expect_bytes) why += " written .bin has the wrong size;";
  if (!why.empty()) r.fail("mesh job:" + why);
  return why.empty();
}

double sum(const std::vector<double>& values) {
  double s = 0.0;
  for (const double v : values) s += v;
  return s;
}

double phase_seconds(const aero::PhaseTimings& t, const std::string& name) {
  for (const auto& [phase, sec] : t.entries()) {
    if (phase == name) return sec;
  }
  return 0.0;
}

/// The per-pass runtime numbers of one pool run.
void add_pool_layers(const aero::ParallelMeshResult& res, int ranks,
                     std::map<std::string, std::vector<double>>& acc) {
  const std::pair<const char*, const aero::PoolStats*> passes[] = {
      {"bl", &res.bl_pool}, {"inv", &res.inviscid_pool}};
  for (const auto& [tag, ps] : passes) {
    const std::string p = std::string("runtime.") + tag + ".";
    const double busy = sum(ps->busy_seconds_per_rank);
    const double comm = sum(ps->comm_seconds_per_rank);
    const double capacity = ranks * ps->wall_seconds;
    const double asks = static_cast<double>(ps->steals + ps->steal_denials);
    acc[p + "wall_s"].push_back(ps->wall_seconds);
    acc[p + "busy_s"].push_back(busy);
    acc[p + "comm_s"].push_back(comm);
    acc[p + "idle_s"].push_back(capacity - busy - comm);
    acc[p + "busy_ratio"].push_back(capacity > 0 ? busy / capacity : 0.0);
    acc[p + "steals"].push_back(static_cast<double>(ps->steals));
    acc[p + "steal_denials"].push_back(static_cast<double>(ps->steal_denials));
    acc[p + "steal_success_ratio"].push_back(
        asks > 0 ? static_cast<double>(ps->steals) / asks : 0.0);
    acc[p + "transfer_bytes"].push_back(static_cast<double>(ps->transfer_bytes));
    acc[p + "result_bytes"].push_back(static_cast<double>(ps->result_bytes));
    acc[p + "messages"].push_back(static_cast<double>(ps->comm_messages));
    acc[p + "units"].push_back(static_cast<double>(ps->units_total));
  }
  acc["runtime.retransmits"].push_back(
      static_cast<double>(res.bl_pool.retransmits + res.inviscid_pool.retransmits));
  acc["runtime.bl.root_restrict_s"].push_back(
      phase_seconds(res.timings, "boundary_layer_pool") - res.bl_pool.wall_seconds);
  acc["blayer.points_s"].push_back(
      phase_seconds(res.timings, "boundary_layer_points"));
  acc["core.layout_s"].push_back(phase_seconds(res.timings, "inviscid_layout"));
}

/// Layer times of one traced job, from its spans.
void add_span_layers(const SpanRecorder& rec, int root,
                     std::map<std::string, std::vector<double>>& acc) {
  const std::map<std::string, double> totals = rec.child_totals(root);
  static const std::pair<const char*, const char*> kLayers[] = {
      {"blayer.points_s", "blayer.points"},
      {"hull.decompose_s", "hull.decompose"},
      {"hull.leaves_s", "hull.leaf"},
      {"core.bl_assemble_s", "core.bl_assemble"},
      {"core.restrict_s", "core.restrict"},
      {"core.layout_s", "core.layout"},
      {"inviscid.decouple_s", "inviscid.decouple"},
      {"inviscid.refine_s", "inviscid.refine"},
      {"core.weld_s", "core.weld"},
      {"core.stats_s", "core.stats"},
      {"core.conformity_s", "core.conformity"},
      {"io.write_s", "io.write"},
  };
  for (const auto& [metric, span] : kLayers) {
    const auto it = totals.find(span);
    if (it != totals.end()) acc[metric].push_back(it->second);
  }
  if (totals.count("hull.leaf")) {
    acc["hull.leaf_max_s"].push_back(rec.child_max(root, "hull.leaf"));
  }
  if (totals.count("inviscid.refine")) {
    acc["inviscid.refine_max_unit_s"].push_back(
        rec.child_max(root, "inviscid.refine"));
  }
  acc["harness.unattributed_s"].push_back(rec.self_time(root));
}

/// Exact counts must read the same on every traced job.
void set_count(Result& r, const std::string& name, std::size_t value) {
  const auto it = r.metrics.find(name);
  const double v = static_cast<double>(value);
  if (it != r.metrics.end() && it->second != v) {
    r.fail(name + " differs between jobs of one run");
  }
  r.metrics[name] = v;
}

}  // namespace

bool is_mesh_workload(const std::string& name) {
  return find_workload(name).has_value();
}

Result run_mesh(const std::string& name, double seconds, bool traced) {
  Result r;
  const std::string out_path = "mesh.bin";

  // Set-up: geometry, options validation, and one warm-up job (the first
  // job in a process is markedly slower than later ones).
  const Clock::time_point s0 = Clock::now();
  const MeshWorkload w = *find_workload(name);
  throw_on_errors(w.options);
  check_job(w, *plain_job(w, out_path), r);
  r.metrics["setup_s"] = seconds_between(s0, Clock::now());

  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::size_t plain_ok = 0;
  std::map<std::string, std::vector<double>> layers;
  std::vector<std::uint8_t> plain_blob;
  const Clock::time_point m0 = Clock::now();
  // At least one job (two of each kind when traced, for a median).
  while (seconds_between(m0, Clock::now()) < seconds ||
         (traced && traced_s.size() < 2)) {
    {
      if (!reset_peak_rss()) throw std::runtime_error("cannot reset VmHWM");
      std::unique_ptr<Job> job = plain_job(w, out_path);
      r.samples["peak_rss_mb"].push_back(peak_rss_mib());
      plain_ok += check_job(w, *job, r) ? 1 : 0;
      plain_s.push_back(job->seconds);
      if (traced && !w.pool && plain_blob.empty()) {
        plain_blob = aero::MeshView(*job->mesh).serialize();
      }
    }
    if (!traced) continue;

    SpanRecorder rec;
    int root = -1;
    std::unique_ptr<Job> job = w.pool ? traced_pool_job(w, out_path, rec, &root)
                                      : composed_job(w, out_path, rec, &root);
    check_job(w, *job, r);
    traced_s.push_back(job->seconds);
    add_span_layers(rec, root, layers);
    set_count(r, "blayer.cloud_points",
              w.pool ? job->par->boundary_layer.points.size() : job->bl.points.size());
    set_count(r, "io.write_bytes", job->file_bytes);
    if (w.pool) {
      add_pool_layers(*job->par, w.options.ranks, layers);
      continue;
    }
    set_count(r, "hull.leaf_count", job->leaves);
    set_count(r, "inviscid.units", job->units);
    set_count(r, "inviscid.steiner_points", job->steiner);
    if (traced_s.size() == 1 &&
        aero::MeshView(*job->mesh).serialize() != plain_blob) {
      r.fail("traced composition's mesh differs from generate_mesh's");
    }
  }
  const double measured = seconds_between(m0, Clock::now());

  if (traced) {
    for (const auto& [metric, values] : layers) r.metrics[metric] = median(values);
    const double base = median(plain_s);
    r.metrics["trace_overhead_pct"] = 100.0 * (median(traced_s) - base) / base;
    r.metrics["error_rate"] =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    return r;
  }
  std::vector<double>& ms = r.samples["latency_ms"];
  for (const double s : plain_s) ms.push_back(1e3 * s);
  r.samples["job_s"] = plain_s;
  r.metrics["ok"] = static_cast<double>(plain_ok);
  r.metrics["measured_s"] = measured;
  return r;
}

}  // namespace perfbench
