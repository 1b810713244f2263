#include "runtime/parallel_driver.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/pipeline_config.hpp"
#include "io/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/checkpoint.hpp"

namespace aero {

namespace {

/// The spill file of one pool pass. It is created exclusively under a
/// unique name in `dir` (mkstemp), so runs that share a spill directory
/// never touch each other's scratch, and it is removed when the pass ends.
/// An empty `dir`, or one where no file can be created, leaves path()
/// empty: the pass then merges in RAM.
class SpillFile {
 public:
  SpillFile(const std::string& dir, const char* stem) {
    if (dir.empty()) return;
    std::string name = dir + "/" + stem + ".spill.XXXXXX";
    const int fd = ::mkstemp(name.data());
    if (fd < 0) return;
    ::close(fd);
    path_ = std::move(name);
  }
  ~SpillFile() {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

ParallelMeshResult parallel_generate_mesh(const Options& opts, int nranks,
                                          const FaultConfig& faults,
                                          ProtocolTrace* trace,
                                          const PoolTuning& tuning,
                                          const ResilienceOptions& resilience) {
  ParallelMeshResult result;
  obs::apply(trace_config(opts));
  AERO_TRACE_THREAD("driver", -1);
  AERO_TRACE_SPAN("pipeline", "parallel_generate_mesh");
  Timer total;

  // -- Resume load + checkpoint sink ---------------------------------------
  // Nothing in this block is ever fatal: a missing, corrupt, or mismatched
  // journal degrades to re-meshing from scratch, and an unopenable sink
  // degrades to an unjournaled run.
  CheckpointSummary& cs = result.resilience;
  JournalContents loaded;
  bool resume_active = false;
  if (!resilience.resume_path.empty()) {
    cs.resume_attempted = true;
    loaded = read_journal(resilience.resume_path, resilience.config_hash);
    if (!loaded.header_ok) {
      cs.resume_rejected = true;
      cs.resume_error =
          "journal missing or header corrupt; re-meshing from scratch";
    } else if (loaded.hash_mismatch) {
      cs.resume_rejected = true;
      cs.resume_error = "journal was written for different options/geometry; "
                        "re-meshing from scratch";
    } else {
      resume_active = true;
      cs.resume_records = loaded.records.size();
      cs.discarded_bytes = loaded.discarded_bytes;
    }
  }
  const ResumeState resume(loaded);
  CheckpointSink sink;
  if (!resilience.checkpoint_path.empty()) {
    // Append in place only when extending the very journal we resumed from
    // AND its tail was clean; a discarded tail means garbage bytes sit past
    // the last intact record, so the file is rewritten fresh instead (the
    // pool re-records every resumed leaf, repopulating it as the run goes).
    const bool append_in_place =
        resume_active && resilience.checkpoint_path == resilience.resume_path &&
        loaded.discarded_bytes == 0;
    if (sink.open(resilience.checkpoint_path, resilience.config_hash,
                  append_in_place) &&
        append_in_place) {
      for (const JournalRecord& r : loaded.records) sink.seed(r.key);
    }
  }

  Timer t1;
  {
    AERO_TRACE_SPAN("pipeline", "boundary_layer_points");
    result.boundary_layer =
        build_boundary_layer(opts.airfoil, blayer_options(opts));
  }
  result.timings.record("boundary_layer_points", t1.seconds());
  if (opts.phase_hook) {
    opts.phase_hook("boundary_layer",
                      PhaseArtifacts{&result.boundary_layer, nullptr});
  }

  PoolOptions pool_opts;
  pool_opts.nranks = nranks;
  pool_opts.bl_decompose = bl_decompose_options(opts);
  pool_opts.inviscid_target_triangles = opts.inviscid_target_triangles;
  pool_opts.inviscid_max_level = opts.inviscid_max_level;
  pool_opts.faults = faults;
  pool_opts.trace = trace;
  pool_opts.tuning = tuning;
  pool_opts.budget = resilience.budget;
  pool_opts.stop = resilience.stop_flag;
  pool_opts.checkpoint = sink.is_open() ? &sink : nullptr;
  pool_opts.resume = resume_active ? &resume : nullptr;
  pool_opts.merge_resident_bytes =
      static_cast<std::size_t>(opts.merge_resident_mb) << 20;

  // Aggregate both passes' resilience stats into the summary (the BL-only
  // early return below uses it too).
  const auto fill_summary = [&result, &cs, &sink] {
    const PoolStats& bl = result.bl_pool;
    const PoolStats& inv = result.inviscid_pool;
    cs.resumed_units = bl.resumed_units + inv.resumed_units;
    cs.checkpointed_units = bl.checkpointed_units + inv.checkpointed_units;
    cs.checkpoint_failures = bl.checkpoint_failures + inv.checkpoint_failures;
    cs.units_total = bl.units_total + inv.units_total;
    cs.units_done = bl.units_done + inv.units_done;
    cs.stop_cause =
        bl.stop_cause != StopCause::kNone ? bl.stop_cause : inv.stop_cause;
    // A failed flush leaves the journal short its tail records; the sink's
    // own failure counter already feeds cs.checkpoint_failures upstream, so
    // surface the event and carry on -- checkpointing never fails the run.
    if (sink.is_open() && !sink.flush()) {
      AERO_TRACE_INSTANT("pipeline", "checkpoint_flush_failed");
    }
  };

  // Phase 1 pool: boundary-layer decomposition + triangulation. The sizing
  // is not needed by BL units; pass a placeholder.
  Timer t2;
  GradedSizing placeholder;
  {
    AERO_TRACE_SPAN("pipeline", "boundary_layer_pool");
    const SpillFile spill(opts.merge_spill_dir, "bl");
    pool_opts.spill_path = spill.path();
    std::vector<WorkUnit> initial;
    initial.push_back(WorkUnit{WorkUnit::Kind::kBlDecompose,
                               make_root_subdomain(result.boundary_layer.points),
                               {}});
    result.bl_pool =
        run_pool(std::move(initial), placeholder, pool_opts, result.mesh);
    if (result.bl_pool.status != RunStatus::kStopped) {
      // Ring restriction on the gathered mesh (root side).
      restrict_to_ring(result.mesh, result.boundary_layer);
    }
  }
  publish_pool_metrics(result.bl_pool, "pool.bl.");
  result.timings.record("boundary_layer_pool", t2.seconds());
  if (result.bl_pool.status == RunStatus::kStopped) {
    // Drained mid-boundary-layer. The gathered subdomain triangulations form
    // a valid conformal sub-mesh, but ring restriction and the interface
    // extraction both assume full cloud coverage, so the run ends here: raw
    // partial BL mesh out, journal flushed, remainder resumable.
    fill_summary();
    result.status = RunStatus::kStopped;
    result.timings.record("total", total.seconds());
    return result;
  }
  if (opts.phase_hook) {
    opts.phase_hook("boundary_layer_mesh",
                      PhaseArtifacts{&result.boundary_layer, &result.mesh});
  }

  // Interface + inviscid layout.
  Timer t3;
  const InviscidDomain domain = [&] {
    AERO_TRACE_SPAN("pipeline", "inviscid_layout");
    return make_inviscid_domain(result.boundary_layer, opts, result.mesh);
  }();
  result.sizing = domain.sizing;
  result.timings.record("inviscid_layout", t3.seconds());

  // Phase 2 pool: inviscid decoupling + refinement.
  Timer t4;
  {
    AERO_TRACE_SPAN("pipeline", "inviscid_pool");
    const SpillFile spill(opts.merge_spill_dir, "inviscid");
    pool_opts.spill_path = spill.path();
    std::vector<WorkUnit> initial;
    for (InviscidSubdomain& quad : initial_quadrants(domain)) {
      initial.push_back(
          WorkUnit{WorkUnit::Kind::kInviscidDecouple, {}, std::move(quad)});
    }
    initial.push_back(WorkUnit{WorkUnit::Kind::kInviscidDecouple,
                               {},
                               near_body_subdomain(domain)});
    result.inviscid_pool =
        run_pool(std::move(initial), domain.sizing, pool_opts, result.mesh);
  }
  publish_pool_metrics(result.inviscid_pool, "pool.inviscid.");
  result.timings.record("inviscid_pool", t4.seconds());
  if (opts.phase_hook) {
    opts.phase_hook("final_mesh",
                      PhaseArtifacts{&result.boundary_layer, &result.mesh});
  }

  fill_summary();
  result.status = worse(result.bl_pool.status, result.inviscid_pool.status);
  result.timings.record("total", total.seconds());
  return result;
}

ParallelMeshResult parallel_generate_mesh(const Options& opts,
                                          ProtocolTrace* trace) {
  std::vector<OptionIssue> issues = opts.validate();
  if (opts.ranks < 1) {
    issues.push_back({OptionIssue::Severity::kError, "ranks",
                      "parallel run requires ranks >= 1"});
  }
  for (const OptionIssue& i : issues) {
    if (i.is_error()) {
      // Thrown on the caller's thread, before any pool thread exists.
      throw std::invalid_argument(  // aerolint: allow(runtime-throw)
          "invalid options:\n" + format_issues(issues));
    }
  }
  FaultConfig faults;
  faults.enabled = opts.fault_rate > 0.0;
  faults.seed = opts.fault_seed;
  faults.drop_rate = opts.fault_rate;
  faults.duplicate_rate = opts.fault_rate / 2.0;
  faults.corrupt_rate = opts.fault_rate / 2.0;
  faults.delay_rate = opts.fault_rate / 2.0;
  PoolTuning tuning;
  tuning.rma = opts.rma;
  tuning.rma_threshold = opts.rma_threshold;
  tuning.ack_timeout = std::chrono::milliseconds(opts.ack_timeout_ms);
  tuning.heartbeat_timeout =
      std::chrono::milliseconds(opts.heartbeat_timeout_ms);
  tuning.watchdog_timeout = std::chrono::seconds(scaled_watchdog_seconds(opts));
  ResilienceOptions resilience;
  resilience.budget.wall_ms = opts.budget_wall_ms;
  resilience.budget.peak_rss_mb = opts.budget_rss_mb;
  resilience.stop_flag = opts.stop_flag;
  resilience.checkpoint_path = opts.checkpoint_path;
  resilience.resume_path = opts.resume_path;
  if (resilience.checkpoint_path.empty() && !resilience.resume_path.empty()) {
    // --resume without --checkpoint appends in place, so an interrupted
    // resume is itself resumable.
    resilience.checkpoint_path = resilience.resume_path;
  }
  resilience.config_hash = mesh_config_hash(opts);
  return parallel_generate_mesh(opts, opts.ranks, faults, trace, tuning,
                                resilience);
}

void publish_pool_metrics(const PoolStats& stats, const std::string& prefix) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const auto count = [&](const char* name, std::size_t v) {
    reg.counter(prefix + name).add(v);
  };
  count("steals", stats.steals);
  count("steal_denials", stats.steal_denials);
  count("transfer_bytes", stats.transfer_bytes);
  count("result_bytes", stats.result_bytes);
  count("unit_retries", stats.unit_retries);
  count("unit_failures", stats.unit_failures);
  count("fallback_units", stats.fallback_units);
  count("requeued_units", stats.requeued_units);
  count("dropped_messages", stats.dropped_messages);
  count("duplicated_messages", stats.duplicated_messages);
  count("corrupt_payloads", stats.corrupt_payloads);
  count("retransmits", stats.retransmits);
  count("dead_ranks", stats.dead_ranks);
  count("reclaimed_units", stats.reclaimed_units);
  count("missing_results", stats.missing_results);
  count("injected_corruptions", stats.injected_corruptions);
  count("delayed_messages", stats.delayed_messages);
  count("injected_unit_faults", stats.injected_unit_faults);
  count("comm_messages", stats.comm_messages);
  count("comm_bytes", stats.comm_bytes);
  count("zero_copy_hits", stats.zero_copy_hits);
  count("window_bytes", stats.window_bytes);
  count("buffer_pool_hits", stats.buffer_pool_hits);
  count("buffer_pool_misses", stats.buffer_pool_misses);
  std::size_t units = 0;
  for (const std::size_t t : stats.tasks_per_rank) units += t;
  count("units_processed", units);
  count("units_total", stats.units_total);
  count("units_done", stats.units_done);
  count("resumed_units", stats.resumed_units);
  count("checkpointed_units", stats.checkpointed_units);
  count("checkpoint_failures", stats.checkpoint_failures);
  count("injected_crashes", stats.injected_crashes);
  count("injected_mesher_kills", stats.injected_mesher_kills);
  count("spill_records", stats.spill_records);
  count("spill_bytes", stats.spill_bytes);
  count("spill_write_failures", stats.spill_write_failures);
  count("spill_max_record_bytes", stats.spill_max_record_bytes);
  count("merge_windows", stats.merge_windows);
  count("merge_resident_peak_bytes", stats.merge_resident_peak_bytes);
  reg.gauge(prefix + "wall_seconds").set(stats.wall_seconds);

  // Issue-mandated global names (aggregated across pool passes), alongside
  // the per-pass prefixed counters above.
  reg.counter("comm.bytes").add(stats.comm_bytes);
  reg.counter("comm.msgs").add(stats.comm_messages);
  reg.counter("comm.zero_copy_hits").add(stats.zero_copy_hits);
}

std::vector<obs::RankLoad> rank_loads(const ParallelMeshResult& result) {
  const std::size_t n = std::max(result.bl_pool.tasks_per_rank.size(),
                                 result.inviscid_pool.tasks_per_rank.size());
  const double wall =
      result.bl_pool.wall_seconds + result.inviscid_pool.wall_seconds;
  std::vector<obs::RankLoad> rows(n);
  const auto at = [](const std::vector<double>& v, std::size_t i) {
    return i < v.size() ? v[i] : 0.0;
  };
  const auto atz = [](const std::vector<std::size_t>& v, std::size_t i) {
    return i < v.size() ? v[i] : std::size_t{0};
  };
  for (std::size_t r = 0; r < n; ++r) {
    obs::RankLoad& row = rows[r];
    row.rank = static_cast<int>(r);
    row.busy_seconds = at(result.bl_pool.busy_seconds_per_rank, r) +
                       at(result.inviscid_pool.busy_seconds_per_rank, r);
    row.comm_seconds = at(result.bl_pool.comm_seconds_per_rank, r) +
                       at(result.inviscid_pool.comm_seconds_per_rank, r);
    row.idle_seconds =
        std::max(0.0, wall - row.busy_seconds - row.comm_seconds);
    row.units = atz(result.bl_pool.tasks_per_rank, r) +
                atz(result.inviscid_pool.tasks_per_rank, r);
    row.donated = atz(result.bl_pool.donated_per_rank, r) +
                  atz(result.inviscid_pool.donated_per_rank, r);
    row.received = atz(result.bl_pool.received_per_rank, r) +
                   atz(result.inviscid_pool.received_per_rank, r);
    row.retransmits = atz(result.bl_pool.retransmits_per_rank, r) +
                      atz(result.inviscid_pool.retransmits_per_rank, r);
  }
  return rows;
}

}  // namespace aero
