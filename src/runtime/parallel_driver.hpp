#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/mesh_generator.hpp"
#include "core/options.hpp"
#include "obs/export.hpp"
#include "runtime/pool.hpp"

namespace aero {

/// Run-level resilience wiring for the struct-poking driver overload (the
/// Options entry point derives this from the flat knobs). Everything is
/// optional; the defaults are a plain uncheckpointed, unbudgeted run.
struct ResilienceOptions {
  /// Wall/RSS budget enforced per pool pass (0 = unlimited).
  RunBudget budget;
  /// External stop request; flipping the pointee true drains the run.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Journal to stream finalized subdomains into ("" = no checkpointing).
  std::string checkpoint_path;
  /// Journal to resume from ("" = fresh run).
  std::string resume_path;
  /// Canonical options+geometry hash stamped into (and demanded of) the
  /// journal; use mesh_config_hash(opts).
  std::uint64_t config_hash = 0;
};

/// Completeness and checkpoint/resume accounting for one driver run,
/// aggregated over both pool passes. This is the data behind the CLI's
/// completeness report on a stopped run.
struct CheckpointSummary {
  bool resume_attempted = false;  ///< a resume_path was given
  bool resume_rejected = false;   ///< journal unusable; re-meshed from scratch
  std::string resume_error;       ///< why, when resume_rejected
  std::size_t resume_records = 0;    ///< intact records loaded
  std::size_t discarded_bytes = 0;   ///< corrupt/truncated tail dropped
  std::size_t resumed_units = 0;     ///< leaves replayed instead of meshed
  std::size_t checkpointed_units = 0;  ///< leaf records written this run
  std::size_t checkpoint_failures = 0; ///< journal appends that failed
  std::size_t units_total = 0;  ///< work units created across both passes
  std::size_t units_done = 0;   ///< units that produced their output
  StopCause stop_cause = StopCause::kNone;  ///< why a kStopped run drained
};

/// Result of a parallel (in-process rank pool) mesh generation run.
struct ParallelMeshResult {
  MergedMesh mesh;
  BoundaryLayer boundary_layer;
  GradedSizing sizing;
  PoolStats bl_pool;
  PoolStats inviscid_pool;
  PhaseTimings timings;
  /// Completeness + checkpoint/resume accounting across both passes.
  CheckpointSummary resilience;
  /// Worst outcome across the two pool passes: kOk when the mesh is
  /// complete, kStopped when a budget/stop drained the run (valid partial
  /// mesh, resumable journal), kPartial/kFailed when a pool lost results or
  /// hit the watchdog bound.
  RunStatus status = RunStatus::kOk;
};

/// The push-button pipeline with the subdomain work distributed over an
/// in-process rank pool (the MPI-substitute runtime): boundary-layer
/// decomposition+triangulation in one pool pass, then inviscid
/// decoupling+refinement in a second pass (the interface between them is
/// extracted from the assembled boundary-layer mesh, which is the one global
/// synchronization point of the pipeline).
///
/// `faults` configures the chaos fabric for the run (disabled by default);
/// the fault-*tolerance* machinery (CRC framing, acked transfers, watchdog)
/// is always on. A non-null `trace` records both pool passes' protocol
/// events for audit_protocol(); `opts.phase_hook` fires at the same phase
/// boundaries as in the sequential pipeline. `tuning` selects the transport
/// (RMA windows vs full-copy frames) and the
/// fault-tolerance timeouts for both pool passes. `resilience` wires
/// checkpointing, resume, budgets, and the external stop flag; a run
/// stopped mid-boundary-layer returns the raw partial BL mesh (no ring
/// restriction, no inviscid pass) -- valid, conformal, and resumable.
/// This fine-grained overload does NOT validate and ignores the fault /
/// transport / resilience knobs on `opts` in favor of the explicit structs
/// (chaos fixtures need rates the flat knobs cannot express); `nranks`
/// overrides `opts.ranks`.
ParallelMeshResult parallel_generate_mesh(
    const Options& opts, int nranks,
    const FaultConfig& faults = {}, ProtocolTrace* trace = nullptr,
    const PoolTuning& tuning = {}, const ResilienceOptions& resilience = {});

/// The unified-Options entry point: validates (throwing std::invalid_argument
/// on errors, including ranks < 1), derives the fault/transport structs from
/// the flat knobs (drop at `fault_rate`, duplication/corruption/delay at half
/// of it — the CLI's historical chaos mix), and runs the pool.
ParallelMeshResult parallel_generate_mesh(const Options& opts,
                                          ProtocolTrace* trace = nullptr);

/// Publish one pool pass's statistics into the global metrics registry under
/// `prefix` (e.g. "pool.bl." -> "pool.bl.steals"). Called by the driver for
/// both passes; exposed so benches can publish standalone run_pool calls.
void publish_pool_metrics(const PoolStats& stats, const std::string& prefix);

/// Per-rank load-balance rows aggregated over both pool passes (the
/// metrics.json load_balance table). Idle time is each rank's share of the
/// two passes' wall time not spent meshing or on protocol work.
std::vector<obs::RankLoad> rank_loads(const ParallelMeshResult& result);

}  // namespace aero
