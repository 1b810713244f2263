#pragma once

#include <atomic>
#include <chrono>
#include <vector>

#include "check/protocol_trace.hpp"
#include "core/merged_mesh.hpp"
#include "core/run_status.hpp"
#include "runtime/comm.hpp"
#include "runtime/work.hpp"

namespace aero {

class CheckpointSink;
class ResumeState;

/// Transport and robustness tuning shared by the pool, drivers, and CLI:
/// the RMA-vs-copy A/B switch and the fault-tolerance timeouts. Kept as its own struct so callers (benches,
/// tests, aeromesh flags) can thread it through parallel_generate_mesh
/// without restating every pool option.
struct PoolTuning {
  /// Zero-copy transfers: payloads at or above `rma_threshold` bytes are
  /// published into the sender's PayloadWindow and move by ownership
  /// handoff; the mailbox carries a 37-byte control frame. Off = the PR 1
  /// deep-copy path (kept for differential testing; results must be
  /// bit-identical either way).
  bool rma = true;
  std::size_t rma_threshold = 1024;
  /// Unacknowledged work transfers are retransmitted after this long.
  std::chrono::milliseconds ack_timeout{25};
  /// A rank whose heartbeat stalls this long is declared dead: its queued
  /// work is reclaimed by the root and nobody waits on its results.
  std::chrono::milliseconds heartbeat_timeout{500};
  /// Global bound on the whole run (including the result gather). When it
  /// expires the pool is force-terminated and reports RunStatus::kFailed.
  std::chrono::seconds watchdog_timeout{120};
};

/// Run-level budget enforced by the pool's monitor thread. Unlike the
/// watchdog (a hard fault bound that aborts), exceeding a budget drains the
/// run gracefully: in-flight units finish, queued work is dropped, results
/// are gathered, the checkpoint journal is intact, and the pool reports
/// RunStatus::kStopped with completeness accounting. 0 = unlimited.
struct RunBudget {
  long wall_ms = 0;      ///< wall-clock bound on the pool pass
  long peak_rss_mb = 0;  ///< process peak-RSS bound (monotonic, so once
                         ///< exceeded every later check trips too)
};

/// Why a drained run stopped (PoolStats::stop_cause).
enum class StopCause {
  kNone = 0,
  kWallBudget,  ///< RunBudget::wall_ms exhausted
  kRssBudget,   ///< RunBudget::peak_rss_mb exceeded
  kExternal,    ///< the external stop flag flipped (e.g. SIGINT)
};

inline const char* to_string(StopCause c) {
  switch (c) {
    case StopCause::kNone: return "none";
    case StopCause::kWallBudget: return "wall-budget";
    case StopCause::kRssBudget: return "rss-budget";
    case StopCause::kExternal: return "stop-request";
  }
  return "unknown";
}

/// Options of the in-process work-stealing pool.
struct PoolOptions {
  int nranks = 4;
  /// A rank's communicator requests work when its queued cost estimate
  /// falls below this many estimated triangles.
  double steal_threshold = 5000.0;
  /// Period of the RMA window load updates.
  std::chrono::microseconds update_period{200};

  /// Boundary-layer decomposition tolerances.
  DecomposeOptions bl_decompose;
  /// Inviscid decoupling recursion target and cap.
  double inviscid_target_triangles = 40000.0;
  int inviscid_max_level = 10;

  /// Fault injection (off by default; the recovery machinery is always on).
  FaultConfig faults;
  /// Re-attempts of a throwing unit on the same rank before it is re-queued
  /// to another rank / escalated to the root-side sequential fallback.
  int max_unit_retries = 2;

  /// Optional protocol event recorder (audit_protocol replays it). Off by
  /// default; recording takes one short lock per protocol event.
  ProtocolTrace* trace = nullptr;

  /// Transport switches and robustness timeouts (see PoolTuning).
  PoolTuning tuning;

  // -- Run-level resilience ------------------------------------------------
  /// Wall/RSS budget; on exhaustion the monitor drains instead of aborting.
  RunBudget budget;
  /// External stop request (the CLI points this at its SIGINT flag): when
  /// it flips true the pool drains in-flight units and gathers what exists.
  const std::atomic<bool>* stop = nullptr;
  /// Checkpoint journal sink: every finalized leaf's triangles stream here
  /// before the unit is counted complete, so a crash loses only in-flight
  /// work. Null = no journaling.
  CheckpointSink* checkpoint = nullptr;
  /// Completed subdomains loaded from a previous run's journal: leaves
  /// found here replay their stored triangles instead of re-meshing.
  const ResumeState* resume = nullptr;

  // -- Out-of-core finalization --------------------------------------------
  /// When non-empty, the root streams every finalized triangle block (its
  /// own leaves, resume replays, gathered rank soups, fallback output) into
  /// this CRC-framed spill journal instead of holding them resident, then
  /// merges window-by-window under `merge_resident_bytes`. The merged mesh
  /// is bit-identical to the in-RAM path; a spill write failure degrades
  /// that block back to resident, never the run. "" = in-RAM merge. The
  /// caller owns the file: it picks a name no other run uses and removes
  /// the file after the pass.
  std::string spill_path;
  /// Resident-payload budget of the windowed spill merge, in bytes. At
  /// least one record is always loaded per window, so the merge progresses
  /// even when a single block exceeds the budget.
  std::size_t merge_resident_bytes = std::size_t{256} << 20;
};

/// Statistics of a pool run.
struct PoolStats {
  std::size_t steals = 0;          ///< successful work transfers
  std::size_t steal_denials = 0;   ///< requests answered with no-work
  std::size_t transfer_bytes = 0;  ///< total serialized work payload moved
  std::size_t result_bytes = 0;    ///< triangle payload gathered to the root
  std::vector<std::size_t> tasks_per_rank;
  double wall_seconds = 0.0;

  // Transport accounting. transfer_bytes/result_bytes above count *logical*
  // serialized payload (identical across the RMA and copy paths, so A/B
  // comparisons line up); the fields below count what actually moved where.
  std::size_t comm_messages = 0;  ///< messages posted into mailboxes
  std::size_t comm_bytes = 0;     ///< payload bytes copied through mailboxes
  std::size_t zero_copy_hits = 0; ///< payloads that moved by window handoff
  std::size_t window_bytes = 0;   ///< payload bytes moved zero-copy
  std::size_t buffer_pool_hits = 0;    ///< serialization buffers recycled
  std::size_t buffer_pool_misses = 0;  ///< fresh buffer allocations

  // Fault-tolerance accounting.
  std::size_t unit_retries = 0;    ///< same-rank re-attempts after a throw
  std::size_t unit_failures = 0;   ///< units that exhausted a rank's retries
  std::size_t fallback_units = 0;  ///< units meshed by the root-side fallback
  std::size_t requeued_units = 0;  ///< cross-rank fault re-queues sent
  std::size_t dropped_messages = 0;    ///< injector-dropped messages
  std::size_t duplicated_messages = 0; ///< injector-duplicated messages
  std::size_t corrupt_payloads = 0;    ///< CRC failures seen at receivers
  std::size_t retransmits = 0;     ///< unacked payloads sent again
  std::size_t dead_ranks = 0;      ///< ranks declared dead by the watchdog
  std::size_t reclaimed_units = 0; ///< queued units rescued off dead ranks
  std::size_t missing_results = 0; ///< live ranks whose gather never landed

  // Injector-side counters (what the chaos layer actually did, as opposed to
  // the receiver-side observations above; e.g. a corrupted ack the receiver
  // silently ignores shows up only here).
  std::size_t injected_corruptions = 0;  ///< payload bytes flipped in transit
  std::size_t delayed_messages = 0;      ///< deliveries postponed by the fabric
  std::size_t injected_unit_faults = 0;  ///< unit attempts forced to throw

  // Run-level resilience accounting (completeness report + checkpointing).
  std::size_t units_total = 0;   ///< work units created (initial + spawned)
  std::size_t units_done = 0;    ///< units that produced their output
  std::size_t resumed_units = 0; ///< leaves replayed from a resume journal
  std::size_t checkpointed_units = 0;  ///< leaf records streamed to journal
  std::size_t checkpoint_failures = 0; ///< journal appends that failed
  std::size_t injected_crashes = 0;      ///< ranks crashed by the injector
  std::size_t injected_mesher_kills = 0; ///< mesher threads killed by it
  StopCause stop_cause = StopCause::kNone;  ///< why a kStopped run drained

  // Out-of-core finalization accounting (zero unless spill_path was set).
  std::size_t spill_records = 0;  ///< triangle blocks streamed to the spill
  std::size_t spill_bytes = 0;    ///< payload bytes written to the spill
  std::size_t spill_write_failures = 0;  ///< blocks degraded to resident
  std::size_t spill_max_record_bytes = 0;  ///< largest single spilled block
  std::size_t merge_windows = 0;  ///< bounded-resident merge passes
  /// Largest window resident set. Bounded by merge_resident_bytes, except
  /// that a single record larger than the whole budget still merges as its
  /// own window (the merge never splits a record), so the true invariant is
  /// peak <= max(merge_resident_bytes, spill_max_record_bytes).
  std::size_t merge_resident_peak_bytes = 0;

  // Per-rank load balance, indexed by rank (filled from thread-owned
  // accumulators after the pool threads join; feeds the obs load report).
  std::vector<double> busy_seconds_per_rank;  ///< mesher time inside units
  std::vector<double> comm_seconds_per_rank;  ///< communicator handling time
  std::vector<std::size_t> donated_per_rank;   ///< units donated to stealers
  std::vector<std::size_t> received_per_rank;  ///< transfers accepted (fresh)
  std::vector<std::size_t> retransmits_per_rank;  ///< unacked resends sent
  RunStatus status = RunStatus::kOk;
};

/// Run the distributed mesh generation protocol: every rank hosts a mesher
/// thread (splitting and meshing subdomains from a cost-ordered priority
/// queue, largest first) and a communicator thread (periodic RMA load
/// updates, steal requests toward the most-loaded rank, request service,
/// shutdown, and the final gather of triangle soups to the root). A monitor
/// thread watches heartbeats, reclaims dead ranks' queues, re-broadcasts
/// dropped shutdowns, and enforces the watchdog bound, so a faulty fabric
/// degrades the run instead of deadlocking it.
///
/// `initial` work is handed to rank 0, matching the paper's pipeline where
/// the root owns the undecomposed domain and the decomposition itself is
/// distributed by the load balancer. The merged triangles of all ranks are
/// appended to `out` (root side).
PoolStats run_pool(std::vector<WorkUnit> initial, const GradedSizing& sizing,
                   const PoolOptions& opts, MergedMesh& out);

}  // namespace aero
