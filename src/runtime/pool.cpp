#include "runtime/pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "core/timer.hpp"
#include "io/journal.hpp"
#include "obs/bench_report.hpp"
#include "obs/trace.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/rma.hpp"

namespace aero {

namespace {

/// Per-rank shared state between its mesher and communicator threads.
struct RankState {
  Mutex m AERO_LOCK_NAME("pool.rank", 10) AERO_ACQUIRED_BEFORE("pool.results");
  CondVar cv;
  /// Cost-descending priority queue (paper: largest subdomains meshed first,
  /// small ones saved for endgame load balancing).
  std::multimap<double, WorkUnit, std::greater<>> queue AERO_GUARDED_BY(m);
  double queued_cost AERO_GUARDED_BY(m) = 0.0;
  bool shutdown AERO_GUARDED_BY(m) = false;
  /// Units that exhausted this rank's retries, awaiting a reliable re-queue
  /// to another rank (drained by the communicator thread).
  std::vector<WorkUnit> retry_outbox AERO_GUARDED_BY(m);
  /// Not lock-guarded: owned by the mesher thread until it observes
  /// `shutdown` (set under `m`, which orders the hand-off), then read by the
  /// communicator thread for the result gather.
  std::vector<std::array<Vec2, 3>> triangles;
  std::size_t tasks_done = 0;

  /// Load accounting with the same ownership discipline as `triangles`: the
  /// mesher thread writes busy_seconds, the communicator thread writes the
  /// rest, and run_pool reads them only after the threads join.
  double busy_seconds = 0.0;   ///< mesher time spent inside units
  double comm_seconds = 0.0;   ///< communicator time spent handling messages
  std::size_t donated = 0;     ///< units donated to work stealers
  std::size_t received = 0;    ///< transfers accepted fresh (non-duplicate)
  std::size_t retransmits_sent = 0;  ///< unacked payloads this rank resent

  /// Units this rank's mesher has finished processing (mesher-thread local;
  /// drives the injector's crash/kill thresholds).
  std::size_t mesher_units = 0;
  /// Injected process crash: both of this rank's threads exit silently.
  std::atomic<bool> crashed AERO_ATOMIC_ROLE(flag){false};
  /// Set when the mesher thread returns (any path). A draining communicator
  /// waits on it before reading `triangles` for the result gather.
  std::atomic<bool> mesher_exited AERO_ATOMIC_ROLE(flag){false};
};

struct SharedState {
  Communicator comm;
  RmaWindow window;
  FaultInjector injector;
  /// Recycles serialization buffers across ranks and threads (donor
  /// serializes, receiver releases): the steady-state hot path reuses
  /// buffers instead of allocating.
  BufferPool buffers;
  /// Per-rank registered payload windows for zero-copy transfers (deque:
  /// PayloadWindow owns a mutex and cannot move).
  std::deque<PayloadWindow> payload_windows;
  std::atomic<long> outstanding AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::uint64_t> next_unit_id AERO_ATOMIC_ROLE(counter){0};
  /// Per-dispatch transfer nonces (see make_frame). Starts at 1 so 0 never
  /// names a live transfer.
  std::atomic<std::uint64_t> next_transfer_seq AERO_ATOMIC_ROLE(counter){1};
  std::atomic<bool> shutdown_broadcast AERO_ATOMIC_ROLE(flag){false};
  std::atomic<bool> abort AERO_ATOMIC_ROLE(flag){false};
  std::atomic<bool> gather_timed_out AERO_ATOMIC_ROLE(flag){false};
  /// Graceful drain (budget exhausted / external stop): meshers stop taking
  /// units, communicators run the normal bounded result gather, and the
  /// pool reports kStopped with completeness accounting -- unlike `abort`,
  /// which skips the gather entirely.
  std::atomic<bool> drain AERO_ATOMIC_ROLE(flag){false};
  /// StopCause of a drain.
  std::atomic<int> stop_cause AERO_ATOMIC_ROLE(flag){0};
  /// Ranks declared dead by the heartbeat watchdog.
  std::unique_ptr<std::atomic<bool>[]> dead AERO_ATOMIC_ROLE(flag);
  /// Communicator threads that exited cleanly (dead ranks never set this).
  std::unique_ptr<std::atomic<bool>[]> comm_exited AERO_ATOMIC_ROLE(flag);

  std::atomic<std::size_t> steals AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> denials AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> transfer_bytes AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> result_bytes AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> unit_retries AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> unit_failures AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> requeues AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> retransmits AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> crc_failures AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> dead_count AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> reclaimed AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> zero_copy AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> window_bytes AERO_ATOMIC_ROLE(counter){0};

  // Run-level resilience accounting.
  /// Units that produced output.
  std::atomic<std::size_t> completed AERO_ATOMIC_ROLE(counter){0};
  /// Leaves replayed from a journal.
  std::atomic<std::size_t> resumed AERO_ATOMIC_ROLE(counter){0};
  /// Injected rank crashes fired.
  std::atomic<std::size_t> crashes AERO_ATOMIC_ROLE(counter){0};
  /// Injected mesher kills fired.
  std::atomic<std::size_t> mesher_kills AERO_ATOMIC_ROLE(counter){0};

  /// Units escalated to the root-side sequential fallback (meshed after the
  /// pool terminates, outside the fault injector's reach).
  Mutex fallback_m AERO_LOCK_NAME("pool.fallback", 20);
  std::vector<WorkUnit> fallback AERO_GUARDED_BY(fallback_m);

  /// Result gather, keyed by sender rank (deduplicates resends).
  Mutex results_m AERO_LOCK_NAME("pool.results", 30);
  std::map<int, std::vector<std::array<Vec2, 3>>> results
      AERO_GUARDED_BY(results_m);

  /// Out-of-core finalization (see PoolOptions::spill_path). `spilling` is
  /// decided once before any worker thread starts; the writer serializes its
  /// own appends. Blocks whose spill write failed fall back to this resident
  /// overflow map, keyed identically to their would-be spill records, so the
  /// merge walks one global key order regardless of where a block ended up.
  bool spilling = false;
  JournalWriter spill;
  std::atomic<std::uint64_t> spill_seq AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> spill_records AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> spill_payload_bytes AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> spill_max_record AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> spill_failures AERO_ATOMIC_ROLE(counter){0};
  Mutex overflow_m AERO_LOCK_NAME("pool.spill_overflow", 35);
  std::map<std::uint64_t, std::vector<std::array<Vec2, 3>>> spill_overflow
      AERO_GUARDED_BY(overflow_m);

  std::chrono::steady_clock::time_point deadline;
  const GradedSizing* sizing = nullptr;
  const PoolOptions* opts = nullptr;

  explicit SharedState(const PoolOptions& o)
      : comm(o.nranks),
        window(static_cast<std::size_t>(o.nranks)),
        injector(o.faults),
        dead(std::make_unique<std::atomic<bool>[]>(
            static_cast<std::size_t>(o.nranks))),
        comm_exited(std::make_unique<std::atomic<bool>[]>(
            static_cast<std::size_t>(o.nranks))) {
    for (int r = 0; r < o.nranks; ++r) {
      dead[static_cast<std::size_t>(r)].store(false);
      comm_exited[static_cast<std::size_t>(r)].store(false);
      payload_windows.emplace_back(&buffers);
    }
    comm.set_fault_injector(&injector);
  }
};

/// Record one protocol event on the attached trace (no-op when auditing is
/// off). Every site below mirrors an invariant audit_protocol() checks, so a
/// new protocol path must record its events or the audit reports it as a
/// completeness violation.
void trace_event(SharedState& shared, ProtocolEvent::Kind kind,
                 std::uint64_t id, int rank = -1, int peer = -1) {
  if (shared.opts->trace != nullptr) {
    shared.opts->trace->record(kind, id, rank, peer);
  }
}

/// Spill-record key of a finalized block. Root blocks (rank 0's own leaves,
/// resume replays, fallback output) take (0 << 32) | seq with seq in append
/// order; rank r's single gathered soup takes (r << 32). Sorting all keys
/// ascending therefore replays exactly the in-RAM merge order -- rank 0's
/// triangles in append order, then each rank's soup rank-ascending -- which
/// is what keeps the spill-merged mesh bit-identical to the resident one.
std::uint64_t spill_rank_key(int rank) {
  return static_cast<std::uint64_t>(rank) << 32;
}

/// Stream one finalized triangle block to the root's spill journal under
/// `key`, tagged with the same "ASUP" prefix as checkpoint soups. A write
/// failure (disk full, torn mount) degrades the block to the resident
/// overflow map -- out-of-core finalization is an optimization, never a
/// correctness dependency.
void spill_block(SharedState& shared, std::uint64_t key,
                 std::vector<std::array<Vec2, 3>> tris) {
  if (tris.empty()) return;
  std::uint8_t soup_head[kSoupHeaderSize];
  // ASUP tag framing (8 bytes), not a payload copy; the triangle bytes go
  // to the spill journal by pointer.
  std::memcpy(soup_head, kSoupMagic.data(), kSoupMagic.size());  // aerolint: allow(payload-copy)
  std::memcpy(soup_head + 4, &kSoupVersion, sizeof(kSoupVersion));  // aerolint: allow(payload-copy)
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(tris.data());
  const std::size_t n = tris.size() * sizeof(std::array<Vec2, 3>);
  if (shared.spill.append(key, soup_head, sizeof(soup_head), bytes, n)) {
    shared.spill_records.fetch_add(1);
    shared.spill_payload_bytes.fetch_add(n + sizeof(soup_head));
    const std::size_t record = n + sizeof(soup_head);
    std::size_t prev = shared.spill_max_record.load();
    while (prev < record &&
           !shared.spill_max_record.compare_exchange_weak(prev, record)) {
    }
    return;
  }
  shared.spill_failures.fetch_add(1);
  const MutexLock lock(shared.overflow_m);
  shared.spill_overflow.emplace(key, std::move(tris));
}

/// Deserialize the unit carried by an inline transfer frame we built
/// ourselves (the in-flight master copy; intact by construction).
WorkUnit unit_from_inline_frame(const ByteBuf& frame) {
  return deserialize_work(frame.data() + kInlineFrameHeader,
                          frame.size() - kInlineFrameHeader);
}

/// A transfer sent but not yet acknowledged. On the copy path `payload` is
/// the full framed master copy (the fabric may corrupt the transmitted
/// copy); on the window path it is only the 37-byte control frame -- the
/// payload master lives in this rank's PayloadWindow slot until the ack
/// releases it or a dead destination lets us reclaim it.
struct InFlight {
  int dest = -1;
  int tag = 0;
  ByteBuf payload;
  std::chrono::steady_clock::time_point deadline;
  int tries = 0;
  bool windowed = false;
  std::uint32_t slot = 0;
};

/// Frame and dispatch one unit to `dest` under a fresh nonce, choosing the
/// transport by serialized size: at or above the RMA threshold the payload
/// is published into this rank's window (zero-copy handoff; the mailbox
/// carries a control frame), below it the whole frame rides the mailbox as
/// before. Frames and in-flight bookkeeping are recorded identically so the
/// ack/retransmit/dead-dest machinery is path-agnostic.
void send_unit(SharedState& shared, int rank, int dest, int tag,
               const WorkUnit& unit,
               std::map<std::uint64_t, InFlight>& in_flight) {
  const PoolOptions& opts = *shared.opts;
  const std::size_t payload_size = serialized_size(unit);
  const bool windowed = opts.tuning.rma &&
                        payload_size >= opts.tuning.rma_threshold;
  const std::uint64_t nonce = shared.next_transfer_seq.fetch_add(1);
  shared.transfer_bytes.fetch_add(payload_size);
  if (windowed) {
    AERO_TRACE_SPAN("rma", "publish");
    auto bytes = serialize(unit, &shared.buffers);
    const std::uint64_t len = bytes.size();
    const std::uint64_t digest = payload_digest(bytes.data(), bytes.size());
    const std::uint32_t slot =
        shared.payload_windows[static_cast<std::size_t>(rank)].publish(
            nonce, std::move(bytes));
    trace_event(shared, ProtocolEvent::Kind::kWindowPublished, nonce, rank,
                dest);
    trace_event(shared, ProtocolEvent::Kind::kDispatch, nonce, rank, dest);
    ByteBuf frame = make_window_frame(nonce, rank, slot, len, digest);
    ByteBuf copy = frame;
    in_flight[nonce] = InFlight{dest, tag, std::move(frame),
                                mono_now() + opts.tuning.ack_timeout, 0, true,
                                slot};
    shared.comm.send(rank, dest, tag, std::move(copy));
  } else {
    auto bytes = serialize(unit, &shared.buffers, kInlineFrameHeader);
    seal_inline_frame(nonce, bytes);
    trace_event(shared, ProtocolEvent::Kind::kDispatch, nonce, rank, dest);
    ByteBuf frame(std::move(bytes));
    ByteBuf copy = frame;
    in_flight[nonce] = InFlight{dest, tag, std::move(frame),
                                mono_now() + opts.tuning.ack_timeout, 0, false,
                                0};
    shared.comm.send(rank, dest, tag, std::move(copy));
  }
}

void push_local(SharedState& shared, RankState& rs, WorkUnit unit) {
  const double c = unit.cost(*shared.sizing);
  {
    MutexLock lock(rs.m);
    rs.queue.emplace(c, std::move(unit));
    rs.queued_cost += c;
  }
  rs.cv.notify_one();
}

/// A completed (or fallback-escalated) unit leaves the outstanding count;
/// the rank that drives it to zero broadcasts global termination.
void complete_unit(SharedState& shared) {
  if (shared.outstanding.fetch_sub(1) == 1) {
    shared.shutdown_broadcast.store(true);
    for (int r = 0; r < shared.comm.size(); ++r) {
      shared.comm.send(-1, r, kTagShutdown);
    }
  }
}

/// Expand one unit: either split it (emitting child units) or mesh it
/// (emitting inside triangles). Pure with respect to `unit`, so a throwing
/// attempt can be retried from the unchanged input; nothing is committed to
/// shared state here.
void expand_unit(const GradedSizing& sizing, const PoolOptions& opts,
                 const WorkUnit& unit, std::vector<WorkUnit>& children,
                 std::vector<std::array<Vec2, 3>>& triangles) {
  if (unit.kind == WorkUnit::Kind::kBlDecompose) {
    const std::size_t parent_size = unit.bl.size();
    if (sufficiently_decomposed(unit.bl, opts.bl_decompose)) {
      Subdomain s = unit.bl;
      s.finalize();
      triangles = triangulate_subdomain_dc(s);
    } else {
      Subdomain parent = unit.bl;
      auto [l, r] = split_subdomain(std::move(parent));
      if (l.size() >= parent_size || r.size() >= parent_size) {
        Subdomain whole = l.size() >= parent_size ? std::move(l) : std::move(r);
        whole.level -= 1;
        whole.cuts.pop_back();
        whole.finalize();
        triangles = triangulate_subdomain_dc(whole);
      } else {
        children.push_back(
            WorkUnit{WorkUnit::Kind::kBlDecompose, std::move(l), {}});
        children.push_back(
            WorkUnit{WorkUnit::Kind::kBlDecompose, std::move(r), {}});
      }
    }
  } else {
    const bool leaf =
        !unit.inv.hole_segments.empty() ||
        unit.inv.level >= opts.inviscid_max_level ||
        unit.inv.estimated_triangles(sizing) <= opts.inviscid_target_triangles;
    std::vector<InviscidSubdomain> kids;
    if (!leaf) kids = plus_split(unit.inv, sizing);
    if (leaf || kids.empty()) {
      const TriangulateResult r =
          refine_subdomain(unit.inv, sizing);
      r.mesh.for_each_triangle([&](TriIndex t) {
        const MeshTri& mt = r.mesh.tri(t);
        if (!mt.inside) return;
        triangles.push_back({r.mesh.point(mt.v[0]), r.mesh.point(mt.v[1]),
                             r.mesh.point(mt.v[2])});
      });
    } else {
      for (auto& c : kids) {
        children.push_back(
            WorkUnit{WorkUnit::Kind::kInviscidDecouple, {}, std::move(c)});
      }
    }
  }
}

/// First rank (other than `self`) that has not already failed this unit and
/// is not known dead; -1 when the unit has nowhere left to go.
int pick_retry_rank(const SharedState& shared, int self, std::uint64_t mask) {
  for (int r = 0; r < shared.comm.size(); ++r) {
    if (r == self) continue;
    if (r < 64 && ((mask >> r) & 1ull)) continue;
    if (shared.dead[static_cast<std::size_t>(r)].load()) continue;
    return r;
  }
  return -1;
}

/// Process one unit on `rank` with exception containment: a throwing
/// attempt is retried locally, then re-queued to another rank, then
/// escalated to the root-side sequential fallback. Triangles and children
/// are committed only after a successful attempt, so a mid-expansion throw
/// never leaks partial output.
void process_unit(SharedState& shared, std::vector<RankState>& ranks, int rank,
                  WorkUnit unit) {
  RankState& rs = ranks[static_cast<std::size_t>(rank)];
  const PoolOptions& opts = *shared.opts;

  // Checkpoint/resume identity. The key hashes the unit's *content* (id and
  // fault history excluded), so a leaf finished by a previous interrupted
  // run is recognized here no matter which rank or schedule produced it.
  std::uint64_t key = 0;
  if (opts.checkpoint != nullptr || opts.resume != nullptr) {
    key = subdomain_key(unit);
  }
  if (opts.resume != nullptr) {
    if (const auto* stored = opts.resume->find(key)) {
      if (rank == 0 && shared.spilling) {
        spill_block(shared, shared.spill_seq.fetch_add(1), *stored);
      } else {
        rs.triangles.insert(rs.triangles.end(), stored->begin(),
                            stored->end());
      }
      ++rs.tasks_done;
      shared.resumed.fetch_add(1);
      shared.completed.fetch_add(1);
      if (opts.checkpoint != nullptr) {
        // Re-record into the active journal (a no-op when appending to the
        // journal the record came from; keeps a fresh journal complete).
        opts.checkpoint->record(key, *stored);
      }
      AERO_TRACE_INSTANT_ARG("pool", "resume_hit", unit.id);
      trace_event(shared, ProtocolEvent::Kind::kUnitCompleted, unit.id, rank);
      complete_unit(shared);
      return;
    }
  }

  std::vector<WorkUnit> children;
  std::vector<std::array<Vec2, 3>> triangles;
  bool ok = false;
  for (int attempt = 0; attempt <= opts.max_unit_retries; ++attempt) {
    if (attempt > 0) shared.unit_retries.fetch_add(1);
    children.clear();
    triangles.clear();
    try {
      if (shared.injector.unit_should_fail(unit.id)) {
        throw std::runtime_error("injected unit fault");
      }
      expand_unit(*shared.sizing, opts, unit, children, triangles);
      ok = true;
      break;
    } catch (...) {
      // Retry from the unchanged unit; fall through on exhaustion.
    }
  }

  if (ok) {
    if (!children.empty()) {
      // Children are accounted in `outstanding` BEFORE they are enqueued, so
      // the counter can never reach zero while spawned work is invisible.
      shared.outstanding.fetch_add(static_cast<long>(children.size()));
      for (auto& c : children) {
        c.id = shared.next_unit_id.fetch_add(1);
        trace_event(shared, ProtocolEvent::Kind::kUnitCreated, c.id, rank);
        push_local(shared, rs, std::move(c));
      }
    } else if (opts.checkpoint != nullptr &&
               !opts.checkpoint->record(key, triangles)) {
      // The leaf is journaled BEFORE it is counted complete, so a crash
      // right after loses nothing. A failed append is absorbed: the run
      // continues unjournaled and the sink counts the failure.
      AERO_TRACE_INSTANT_ARG("pool", "checkpoint_write_failed", unit.id);
    }
    if (rank == 0 && shared.spilling) {
      spill_block(shared, shared.spill_seq.fetch_add(1), std::move(triangles));
    } else {
      rs.triangles.insert(rs.triangles.end(), triangles.begin(),
                          triangles.end());
    }
    ++rs.tasks_done;
    shared.completed.fetch_add(1);
    trace_event(shared, ProtocolEvent::Kind::kUnitCompleted, unit.id, rank);
    complete_unit(shared);
    return;
  }

  shared.unit_failures.fetch_add(1);
  if (rank < 64) unit.failed_ranks |= 1ull << rank;
  if (pick_retry_rank(shared, rank, unit.failed_ranks) >= 0) {
    // Hand to our communicator for a reliable (acked) re-queue; the unit
    // stays outstanding until its new host completes it.
    {
      MutexLock lock(rs.m);
      rs.retry_outbox.push_back(std::move(unit));
    }
    rs.cv.notify_one();
  } else {
    trace_event(shared, ProtocolEvent::Kind::kUnitFallback, unit.id, rank);
    {
      MutexLock lock(shared.fallback_m);
      shared.fallback.push_back(std::move(unit));
    }
    complete_unit(shared);
  }
}

void mesher_main(SharedState& shared, std::vector<RankState>& ranks,
                 int rank) {
  if (shared.injector.rank_dead(rank)) return;
  AERO_TRACE_THREAD("mesher", rank);
  RankState& rs = ranks[static_cast<std::size_t>(rank)];
  while (true) {
    WorkUnit unit;
    {
      UniqueLock lock(rs.m);
      while (!rs.shutdown && rs.queue.empty()) lock.wait(rs.cv);
      if (shared.abort.load()) return;
      // A drain stops meshing immediately: queued units stay unprocessed
      // and are reported through the completeness accounting.
      if (shared.drain.load()) return;
      if (rs.queue.empty()) {
        if (rs.shutdown) return;
        continue;
      }
      auto it = rs.queue.begin();  // largest cost first
      rs.queued_cost -= it->first;
      unit = std::move(it->second);
      rs.queue.erase(it);
    }
    {
      AERO_TRACE_SPAN("pool", "process_unit");
      const Timer busy;
      process_unit(shared, ranks, rank, std::move(unit));
      rs.busy_seconds += busy.seconds();
    }
    ++rs.mesher_units;
    if (const std::size_t k = shared.injector.kill_mesher_after(rank);
        k > 0 && rs.mesher_units >= k) {
      // Injected half-dead rank: the mesher dies but the communicator keeps
      // heartbeating, so dead-rank recovery never fires and any stranded
      // queue is caught only by the run budget or the watchdog bound.
      shared.mesher_kills.fetch_add(1);
      AERO_TRACE_INSTANT_ARG("pool", "mesher_killed", rank);
      return;
    }
    if (const std::size_t k = shared.injector.crash_after(rank);
        k > 0 && rs.mesher_units >= k) {
      // Injected process crash: both of this rank's threads exit silently.
      // Heartbeats stop, the monitor declares the rank dead, and its queued
      // (but not its meshed) work is reclaimed.
      rs.crashed.store(true);
      shared.crashes.fetch_add(1);
      AERO_TRACE_INSTANT_ARG("pool", "rank_crashed", rank);
      return;
    }
    // Give the communicator threads a scheduling window (matters on
    // oversubscribed machines; a real cluster has a core per thread).
    std::this_thread::yield();
  }
}

/// Accept one gathered result at the root (first copy wins; every copy is
/// acked so a resending rank can stop). Each rank sends exactly one result
/// under one nonce, so the rank-keyed results map doubles as the nonce
/// dedupe -- and for window frames the dedupe is consulted BEFORE the take,
/// so a resend racing the ack never consumes a second slot.
void root_accept_result(SharedState& shared, const Message& msg) {
  const auto parsed = parse_frame(msg.payload);
  if (!parsed) {
    shared.crc_failures.fetch_add(1);
    return;  // sender retransmits an intact control frame
  }
  const int from = msg.from;
  bool fresh;
  {
    MutexLock lock(shared.results_m);
    fresh = shared.results.find(from) == shared.results.end();
  }
  if (fresh) {
    std::vector<std::array<Vec2, 3>> tris;
    std::size_t logical_bytes = 0;
    if (parsed->windowed) {
      if (parsed->src < 0 || parsed->src >= shared.comm.size()) {
        shared.crc_failures.fetch_add(1);
        return;
      }
      auto bytes =
          shared.payload_windows[static_cast<std::size_t>(parsed->src)].take(
              parsed->slot, parsed->nonce, parsed->length, parsed->digest);
      if (!bytes) {
        shared.crc_failures.fetch_add(1);
        return;  // frame/slot mismatch; sender resends
      }
      trace_event(shared, ProtocolEvent::Kind::kWindowTaken, parsed->nonce, 0,
                  from);
      try {
        tris = deserialize_triangles(bytes->data(), bytes->size());
      } catch (const std::exception&) {
        shared.crc_failures.fetch_add(1);
        return;
      }
      shared.zero_copy.fetch_add(1);
      shared.window_bytes.fetch_add(bytes->size());
      logical_bytes = bytes->size();
      shared.buffers.release(std::move(*bytes));
    } else {
      try {
        tris = deserialize_triangles(parsed->data, parsed->size);
      } catch (const std::exception&) {
        shared.crc_failures.fetch_add(1);
        return;  // sender retransmits an intact copy
      }
      logical_bytes = parsed->size;
    }
    bool accepted = false;
    {
      MutexLock lock(shared.results_m);
      if (shared.spilling) {
        // Presence marker only: the triangles go to the spill file, while
        // the empty vector keeps the nonce dedupe and the missing-results
        // accounting exactly as in the resident path.
        accepted =
            shared.results
                .emplace(from, std::vector<std::array<Vec2, 3>>{})
                .second;
      } else {
        accepted = shared.results.emplace(from, std::move(tris)).second;
      }
      if (accepted) shared.result_bytes.fetch_add(logical_bytes);
    }
    if (accepted && shared.spilling) {
      spill_block(shared, spill_rank_key(from), std::move(tris));
    }
    trace_event(shared, ProtocolEvent::Kind::kAccept, parsed->nonce, 0, from);
  } else {
    trace_event(shared, ProtocolEvent::Kind::kDuplicate, parsed->nonce, 0,
                from);
  }
  shared.comm.send(0, from, kTagResultAck, make_ack(parsed->nonce));
}

/// Send `unit` to another rank over the reliable channel, or escalate it to
/// the root fallback when no candidate remains.
void dispatch_retry(SharedState& shared, int rank, WorkUnit unit,
                    std::map<std::uint64_t, InFlight>& in_flight) {
  const int dest = pick_retry_rank(shared, rank, unit.failed_ranks);
  if (dest < 0) {
    trace_event(shared, ProtocolEvent::Kind::kUnitFallback, unit.id, rank);
    {
      MutexLock lock(shared.fallback_m);
      shared.fallback.push_back(std::move(unit));
    }
    complete_unit(shared);
    return;
  }
  shared.requeues.fetch_add(1);
  trace_event(shared, ProtocolEvent::Kind::kUnitRequeued, unit.id, rank, dest);
  send_unit(shared, rank, dest, kTagFaultRetry, unit, in_flight);
}

void communicator_main(SharedState& shared, std::vector<RankState>& ranks,
                       int rank) {
  if (shared.injector.rank_dead(rank)) return;  // never sets comm_exited
  AERO_TRACE_THREAD("comm", rank);
  RankState& rs = ranks[static_cast<std::size_t>(rank)];
  const PoolOptions& opts = *shared.opts;
  const auto request_timeout = opts.tuning.ack_timeout * 4;
  bool requested = false;
  auto request_deadline = mono_now();
  auto last_update = mono_now();
  std::map<std::uint64_t, InFlight> in_flight;
  /// Transfer nonces already queued here: dedupes retransmissions and
  /// fabric-duplicated copies of one dispatch without rejecting a unit that
  /// legitimately returns later under a new nonce.
  std::set<std::uint64_t> seen_frames;
  bool shut = false;

  while (!shut && !shared.abort.load()) {
    if (rs.crashed.load()) return;  // injected crash: vanish silently
    shared.window.beat(static_cast<std::size_t>(rank));
    if (auto msg = shared.comm.try_recv(rank)) {
      AERO_TRACE_SPAN("pool", "handle_message");
      const Timer handling;
      switch (msg->tag) {
        case kTagWorkRequest: {
          // Donate the largest queued unit if we can spare it.
          std::optional<WorkUnit> donation;
          {
            MutexLock lock(rs.m);
            if (rs.queue.size() > 1 &&
                rs.queued_cost > opts.steal_threshold) {
              auto it = rs.queue.begin();
              rs.queued_cost -= it->first;
              donation = std::move(it->second);
              rs.queue.erase(it);
            }
          }
          if (donation) {
            shared.steals.fetch_add(1);
            ++rs.donated;
            AERO_TRACE_INSTANT_ARG("pool", "donate", donation->id);
            send_unit(shared, rank, msg->from, kTagWorkTransfer, *donation,
                      in_flight);
          } else {
            shared.denials.fetch_add(1);
            shared.comm.send(rank, msg->from, kTagNoWork);
          }
          break;
        }
        case kTagWorkTransfer:
        case kTagFaultRetry: {
          const auto parsed = parse_frame(msg->payload);
          if (!parsed) {
            shared.crc_failures.fetch_add(1);
            AERO_TRACE_INSTANT("pool", "crc_reject");
            break;  // sender retransmits an intact copy
          }
          // The nonce dedupe is consulted BEFORE any window access so a
          // duplicate control frame (fabric duplicate, or a retransmission
          // racing the ack) is answered from the dedupe and never touches
          // the already-consumed slot.
          const bool fresh = seen_frames.count(parsed->nonce) == 0;
          WorkUnit unit;
          if (fresh) {
            if (parsed->windowed) {
              AERO_TRACE_SPAN("rma", "take");
              if (parsed->src < 0 || parsed->src >= shared.comm.size()) {
                shared.crc_failures.fetch_add(1);
                break;
              }
              auto bytes =
                  shared.payload_windows[static_cast<std::size_t>(parsed->src)]
                      .take(parsed->slot, parsed->nonce, parsed->length,
                            parsed->digest);
              if (!bytes) {
                shared.crc_failures.fetch_add(1);
                AERO_TRACE_INSTANT("pool", "window_reject");
                break;  // slot intact; sender resends the control frame
              }
              trace_event(shared, ProtocolEvent::Kind::kWindowTaken,
                          parsed->nonce, rank, parsed->src);
              try {
                unit = deserialize_work(bytes->data(), bytes->size());
              } catch (const std::exception&) {
                shared.crc_failures.fetch_add(1);
                break;  // can't happen off the wire; payload never framed
              }
              shared.zero_copy.fetch_add(1);
              shared.window_bytes.fetch_add(bytes->size());
              shared.buffers.release(std::move(*bytes));
            } else {
              try {
                unit = deserialize_work(parsed->data, parsed->size);
              } catch (const std::exception&) {
                shared.crc_failures.fetch_add(1);
                AERO_TRACE_INSTANT("pool", "crc_reject");
                break;  // sender retransmits an intact copy
              }
            }
            seen_frames.insert(parsed->nonce);
          }
          // Record the accept/duplicate verdict BEFORE the ack leaves: the
          // sender records kAckMatched on receipt, and the audit requires
          // the accept to precede its ack in the trace's total order.
          trace_event(shared,
                      fresh ? ProtocolEvent::Kind::kAccept
                            : ProtocolEvent::Kind::kDuplicate,
                      parsed->nonce, rank, msg->from);
          shared.comm.send(rank, msg->from, kTagWorkAck,
                           make_ack(parsed->nonce));
          if (!fresh) break;
          ++rs.received;
          AERO_TRACE_INSTANT_ARG("pool", "accept_work", parsed->nonce);
          push_local(shared, rs, std::move(unit));
          requested = false;
          break;
        }
        case kTagWorkAck: {
          if (const auto id = parse_ack(msg->payload)) {
            auto it = in_flight.find(*id);
            if (it != in_flight.end()) {
              if (it->second.windowed) {
                // Ack on an untaken slot means the receiver accepted a
                // duplicate nonce without consuming; either way the slot is
                // finished -- drop it (recycling untaken bytes).
                shared.payload_windows[static_cast<std::size_t>(rank)].release(
                    it->second.slot, *id);
              }
              in_flight.erase(it);
              trace_event(shared, ProtocolEvent::Kind::kAckMatched, *id, rank,
                          msg->from);
            }
          }
          break;
        }
        case kTagNoWork:
          requested = false;
          break;
        case kTagShutdown:
          shut = true;
          break;
        case kTagResult:
          if (rank == 0) root_accept_result(shared, *msg);
          break;
        default:
          break;
      }
      rs.comm_seconds += handling.seconds();
      continue;  // drain the mailbox before housekeeping
    }

    const auto now = mono_now();

    // Reliable-channel housekeeping: retransmit unacked payloads; recover
    // payloads addressed to ranks the watchdog has since declared dead.
    if (!in_flight.empty()) {
      std::vector<std::pair<std::uint64_t, InFlight>> dead_dest;
      for (auto it = in_flight.begin(); it != in_flight.end();) {
        InFlight& f = it->second;
        if (now < f.deadline) {
          ++it;
        } else if (shared.dead[static_cast<std::size_t>(f.dest)].load()) {
          dead_dest.emplace_back(it->first, std::move(f));
          it = in_flight.erase(it);
        } else {
          // Retransmission needs a master copy: the frame must survive in
          // in_flight until acked. Window payloads only ever resend the
          // 37-byte control frame, so this never deep-copies mesh bytes.
          auto copy = f.payload;  // aerolint: allow(payload-copy)
          shared.comm.send(rank, f.dest, f.tag, std::move(copy));
          shared.retransmits.fetch_add(1);
          ++rs.retransmits_sent;
          AERO_TRACE_INSTANT_ARG("pool", "retransmit", it->first);
          f.deadline = now + opts.tuning.ack_timeout;
          ++f.tries;
          ++it;
        }
      }
      for (auto& [nonce, f] : dead_dest) {
        std::optional<WorkUnit> unit;
        if (f.windowed) {
          // The payload master sits in our window. Reclaim returns the
          // bytes only if the dest never took them; a taken slot means the
          // dest queued the unit before dying, and the watchdog's queue
          // reclamation owns it now -- re-dispatching here would
          // double-process the unit.
          auto bytes =
              shared.payload_windows[static_cast<std::size_t>(rank)].reclaim(
                  f.slot, nonce);
          if (bytes) {
            unit = deserialize_work(bytes->data(), bytes->size());
            shared.buffers.release(std::move(*bytes));
          }
        } else {
          unit = unit_from_inline_frame(f.payload);  // own bytes, intact
        }
        if (!unit) {
          trace_event(shared, ProtocolEvent::Kind::kAbandoned, nonce, rank,
                      f.dest);
          continue;
        }
        trace_event(shared, ProtocolEvent::Kind::kRecovered, nonce, rank,
                    f.dest);
        if (f.tag == kTagWorkTransfer) {
          push_local(shared, rs, std::move(*unit));  // donation comes home
        } else {
          if (f.dest < 64) unit->failed_ranks |= 1ull << f.dest;
          dispatch_retry(shared, rank, std::move(*unit), in_flight);
        }
      }
    }

    // Ship units that exhausted the mesher's local retries.
    {
      std::vector<WorkUnit> outbox;
      {
        MutexLock lock(rs.m);
        outbox.swap(rs.retry_outbox);
      }
      for (WorkUnit& u : outbox) {
        dispatch_retry(shared, rank, std::move(u), in_flight);
      }
    }

    if (now - last_update >= opts.update_period) {
      last_update = now;
      double cost;
      {
        MutexLock lock(rs.m);
        cost = rs.queued_cost;
      }
      shared.window.put(static_cast<std::size_t>(rank), cost);

      if (requested && now >= request_deadline) {
        requested = false;  // request or its answer was lost; ask again
      }
      if (!requested && cost < opts.steal_threshold) {
        // Fetch the global loads and ask the busiest live rank for work.
        const std::vector<double> loads = shared.window.get_all();
        int target = -1;
        double best = opts.steal_threshold;
        for (int r = 0; r < shared.comm.size(); ++r) {
          if (r == rank || shared.dead[static_cast<std::size_t>(r)].load()) {
            continue;
          }
          if (loads[static_cast<std::size_t>(r)] > best) {
            best = loads[static_cast<std::size_t>(r)];
            target = r;
          }
        }
        if (target >= 0) {
          shared.comm.send(rank, target, kTagWorkRequest);
          requested = true;
          request_deadline = now + request_timeout;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  if (rs.crashed.load()) return;  // crash raced the shutdown broadcast

  // Shutdown phase. Any in-flight residue is ack loss on completed work:
  // termination implies every unit completed, so nothing is retransmitted.
  // Windowed residue was therefore taken; release is a harmless erase (and
  // recycles the bytes in the ack-lost-before-take corner).
  for (const auto& [nonce, f] : in_flight) {
    if (f.windowed) {
      shared.payload_windows[static_cast<std::size_t>(rank)].release(f.slot,
                                                                     nonce);
    }
    trace_event(shared, ProtocolEvent::Kind::kAbandoned, nonce, rank, f.dest);
  }
  in_flight.clear();
  {
    MutexLock lock(rs.m);
    rs.shutdown = true;
  }
  rs.cv.notify_all();

  // Under a drain the mesher may still be inside its final unit, appending
  // to rs.triangles. The normal path orders that hand-off through
  // `outstanding` reaching zero before shutdown; a drain bypasses it, so
  // wait for the mesher thread to exit before the gather reads the list.
  while (shared.drain.load() && !rs.mesher_exited.load() &&
         !shared.abort.load()) {
    shared.window.beat(static_cast<std::size_t>(rank));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  if (rank == 0) {
    // Bounded result gather: wait for every live rank's soup, re-acking
    // resends, until the watchdog deadline.
    AERO_TRACE_SPAN("pool", "gather");
    while (!shared.abort.load()) {
      bool complete = true;
      {
        MutexLock lock(shared.results_m);
        for (int r = 1; r < shared.comm.size(); ++r) {
          if (shared.dead[static_cast<std::size_t>(r)].load()) continue;
          if (shared.results.find(r) == shared.results.end()) {
            complete = false;
            break;
          }
        }
      }
      if (complete) break;
      if (auto msg = shared.comm.try_recv(0)) {
        if (msg->tag == kTagResult) root_accept_result(shared, *msg);
        continue;
      }
      if (mono_now() > shared.deadline) {
        shared.gather_timed_out.store(true);
        break;
      }
      shared.window.beat(0);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  } else {
    // Reliable result send: resend until the root acks ("the points are
    // gathered at the root process"), bounded by the retransmit cap. The
    // result rides the same two-path transport as work transfers: above the
    // RMA threshold the soup is published into this rank's window and only
    // the control frame is (re)sent.
    AERO_TRACE_SPAN("pool", "send_results");
    constexpr int kMaxResultTries = 64;
    const std::uint64_t nonce = shared.next_transfer_seq.fetch_add(1);
    const std::size_t logical = serialized_triangles_size(rs.triangles.size());
    const bool windowed =
        opts.tuning.rma && logical >= opts.tuning.rma_threshold;
    ByteBuf frame;
    std::uint32_t slot = 0;
    if (windowed) {
      AERO_TRACE_SPAN("rma", "publish_result");
      auto bytes = serialize_triangles(rs.triangles, &shared.buffers);
      const std::uint64_t len = bytes.size();
      const std::uint64_t digest = payload_digest(bytes.data(), bytes.size());
      slot = shared.payload_windows[static_cast<std::size_t>(rank)].publish(
          nonce, std::move(bytes));
      trace_event(shared, ProtocolEvent::Kind::kWindowPublished, nonce, rank,
                  0);
      frame = make_window_frame(nonce, rank, slot, len, digest);
    } else {
      auto bytes =
          serialize_triangles(rs.triangles, &shared.buffers, kInlineFrameHeader);
      seal_inline_frame(nonce, bytes);
      frame = ByteBuf(std::move(bytes));
    }
    trace_event(shared, ProtocolEvent::Kind::kDispatch, nonce, rank, 0);
    {
      ByteBuf first = frame;
      shared.comm.send(rank, 0, kTagResult, std::move(first));
    }
    auto deadline = mono_now() + opts.tuning.ack_timeout;
    int tries = 0;
    bool acked = false;
    while (!shared.abort.load()) {
      shared.window.beat(static_cast<std::size_t>(rank));
      if (auto msg = shared.comm.try_recv(rank)) {
        if (msg->tag == kTagResultAck && parse_ack(msg->payload) == nonce) {
          acked = true;
          break;
        }
        continue;  // stray shutdown rebroadcasts, corrupted acks, etc.
      }
      const auto now = mono_now();
      if (now >= deadline) {
        if (++tries > kMaxResultTries) break;
        auto again = frame;
        shared.comm.send(rank, 0, kTagResult, std::move(again));
        shared.retransmits.fetch_add(1);
        ++rs.retransmits_sent;
        AERO_TRACE_INSTANT("pool", "retransmit_result");
        deadline = now + opts.tuning.ack_timeout;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (acked) {
      trace_event(shared, ProtocolEvent::Kind::kAckMatched, nonce, rank, 0);
      if (windowed) {
        shared.payload_windows[static_cast<std::size_t>(rank)].release(slot,
                                                                       nonce);
      }
    } else {
      // Gave up (abort or retry cap). The slot is deliberately NOT released:
      // a frame already in flight (injector delay) may still reach the root
      // or the monitor, and the window dies with the run anyway.
      trace_event(shared, ProtocolEvent::Kind::kAbandoned, nonce, rank, 0);
    }
  }
  shared.comm_exited[static_cast<std::size_t>(rank)].store(true);
}

/// Pool watchdog: declares silent ranks dead (reclaiming their queued work
/// for the root), re-broadcasts dropped shutdowns, services late result
/// resends after the root's communicator has exited, and enforces the
/// global deadline.
void monitor_main(SharedState& shared, std::vector<RankState>& ranks) {
  AERO_TRACE_THREAD("monitor", -1);
  const PoolOptions& opts = *shared.opts;
  const int n = shared.comm.size();
  const auto start = mono_now();
  std::vector<std::uint64_t> last_beat(static_cast<std::size_t>(n), 0);
  std::vector<std::chrono::steady_clock::time_point> last_advance(
      static_cast<std::size_t>(n), start);
  auto last_rebroadcast = start;
  bool aborted = false;
  bool draining = false;
  unsigned rss_tick = 0;

  for (;;) {
    bool all_done = true;
    for (int r = 0; r < n; ++r) {
      if (!shared.comm_exited[static_cast<std::size_t>(r)].load() &&
          !shared.dead[static_cast<std::size_t>(r)].load()) {
        all_done = false;
        break;
      }
    }
    if (all_done) return;

    const auto now = mono_now();
    if (!aborted && now > shared.deadline) {
      // Watchdog bound hit: force-terminate everything still running.
      aborted = true;
      shared.abort.store(true);
      for (auto& rs : ranks) {
        {
          MutexLock lock(rs.m);
          rs.shutdown = true;
        }
        rs.cv.notify_all();
      }
    }

    // Run budget / external stop: unlike the watchdog abort above, this
    // drains gracefully -- meshers stop taking units, communicators run the
    // normal bounded result gather, and the pool reports kStopped.
    if (!aborted && !draining) {
      StopCause cause = StopCause::kNone;
      if (opts.stop != nullptr && opts.stop->load()) {
        cause = StopCause::kExternal;
      } else if (opts.budget.wall_ms > 0 &&
                 now - start >=
                     std::chrono::milliseconds(opts.budget.wall_ms)) {
        cause = StopCause::kWallBudget;
      } else if (opts.budget.peak_rss_mb > 0 && rss_tick++ % 16 == 0 &&
                 obs::peak_rss_kb() >
                     static_cast<long>(opts.budget.peak_rss_mb) * 1024) {
        cause = StopCause::kRssBudget;
      }
      if (cause != StopCause::kNone) {
        draining = true;
        shared.stop_cause.store(static_cast<int>(cause));
        shared.drain.store(true);
        // Reuse the shutdown machinery: wake the meshers (they observe
        // `drain` and exit) and move the communicators into their gather
        // phase; the rebroadcast loop below keeps re-sending kTagShutdown
        // until every communicator got the message.
        shared.shutdown_broadcast.store(true);
        AERO_TRACE_INSTANT_ARG("pool", "drain", static_cast<int>(cause));
        for (auto& rs : ranks) {
          {
            MutexLock lock(rs.m);
            rs.shutdown = true;
          }
          rs.cv.notify_all();
        }
        for (int r = 0; r < n; ++r) {
          if (!shared.comm_exited[static_cast<std::size_t>(r)].load() &&
              !shared.dead[static_cast<std::size_t>(r)].load()) {
            shared.comm.send(-1, r, kTagShutdown);
          }
        }
      }
    }

    if (shared.shutdown_broadcast.load() && !aborted &&
        now - last_rebroadcast >= opts.tuning.ack_timeout) {
      // A dropped shutdown must not strand a communicator forever.
      last_rebroadcast = now;
      for (int r = 0; r < n; ++r) {
        if (!shared.comm_exited[static_cast<std::size_t>(r)].load() &&
            !shared.dead[static_cast<std::size_t>(r)].load()) {
          shared.comm.send(-1, r, kTagShutdown);
        }
      }
    }

    // Once the root communicator is gone the monitor is the sole consumer
    // of mailbox 0: keep acking late result resends so their senders exit.
    if (shared.comm_exited[0].load()) {
      while (auto msg = shared.comm.try_recv(0)) {
        if (msg->tag == kTagResult) root_accept_result(shared, *msg);
      }
    }

    // Heartbeat scan (rank 0 is the root and is never declared dead).
    for (int r = 1; r < n; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (shared.comm_exited[ri].load() || shared.dead[ri].load()) continue;
      const std::uint64_t hb = shared.window.heartbeat(ri);
      if (hb != last_beat[ri]) {
        last_beat[ri] = hb;
        last_advance[ri] = now;
        continue;
      }
      if (now - last_advance[ri] >= opts.tuning.heartbeat_timeout) {
        shared.dead[ri].store(true);
        shared.dead_count.fetch_add(1);
        AERO_TRACE_INSTANT_ARG("pool", "rank_dead", r);
        // Reclaim the dead rank's queued work for the root. Its completed
        // triangles are NOT recoverable (no persistence across death); a
        // rank killed mid-run loses what it had meshed.
        RankState& dr = ranks[ri];
        std::vector<WorkUnit> orphans;
        {
          MutexLock lock(dr.m);
          for (auto& kv : dr.queue) orphans.push_back(std::move(kv.second));
          dr.queue.clear();
          dr.queued_cost = 0.0;
          dr.shutdown = true;
        }
        dr.cv.notify_all();
        shared.reclaimed.fetch_add(orphans.size());
        AERO_TRACE_INSTANT_ARG("pool", "reclaimed_units", orphans.size());
        for (WorkUnit& u : orphans) {
          trace_event(shared, ProtocolEvent::Kind::kUnitReclaimed, u.id, r);
          push_local(shared, ranks[0], std::move(u));
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Out-of-core finalization: seal the spill journal, index it with the
/// bounded-memory scanner, and replay every block into `out` in global key
/// order, loading at most `merge_resident_bytes` of payload at a time (one
/// record minimum, so an oversized block still merges). Blocks that
/// overflowed to RAM on a spill-write failure are interleaved at their key
/// position, so the merged order is identical to the resident path's.
void merge_spilled(SharedState& shared, const PoolOptions& opts,
                   MergedMesh& out, PoolStats& stats,
                   std::size_t& lost_units) {
  using Tri = std::array<Vec2, 3>;
  if (!shared.spill.flush()) {
    AERO_TRACE_INSTANT("pool", "spill_flush_failed");
  }
  shared.spill.close();

  JournalIndex index = scan_journal_index(opts.spill_path, 0);
  std::sort(index.frames.begin(), index.frames.end(),
            [](const JournalFrame& a, const JournalFrame& b) {
              return a.key < b.key;
            });
  // A torn tail (disk full mid-append) drops whole blocks; surface the loss
  // through the same accounting as an unmeshable unit so the run reports
  // kPartial instead of a silently thinner mesh.
  const std::size_t written = shared.spill_records.load();
  if (index.frames.size() < written) {
    lost_units += written - index.frames.size();
  }

  std::map<std::uint64_t, std::vector<Tri>> overflow;
  {
    const MutexLock lock(shared.overflow_m);
    overflow.swap(shared.spill_overflow);
  }
  auto ov = overflow.begin();
  const auto emit_overflow_below = [&](std::uint64_t key) {
    for (; ov != overflow.end() && ov->first < key; ++ov) {
      for (const Tri& tri : ov->second) {
        out.add_triangle(tri[0], tri[1], tri[2]);
      }
    }
  };

  JournalReader reader;
  const bool reader_ok = reader.open(opts.spill_path);
  const std::size_t budget =
      opts.merge_resident_bytes > 0 ? opts.merge_resident_bytes : 1;
  std::size_t fi = 0;
  std::vector<std::vector<std::uint8_t>> loaded;
  while (fi < index.frames.size()) {
    // Window = the longest run of key-ordered frames whose payloads fit the
    // resident budget (always at least one frame).
    std::size_t fj = fi;
    std::size_t window_bytes = 0;
    while (fj < index.frames.size()) {
      const std::size_t len = index.frames[fj].payload_len;
      if (fj > fi && window_bytes + len > budget) break;
      window_bytes += len;
      ++fj;
    }
    loaded.assign(fj - fi, {});
    std::size_t resident = 0;
    for (std::size_t k = fi; k < fj; ++k) {
      if (!reader_ok || !reader.read(index.frames[k], loaded[k - fi])) {
        loaded[k - fi].clear();  // torn between scan and read; block lost
        ++lost_units;
        continue;
      }
      resident += loaded[k - fi].size();
    }
    ++stats.merge_windows;
    if (resident > stats.merge_resident_peak_bytes) {
      stats.merge_resident_peak_bytes = resident;
    }
    for (std::size_t k = fi; k < fj; ++k) {
      emit_overflow_below(index.frames[k].key);
      const std::vector<std::uint8_t>& payload = loaded[k - fi];
      if (payload.empty()) continue;  // read failure, counted above
      if (soup_status(payload) != MeshBlobStatus::kOk) {
        ++lost_units;
        continue;
      }
      const std::uint8_t* body = payload.data() + kSoupHeaderSize;
      const std::size_t ntris = (payload.size() - kSoupHeaderSize) /
                                sizeof(Tri);
      for (std::size_t t = 0; t < ntris; ++t) {
        Tri tri;
        // Deframing one 48-byte triangle from the spill record.
        std::memcpy(&tri, body + t * sizeof(Tri), sizeof(Tri));  // aerolint: allow(payload-copy)
        out.add_triangle(tri[0], tri[1], tri[2]);
      }
    }
    fi = fj;
  }
  emit_overflow_below(~std::uint64_t{0});
  // Flush any overflow at or past the largest key (emit_overflow_below is
  // strictly below; the sentinel above covers all real keys, but be exact).
  for (; ov != overflow.end(); ++ov) {
    for (const Tri& tri : ov->second) {
      out.add_triangle(tri[0], tri[1], tri[2]);
    }
  }
  reader.close();
}

}  // namespace

PoolStats run_pool(std::vector<WorkUnit> initial, const GradedSizing& sizing,
                   const PoolOptions& opts, MergedMesh& out) {
  PoolStats stats;
  stats.tasks_per_rank.assign(static_cast<std::size_t>(opts.nranks), 0);
  if (initial.empty()) {
    // Nothing to do: without this, `outstanding` starts at zero, no unit
    // ever completes, shutdown is never broadcast, and every thread blocks
    // forever.
    return stats;
  }
  Timer timer;
  AERO_TRACE_SPAN("pool", "run_pool");
  if (opts.trace != nullptr) opts.trace->begin_run();

  SharedState shared(opts);
  shared.sizing = &sizing;
  shared.opts = &opts;
  if (!opts.spill_path.empty()) {
    // Hash 0: the spill is a single-run scratch file, created and consumed
    // here; an unopenable spill degrades to the in-RAM merge.
    shared.spilling = shared.spill.open(opts.spill_path, 0, /*append=*/false);
  }
  shared.deadline = mono_now() + opts.tuning.watchdog_timeout;
  shared.outstanding.store(static_cast<long>(initial.size()),
                         std::memory_order_relaxed);

  std::vector<RankState> ranks(static_cast<std::size_t>(opts.nranks));
  for (auto& unit : initial) {
    unit.id = shared.next_unit_id.fetch_add(1);
    trace_event(shared, ProtocolEvent::Kind::kUnitCreated, unit.id, 0);
    push_local(shared, ranks[0], std::move(unit));
  }

  // Per-pass checkpoint baselines: the driver may run two pool passes (BL,
  // inviscid) through one shared sink, so this pass's stats are deltas.
  const std::size_t ckpt_base =
      opts.checkpoint != nullptr ? opts.checkpoint->records() : 0;
  const std::size_t ckpt_fail_base =
      opts.checkpoint != nullptr ? opts.checkpoint->failures() : 0;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(opts.nranks) * 2 + 1);
  for (int r = 0; r < opts.nranks; ++r) {
    // The mesher is wrapped so `mesher_exited` flips on EVERY exit path
    // (normal shutdown, abort, drain, injected crash/kill); a draining
    // communicator synchronizes on it before reading rs.triangles.
    threads.emplace_back([&shared, &ranks, r] {
      mesher_main(shared, ranks, r);
      ranks[static_cast<std::size_t>(r)].mesher_exited.store(true);
    });
    threads.emplace_back(communicator_main, std::ref(shared), std::ref(ranks),
                         r);
  }
  threads.emplace_back(monitor_main, std::ref(shared), std::ref(ranks));
  for (auto& t : threads) t.join();

  // Root-side sequential fallback: units every rank gave up on are meshed
  // here, outside the fault injector's reach, so a poisoned unit still ends
  // up in the final mesh.
  std::size_t lost_units = 0;
  std::vector<WorkUnit> fallback;
  {
    MutexLock lock(shared.fallback_m);
    fallback.swap(shared.fallback);
  }
  stats.fallback_units = fallback.size();
  AERO_TRACE_SPAN("pool", "fallback_mesh");
  const bool drained = shared.drain.load();
  while (!fallback.empty()) {
    WorkUnit unit = std::move(fallback.back());
    fallback.pop_back();
    std::uint64_t key = 0;
    if (opts.checkpoint != nullptr || opts.resume != nullptr) {
      key = subdomain_key(unit);
    }
    if (opts.resume != nullptr) {
      if (const auto* stored = opts.resume->find(key)) {
        if (shared.spilling) {
          spill_block(shared, shared.spill_seq.fetch_add(1), *stored);
        } else {
          ranks[0].triangles.insert(ranks[0].triangles.end(), stored->begin(),
                                    stored->end());
        }
        shared.resumed.fetch_add(1);
        shared.completed.fetch_add(1);
        if (opts.checkpoint != nullptr) opts.checkpoint->record(key, *stored);
        trace_event(shared, ProtocolEvent::Kind::kUnitCompleted, unit.id, 0);
        continue;
      }
    }
    if (drained) {
      // The drain stops meshing here too: escalated units join the
      // unfinished remainder (units_done < units_total) for the next run.
      continue;
    }
    std::vector<WorkUnit> children;
    std::vector<std::array<Vec2, 3>> triangles;
    try {
      expand_unit(sizing, opts, unit, children, triangles);
    } catch (...) {
      ++lost_units;  // genuinely unmeshable, not an injected fault
      trace_event(shared, ProtocolEvent::Kind::kUnitLost, unit.id, 0);
      continue;
    }
    trace_event(shared, ProtocolEvent::Kind::kUnitCompleted, unit.id, 0);
    shared.completed.fetch_add(1);
    for (auto& c : children) {
      c.id = shared.next_unit_id.fetch_add(1);
      trace_event(shared, ProtocolEvent::Kind::kUnitCreated, c.id, 0);
      fallback.push_back(std::move(c));
    }
    if (children.empty() && opts.checkpoint != nullptr) {
      opts.checkpoint->record(key, triangles);
    }
    if (shared.spilling) {
      spill_block(shared, shared.spill_seq.fetch_add(1), std::move(triangles));
    } else {
      ranks[0].triangles.insert(ranks[0].triangles.end(), triangles.begin(),
                                triangles.end());
    }
  }

  // Root-side merge: rank 0's own triangles plus every gathered soup --
  // either resident (the two loops below) or replayed from the spill file
  // window-by-window under the resident budget. The spill keys reproduce
  // exactly this loop's order (see spill_rank_key), so both paths build the
  // identical mesh.
  if (shared.spilling) {
    merge_spilled(shared, opts, out, stats, lost_units);
  }
  for (const auto& tri : ranks[0].triangles) {
    out.add_triangle(tri[0], tri[1], tri[2]);
  }
  {
    MutexLock lock(shared.results_m);
    for (const auto& [from, tris] : shared.results) {
      for (const auto& tri : tris) {
        out.add_triangle(tri[0], tri[1], tri[2]);
      }
    }
    for (int r = 1; r < opts.nranks; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (shared.results.find(r) != shared.results.end()) continue;
      if (shared.dead[ri].load()) {
        // A rank that died mid-run takes its meshed-but-ungathered triangles
        // with it; that loss must not report kOk. A rank dead from the start
        // (or that only split units) meshed nothing and is missing nothing.
        if (!ranks[ri].triangles.empty()) ++stats.missing_results;
      } else {
        ++stats.missing_results;
      }
    }
  }

  stats.steals = shared.steals.load(std::memory_order_relaxed);
  stats.steal_denials = shared.denials.load(std::memory_order_relaxed);
  stats.transfer_bytes = shared.transfer_bytes.load(std::memory_order_relaxed);
  stats.result_bytes = shared.result_bytes.load(std::memory_order_relaxed);
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    stats.tasks_per_rank[r] = ranks[r].tasks_done;
  }
  stats.unit_retries = shared.unit_retries.load(std::memory_order_relaxed);
  stats.unit_failures = shared.unit_failures.load(std::memory_order_relaxed);
  stats.requeued_units = shared.requeues.load(std::memory_order_relaxed);
  stats.dropped_messages = shared.injector.dropped();
  stats.duplicated_messages = shared.injector.duplicated();
  stats.corrupt_payloads = shared.crc_failures.load(std::memory_order_relaxed);
  stats.retransmits = shared.retransmits.load(std::memory_order_relaxed);
  stats.dead_ranks = shared.dead_count.load(std::memory_order_relaxed);
  stats.reclaimed_units = shared.reclaimed.load(std::memory_order_relaxed);
  stats.injected_corruptions = shared.injector.corrupted();
  stats.delayed_messages = shared.injector.delayed();
  stats.injected_unit_faults = shared.injector.unit_faults();
  stats.units_total = static_cast<std::size_t>(shared.next_unit_id.load());
  stats.units_done = shared.completed.load();
  stats.resumed_units = shared.resumed.load();
  stats.checkpointed_units =
      opts.checkpoint != nullptr ? opts.checkpoint->records() - ckpt_base : 0;
  stats.checkpoint_failures =
      opts.checkpoint != nullptr ? opts.checkpoint->failures() - ckpt_fail_base
                                 : 0;
  stats.injected_crashes = shared.crashes.load();
  stats.injected_mesher_kills = shared.mesher_kills.load();
  stats.spill_records = shared.spill_records.load(std::memory_order_relaxed);
  stats.spill_bytes =
      shared.spill_payload_bytes.load(std::memory_order_relaxed);
  stats.spill_write_failures =
      shared.spill_failures.load(std::memory_order_relaxed);
  stats.spill_max_record_bytes =
      shared.spill_max_record.load(std::memory_order_relaxed);
  stats.stop_cause = static_cast<StopCause>(shared.stop_cause.load());
  {
    const CommStats cs = shared.comm.stats();
    stats.comm_messages = cs.messages;
    stats.comm_bytes = cs.payload_bytes;
  }
  stats.zero_copy_hits = shared.zero_copy.load(std::memory_order_relaxed);
  stats.window_bytes = shared.window_bytes.load(std::memory_order_relaxed);
  stats.buffer_pool_hits = shared.buffers.hits();
  stats.buffer_pool_misses = shared.buffers.misses();
  stats.busy_seconds_per_rank.resize(ranks.size());
  stats.comm_seconds_per_rank.resize(ranks.size());
  stats.donated_per_rank.resize(ranks.size());
  stats.received_per_rank.resize(ranks.size());
  stats.retransmits_per_rank.resize(ranks.size());
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    stats.busy_seconds_per_rank[r] = ranks[r].busy_seconds;
    stats.comm_seconds_per_rank[r] = ranks[r].comm_seconds;
    stats.donated_per_rank[r] = ranks[r].donated;
    stats.received_per_rank[r] = ranks[r].received;
    stats.retransmits_per_rank[r] = ranks[r].retransmits_sent;
  }
  if (shared.abort.load()) {
    stats.status = RunStatus::kFailed;
  } else if (drained && stats.units_done < stats.units_total) {
    // Drained with work left over: the mesh gathered so far is valid and
    // conformal, and the journal makes the remainder resumable.
    stats.status = RunStatus::kStopped;
  } else if (shared.gather_timed_out.load() || stats.missing_results > 0 ||
             lost_units > 0) {
    stats.status = RunStatus::kPartial;
  }
  stats.wall_seconds = timer.seconds();
  return stats;
}

}  // namespace aero
