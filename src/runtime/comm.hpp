#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "obs/annotations.hpp"
#include "runtime/bytes.hpp"

namespace aero {

/// Message tags used by the mesh-generation protocol (mirrors the paper's
/// MPI tag usage).
enum MsgTag : int {
  kTagWorkRequest = 1,   ///< "I am running low; send me a subdomain"
  kTagWorkTransfer = 2,  ///< serialized subdomain payload
  kTagNoWork = 3,        ///< request denied (nothing spare)
  kTagShutdown = 4,      ///< global termination
  kTagResult = 5,        ///< triangle soup gathered to the root
  kTagWorkAck = 6,       ///< acknowledges a work transfer (payload: nonce)
  kTagFaultRetry = 7,    ///< unit re-queued away from a failing rank
  kTagResultAck = 8,     ///< root acknowledges a rank's result payload
};

/// A point-to-point message. The payload stores up to 64 bytes inline
/// (ByteBuf), so the control traffic that dominates message *count* --
/// acks, steal requests, denials, window control frames -- moves through
/// the fabric without touching the heap.
struct Message {
  int tag = 0;
  int from = -1;
  ByteBuf payload;
};

/// Deterministic fault-injection configuration. All decisions derive from
/// `seed` and a per-event counter (splitmix64), so a chaos run with a fixed
/// seed injects a reproducible *amount* of faults regardless of thread
/// interleaving, and two injectors with the same seed make identical
/// decisions for the same event index.
struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 0;
  double drop_rate = 0.0;       ///< P(message silently dropped)
  double duplicate_rate = 0.0;  ///< P(message delivered twice)
  double corrupt_rate = 0.0;    ///< P(one payload byte flipped in transit)
  double delay_rate = 0.0;      ///< P(delivery postponed by `delay`)
  std::chrono::microseconds delay{300};
  /// Ranks that die before doing any work (their threads never run, never
  /// heartbeat, and never answer). Rank 0 is the root and is never killed.
  std::vector<int> dead_ranks;
  /// Units that throw on every in-pool processing attempt (exercises the
  /// full retry -> re-queue -> root-fallback escalation).
  std::vector<std::uint64_t> fail_unit_ids;
  /// P(a unit-processing attempt throws), on top of `fail_unit_ids`.
  double unit_failure_rate = 0.0;
  /// Process-level chaos: (rank, n) -- after the rank's mesher completes n
  /// units, BOTH of its threads exit silently, simulating a process crash
  /// mid-run: no shutdown handshake, no result send, heartbeats stop, and
  /// the monitor eventually declares the rank dead and reclaims its queue.
  /// Rank 0 hosts the gather and is never crashed (like dead_ranks).
  std::vector<std::pair<int, std::size_t>> crash_rank_after_units;
  /// (rank, n) -- only the mesher thread exits after n units; the
  /// communicator keeps heartbeating and donating, so any work stranded in
  /// the rank's queue is caught by the run budget or the watchdog bound
  /// instead of dead-rank recovery. The nastier half-dead failure mode.
  std::vector<std::pair<int, std::size_t>> kill_mesher_after_units;
};

/// Seed-driven chaos source consulted by the Communicator on every send and
/// by the pool on every unit-processing attempt. Thread-safe; counters are
/// cumulative over the injector's lifetime.
class FaultInjector {
 public:
  /// What the fabric should do with one message.
  struct Action {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    std::chrono::microseconds delay{0};
    std::uint64_t salt = 0;  ///< deterministic byte/bit choice for corruption
  };

  FaultInjector() = default;
  explicit FaultInjector(FaultConfig cfg) : cfg_(std::move(cfg)) {}

  const FaultConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.enabled; }

  /// True if `rank` is configured to be dead from the start (never rank 0).
  bool rank_dead(int rank) const;

  /// Draw the fabric's decision for the next message.
  Action next_action();

  /// True if this unit-processing attempt should throw.
  bool unit_should_fail(std::uint64_t unit_id);

  /// Completed-unit count after which `rank` crashes (both threads exit
  /// silently), or 0 if the rank is not scheduled to crash. Never rank 0.
  std::size_t crash_after(int rank) const;
  /// Completed-unit count after which `rank`'s mesher thread alone dies,
  /// or 0 if not scheduled.
  std::size_t kill_mesher_after(int rank) const;

  std::size_t dropped() const { return dropped_.load(); }
  std::size_t duplicated() const { return duplicated_.load(); }
  std::size_t corrupted() const { return corrupted_.load(); }
  std::size_t delayed() const { return delayed_.load(); }
  std::size_t unit_faults() const { return unit_faults_.load(); }

 private:
  FaultConfig cfg_;
  std::atomic<std::uint64_t> event_ AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> dropped_ AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> duplicated_ AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> corrupted_ AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> delayed_ AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> unit_faults_ AERO_ATOMIC_ROLE(counter){0};
};

/// Wire accounting, counted at the point a message is sent (every send is
/// one message, and retransmits count per copy).
struct CommStats {
  std::size_t messages = 0;
  std::size_t payload_bytes = 0;
};

/// In-process message-passing fabric: one mailbox per rank, blocking
/// receives, FIFO per sender-receiver pair. This is the MPI send/recv
/// substitute -- the communication *structure* of the paper's implementation
/// (who sends what to whom, and when) is preserved exactly; only the wire is
/// shared memory instead of Infiniband. An optional FaultInjector sits on
/// the wire and may drop, duplicate, corrupt, or delay any message.
class Communicator {
 public:
  explicit Communicator(int nranks);

  int size() const { return static_cast<int>(boxes_.size()); }

  /// Attach a chaos source to the wire (nullptr detaches; not thread-safe
  /// with concurrent sends -- install before the pool threads start).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Enqueue a message into `to`'s mailbox (subject to fault injection).
  void send(int from, int to, int tag, ByteBuf payload = {});

  /// Blocking receive of the next message for `rank`.
  Message recv(int rank);

  /// Non-blocking receive.
  std::optional<Message> try_recv(int rank);

  /// Count of queued messages, including not-yet-due delayed ones.
  std::size_t pending(int rank) const;

  CommStats stats() const;

 private:
  struct Delayed {
    std::chrono::steady_clock::time_point due;
    Message msg;
  };
  struct Mailbox {
    mutable Mutex m AERO_LOCK_NAME("comm.mailbox", 50);
    CondVar cv;
    std::deque<Message> q AERO_GUARDED_BY(m);
    std::vector<Delayed> delayed AERO_GUARDED_BY(m);
  };
  /// Move due delayed messages into the FIFO. Caller holds `box.m`.
  static void promote_due(Mailbox& box, std::chrono::steady_clock::time_point now)
      AERO_REQUIRES(box.m);
  /// Pop the next deliverable message. Caller holds `box.m`.
  std::optional<Message> pop_ready(Mailbox& box) AERO_REQUIRES(box.m);
  void deliver(int to, Message msg, std::chrono::microseconds delay);

  std::vector<Mailbox> boxes_;
  FaultInjector* injector_ = nullptr;
  std::atomic<std::size_t> messages_ AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> payload_bytes_ AERO_ATOMIC_ROLE(counter){0};
};

/// Remote-memory-access window emulation for *scheduling state*: an array of
/// work-load estimates hosted on the root, written with `put` (MPI_Put) by
/// each rank's communicator thread and snapshot with `get_all` (MPI_Get)
/// when a rank decides whom to steal from. Also hosts the liveness
/// heartbeats: each communicator thread bumps its counter with `beat`, and
/// the pool watchdog declares a rank dead when its counter stops advancing.
/// (Payload transfer has its own window -- PayloadWindow in runtime/rma.hpp.)
class RmaWindow {
 public:
  explicit RmaWindow(std::size_t n)
      : data_(n, 0.0),
        beats_(std::make_unique<std::atomic<std::uint64_t>[]>(n)) {
    for (std::size_t i = 0; i < n; ++i) beats_[i].store(0);
  }

  void put(std::size_t index, double value) {
    MutexLock lock(m_);
    data_[index] = value;
  }

  std::vector<double> get_all() const {
    MutexLock lock(m_);
    return data_;
  }

  void beat(std::size_t rank) {
    beats_[rank].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t heartbeat(std::size_t rank) const {
    return beats_[rank].load(std::memory_order_relaxed);
  }

 private:
  mutable Mutex m_ AERO_LOCK_NAME("rt.rma_window", 60);
  std::vector<double> data_ AERO_GUARDED_BY(m_);
  std::unique_ptr<std::atomic<std::uint64_t>[]> beats_ AERO_ATOMIC_ROLE(counter);
};

}  // namespace aero
