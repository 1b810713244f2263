#pragma once

// Clang thread-safety annotations for the mesher/communicator lock protocol.
//
// The runtime's correctness rests on a discipline the compiler cannot see by
// default: every mailbox queue, RMA window buffer, and rank work queue is
// guarded by a specific mutex, and the mesher/communicator/monitor threads
// must hold it across every access. These macros make that discipline part
// of the type system under Clang's -Wthread-safety analysis (enabled by the
// AERO_ANALYZE=ON CMake option); under GCC and unanalyzed Clang builds they
// expand to nothing, so the annotated code is identical to the plain code.
//
// Lives in src/obs (the bottom-most module) so that the observability
// recorder and every concurrent layer above it share one lock vocabulary
// without upward include edges.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define AERO_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define AERO_THREAD_ANNOTATION(x)
#endif

/// Declares a class to be a capability (lockable resource) named `x`.
#define AERO_CAPABILITY(x) AERO_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class whose lifetime equals a capability hold.
#define AERO_SCOPED_CAPABILITY AERO_THREAD_ANNOTATION(scoped_lockable)

/// The annotated member may only be accessed while holding capability `x`.
#define AERO_GUARDED_BY(x) AERO_THREAD_ANNOTATION(guarded_by(x))

/// The annotated pointer may only be dereferenced while holding `x`.
#define AERO_PT_GUARDED_BY(x) AERO_THREAD_ANNOTATION(pt_guarded_by(x))

/// The annotated function requires the listed capabilities to be held on
/// entry (and does not release them).
#define AERO_REQUIRES(...) \
  AERO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// The annotated function acquires the listed capabilities.
#define AERO_ACQUIRE(...) \
  AERO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The annotated function releases the listed capabilities.
#define AERO_RELEASE(...) \
  AERO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The annotated function acquires the capability iff it returns `r`.
#define AERO_TRY_ACQUIRE(r, ...) \
  AERO_THREAD_ANNOTATION(try_acquire_capability(r, __VA_ARGS__))

/// The annotated function must NOT be called with the capabilities held
/// (deadlock guard for self-locking helpers).
#define AERO_EXCLUDES(...) \
  AERO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Opts one function out of the analysis. Reserved for the few places the
/// analysis cannot model -- in this codebase, only condition-variable waits
/// (the mid-wait release/reacquire cycle is invisible to the checker).
#define AERO_NO_THREAD_SAFETY_ANALYSIS \
  AERO_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// aerolint v2 annotations. These expand to NOTHING for every compiler: they
// are parsed textually by tools/aerolint's declaration model, which enforces
// them whole-program (Clang's analysis is per-TU and order-blind). Keep the
// lock-rank table in DESIGN.md ("Static analysis v2") in sync.

/// Names and ranks a mutex member for the lock-order analysis:
///   Mutex m_ AERO_LOCK_NAME("pool.rank", 10);
/// Nested acquisitions must follow ascending rank. The optional third
/// argument `may_block` marks a lock whose purpose is to serialize a
/// blocking operation (the journal's fwrite mutex), exempting it from the
/// lock-blocking rule.
#define AERO_LOCK_NAME(...)

/// Declares ordering intent explicitly; aerolint checks it against the
/// ranks and adds the edge to the exported acquisition graph:
///   Mutex m_ AERO_LOCK_NAME("pool.rank", 10) AERO_ACQUIRED_BEFORE("io.journal");
#define AERO_ACQUIRED_BEFORE(...)

/// Declares a std::atomic member's role for the atomics audit:
///   std::atomic<std::size_t> hits_ AERO_ATOMIC_ROLE(counter);
/// Roles: counter (statistics, any order), flag (state bits; relaxed only
/// with the `relaxed` qualifier), published (release/acquire data handoff).
#define AERO_ATOMIC_ROLE(...)

/// Declares shared mutable state in the Delaunay/geometry kernel modules
/// and names its synchronization discipline for the kernel-shared-state
/// audit:
///   mutable TriIndex last_tri_ AERO_SHARED_STATE("per-mesh; one thread owns each mesh");
/// The audit (tools/aerolint/kernel_state.py) flags every `mutable` member,
/// namespace-scope mutable global, and function-local `static` in
/// src/delaunay and src/geom that lacks this annotation: pool ranks and
/// service workers run the kernel concurrently on separate meshes, so each
/// one must declare who may touch it (per-mesh ownership, per-thread).
/// `thread_local`, `const`, `constexpr`, and std::atomic declarations are
/// exempt (per-thread or immutable or covered by the atomics audit).
#define AERO_SHARED_STATE(...)

namespace aero {

/// std::mutex wrapped as a Clang capability. Same cost, same semantics; the
/// wrapper exists only so the analysis can name the resource.
class AERO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() AERO_ACQUIRE() { m_.lock(); }
  void unlock() AERO_RELEASE() { m_.unlock(); }
  bool try_lock() AERO_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

/// Condition variable usable with aero::Mutex (any-lock flavor; the runtime
/// waits are millisecond-scale so the small dispatch overhead over
/// std::condition_variable is irrelevant here).
using CondVar = std::condition_variable_any;

/// RAII lock with scope-bound hold, the std::lock_guard of this codebase.
class AERO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) AERO_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() AERO_RELEASE() { m_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

/// RAII lock that can sit under a condition-variable wait. Waits re-check
/// their condition in the caller's loop: the analysis cannot model the
/// release/reacquire inside wait(), so that single call is opted out while
/// every access around it stays checked.
class AERO_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) AERO_ACQUIRE(m) : lock_(m) {}
  ~UniqueLock() AERO_RELEASE() {}  // lock_'s destructor unlocks
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void wait(CondVar& cv) AERO_NO_THREAD_SAFETY_ANALYSIS { cv.wait(lock_); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      CondVar& cv, const std::chrono::time_point<Clock, Duration>& due)
      AERO_NO_THREAD_SAFETY_ANALYSIS {
    return cv.wait_until(lock_, due);
  }

 private:
  std::unique_lock<Mutex> lock_;
};

}  // namespace aero
