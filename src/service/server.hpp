#pragma once

// The in-process meshing service: a bounded admission queue in front of a
// small pool of dispatch workers, each of which runs one request at a time
// through the existing pipeline (sequential, or the rank pool when the
// request asks for ranks > 0), with a result cache short-circuiting
// repeated configurations at admission.
//
// Request lifecycle:
//
//   submit() -> [validate] -> [cache probe] -> [admission queue] -> worker
//      |            |              |                 |
//      |       kInvalidOptions   kOk (cache_hit)   kOverloaded when full
//      |                                            (backpressure: the
//      |                                            caller retries later)
//      +-- kShutdown when the server is stopping
//
// Dispatch order is priority-then-FIFO: among queued requests the highest
// priority dispatches first; equal priorities dispatch in admission order.
// Everything is deterministic given a serial submission order, which is
// what the scheduler tests pin.
//
// The server is transport-agnostic: aeromeshd wraps it in a unix-socket
// accept loop (daemon_main.cpp), tests and benches drive it in-process.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "core/timer.hpp"
#include "obs/annotations.hpp"
#include "service/cache.hpp"
#include "service/wire.hpp"

namespace aero {

/// Server-side tuning. Everything request-specific arrives in MeshRequest;
/// everything capacity-related lives here.
struct ServerConfig {
  /// Concurrent dispatch workers: how many requests mesh at once. Each
  /// worker drives its own pipeline run (a ranks>0 request spins the rank
  /// pool up for that run), so workers x ranks bounds thread pressure.
  int workers = 2;
  /// Admission queue bound. A request arriving with the queue full is
  /// rejected with kOverloaded instead of waiting -- the queue is for
  /// smoothing bursts, not for unbounded buffering.
  std::size_t queue_capacity = 16;
  /// Result-cache byte budget (serialized mesh bytes; 0 = caching off).
  std::size_t cache_bytes = std::size_t{256} << 20;
  /// Observability/test hook: runs on the worker thread after dequeue,
  /// before meshing. The daemon's --hold-ms debug flag and the overload
  /// tests use it to make queue occupancy deterministic.
  std::function<void(const MeshRequest&)> before_mesh;
};

/// Point-in-time scheduler accounting (the obs service.* counters mirror
/// these; this struct is for programmatic callers and tests).
struct ServerStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;         ///< worker-processed, any status
  std::size_t ok = 0;
  std::size_t cache_hits = 0;
  std::size_t rejected_overload = 0;
  std::size_t invalid = 0;
  std::size_t failed = 0;            ///< kFailed/kPartial/kStopped outcomes
  std::size_t shutdown_rejects = 0;  ///< answered kShutdown while stopping
  std::size_t queue_depth = 0;       ///< current
  std::size_t max_queue_depth = 0;
};

class MeshServer {
 public:
  explicit MeshServer(ServerConfig config);
  ~MeshServer();
  MeshServer(const MeshServer&) = delete;
  MeshServer& operator=(const MeshServer&) = delete;

  /// Admit one request. Always returns a future that will be fulfilled:
  /// immediately for cache hits, rejections, and invalid options; after
  /// meshing for admitted requests. Never throws on bad input -- problems
  /// come back as typed statuses in the response.
  std::future<MeshResponse> submit(MeshRequest request);

  /// Synchronous convenience: submit and wait.
  MeshResponse submit_wait(MeshRequest request) {
    return submit(std::move(request)).get();
  }

  /// Stop accepting, answer queued requests with kShutdown, finish
  /// in-flight requests, join the workers. Idempotent.
  void stop();

  ServerStats stats() const;
  ResultCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  struct Pending {
    MeshRequest request;
    std::uint64_t cache_key = 0;
    std::promise<MeshResponse> promise;
    Timer queued;  ///< admission-to-dispatch stopwatch
  };
  /// Dispatch order: lowest key first = highest priority, then FIFO seq.
  using DispatchKey = std::pair<std::int64_t, std::uint64_t>;

  void worker_loop();
  void process(Pending pending);
  MeshResponse mesh_one(const MeshRequest& request, std::uint64_t key,
                        double queue_ms);

  const ServerConfig config_;
  ResultCache cache_;

  mutable Mutex m_ AERO_LOCK_NAME("svc.queue", 4);
  CondVar cv_;
  std::map<DispatchKey, Pending> queue_ AERO_GUARDED_BY(m_);
  std::uint64_t seq_ AERO_GUARDED_BY(m_) = 0;
  bool stopping_ AERO_GUARDED_BY(m_) = false;
  ServerStats stats_ AERO_GUARDED_BY(m_);

  std::vector<std::thread> workers_;
};

}  // namespace aero
