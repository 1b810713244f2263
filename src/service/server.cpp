#include "service/server.hpp"

#include <exception>
#include <string>
#include <utility>

#include "core/mesh_view.hpp"
#include "core/options_hash.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_driver.hpp"

namespace aero {

namespace {

/// The wire never carries these, but in-process callers might set them:
/// checkpoint paths, budgets, hooks, and trace toggles are the server
/// operator's concern, not the tenant's. Scrubbing them keeps one request
/// from journaling onto the daemon's disk or flipping the process-global
/// trace recorder under every other tenant.
Options scrub_server_side(Options opts) {
  opts.checkpoint_path.clear();
  opts.resume_path.clear();
  opts.merge_spill_dir.clear();  // spill placement is the operator's call
  opts.stop_flag = nullptr;
  opts.phase_hook = nullptr;
  opts.budget_wall_ms = 0;
  opts.budget_rss_mb = 0;
  opts.trace = false;
  return opts;
}

ServiceStatus from_run_status(RunStatus s) {
  switch (s) {
    case RunStatus::kOk: return ServiceStatus::kOk;
    case RunStatus::kPartial: return ServiceStatus::kPartial;
    case RunStatus::kStopped: return ServiceStatus::kStopped;
    case RunStatus::kFailed: return ServiceStatus::kFailed;
    case RunStatus::kMeshTooLarge: return ServiceStatus::kFailed;
  }
  return ServiceStatus::kFailed;
}

obs::Counter& counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name);
}

}  // namespace

MeshServer::MeshServer(ServerConfig config)
    : config_(std::move(config)), cache_(config_.cache_bytes) {
  const int n = config_.workers < 1 ? 1 : config_.workers;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

MeshServer::~MeshServer() { stop(); }

std::future<MeshResponse> MeshServer::submit(MeshRequest request) {
  std::promise<MeshResponse> promise;
  std::future<MeshResponse> future = promise.get_future();
  counter("service.submitted").add();

  MeshResponse resp;
  resp.id = request.id;
  request.options = scrub_server_side(std::move(request.options));

  // Typed validation first: an invalid request never consumes queue space.
  const std::vector<OptionIssue> issues = request.options.validate();
  bool invalid = false;
  for (const OptionIssue& i : issues) invalid = invalid || i.is_error();
  if (invalid) {
    resp.status = ServiceStatus::kInvalidOptions;
    resp.error = format_issues(issues);
    counter("service.invalid").add();
    {
      const MutexLock lock(m_);
      ++stats_.submitted;
      ++stats_.invalid;
    }
    promise.set_value(std::move(resp));
    return future;
  }

  // Cache probe: a repeated configuration is answered at admission, without
  // touching the queue or a worker.
  resp.cache_key = mesh_config_hash(request.options);
  ResultCache::Entry entry;
  if (cache_.lookup(resp.cache_key, &entry) &&
      mesh_blob_status(entry.mesh_blob) == MeshBlobStatus::kOk) {
    AERO_TRACE_INSTANT("service", "cache_hit");
    resp.status = ServiceStatus::kOk;
    resp.cache_hit = true;
    resp.triangles = entry.triangles;
    resp.vertices = entry.vertices;
    resp.mesh_blob = std::move(entry.mesh_blob);
    counter("service.cache_hits").add();
    {
      const MutexLock lock(m_);
      ++stats_.submitted;
      ++stats_.cache_hits;
    }
    promise.set_value(std::move(resp));
    return future;
  }
  counter("service.cache_misses").add();

  // Admission: bounded queue, reject-don't-block when full (backpressure).
  {
    const MutexLock lock(m_);
    ++stats_.submitted;
    if (stopping_) {
      resp.status = ServiceStatus::kShutdown;
      ++stats_.shutdown_rejects;
      counter("service.shutdown_rejects").add();
      promise.set_value(std::move(resp));
      return future;
    }
    if (queue_.size() >= config_.queue_capacity) {
      AERO_TRACE_INSTANT("service", "reject_overload");
      resp.status = ServiceStatus::kOverloaded;
      ++stats_.rejected_overload;
      counter("service.rejected_overload").add();
      promise.set_value(std::move(resp));
      return future;
    }
    Pending pending;
    pending.cache_key = resp.cache_key;
    pending.request = std::move(request);
    pending.promise = std::move(promise);
    const DispatchKey key{-static_cast<std::int64_t>(pending.request.priority),
                          seq_++};
    queue_.emplace(key, std::move(pending));
    stats_.queue_depth = queue_.size();
    if (stats_.queue_depth > stats_.max_queue_depth) {
      stats_.max_queue_depth = stats_.queue_depth;
    }
    obs::MetricsRegistry::global()
        .gauge("service.queue_depth")
        .set(static_cast<double>(stats_.queue_depth));
  }
  cv_.notify_one();
  return future;
}

void MeshServer::worker_loop() {
  AERO_TRACE_THREAD("service.worker", 0);
  for (;;) {
    Pending pending;
    {
      UniqueLock lock(m_);
      while (queue_.empty() && !stopping_) lock.wait(cv_);
      if (queue_.empty()) return;  // stopping, nothing left
      const auto it = queue_.begin();
      pending = std::move(it->second);
      queue_.erase(it);
      stats_.queue_depth = queue_.size();
      obs::MetricsRegistry::global()
          .gauge("service.queue_depth")
          .set(static_cast<double>(stats_.queue_depth));
    }
    process(std::move(pending));
  }
}

void MeshServer::process(Pending pending) {
  AERO_TRACE_SPAN("service", "request");
  const double queue_ms = pending.queued.seconds() * 1e3;
  obs::MetricsRegistry::global().histogram("service.queue_ms").observe(
      queue_ms);
  if (config_.before_mesh) config_.before_mesh(pending.request);
  MeshResponse resp =
      mesh_one(pending.request, pending.cache_key, queue_ms);
  obs::MetricsRegistry::global()
      .histogram("service.latency_ms")
      .observe(queue_ms + resp.mesh_wall_ms);
  {
    const MutexLock lock(m_);
    ++stats_.completed;
    if (resp.status == ServiceStatus::kOk) {
      ++stats_.ok;
    } else {
      ++stats_.failed;
    }
  }
  counter("service.completed").add();
  pending.promise.set_value(std::move(resp));
}

MeshResponse MeshServer::mesh_one(const MeshRequest& request,
                                  std::uint64_t key, double queue_ms) {
  MeshResponse resp;
  resp.id = request.id;
  resp.cache_key = key;
  resp.queue_ms = queue_ms;
  Timer wall;
  try {
    MergedMesh mesh;
    if (request.options.ranks > 0) {
      ParallelMeshResult r = parallel_generate_mesh(request.options);
      resp.status = from_run_status(r.status);
      mesh = std::move(r.mesh);
      // Per-request fault accounting, aggregated into the service counters
      // (the injector's chaos plus real recoveries both land here).
      const PoolStats& b = r.bl_pool;
      const PoolStats& i = r.inviscid_pool;
      counter("service.fault_dropped_messages")
          .add(b.dropped_messages + i.dropped_messages);
      counter("service.fault_retransmits").add(b.retransmits + i.retransmits);
      counter("service.fault_unit_retries").add(b.unit_retries +
                                                i.unit_retries);
      counter("service.fault_dead_ranks").add(b.dead_ranks + i.dead_ranks);
    } else {
      MeshGenerationResult r = generate_mesh(request.options);
      resp.status = from_run_status(r.status);
      mesh = std::move(r.mesh);
    }
    resp.mesh_wall_ms = wall.seconds() * 1e3;
    resp.triangles = mesh.triangle_count();
    resp.vertices = mesh.point_count();
    ResultCache::Entry entry;
    entry.mesh_blob = serialize_mesh(mesh);
    entry.triangles = resp.triangles;
    entry.vertices = resp.vertices;
    resp.mesh_blob = entry.mesh_blob;
    // Only a complete mesh is reusable: a partial/stopped result is valid
    // but must not answer future requests for the full configuration.
    if (resp.status == ServiceStatus::kOk) {
      cache_.insert(key, std::move(entry));
    }
  } catch (const std::exception& e) {
    resp.status = ServiceStatus::kFailed;
    resp.error = e.what();
    resp.mesh_wall_ms = wall.seconds() * 1e3;
    counter("service.mesh_exceptions").add();
  }
  return resp;
}

void MeshServer::stop() {
  std::vector<Pending> drained;
  {
    const MutexLock lock(m_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    for (auto& [key, pending] : queue_) {
      drained.push_back(std::move(pending));
    }
    queue_.clear();
    stats_.queue_depth = 0;
  }
  cv_.notify_all();
  // Queued-but-never-dispatched requests are answered, not dropped: every
  // submitted request gets exactly one response, even across shutdown.
  for (Pending& pending : drained) {
    MeshResponse resp;
    resp.id = pending.request.id;
    resp.cache_key = pending.cache_key;
    resp.status = ServiceStatus::kShutdown;
    counter("service.shutdown_rejects").add();
    {
      const MutexLock lock(m_);
      ++stats_.shutdown_rejects;
    }
    pending.promise.set_value(std::move(resp));
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

ServerStats MeshServer::stats() const {
  const MutexLock lock(m_);
  return stats_;
}

}  // namespace aero
