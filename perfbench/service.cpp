// The service-mix workload: aeromeshd with two workers, driven by four
// closed-loop ServiceClient connections (each sends its next request only
// after its previous response arrived) over the daemon's unix socket.
//
// The request plan is drawn from the seed: in every block of eight
// requests exactly one, at a seeded position, is a cold configuration that
// is never repeated; the other seven pick one of eight hot configurations
// uniformly. The hot set is meshed once during set-up, so every hot request
// is a cache hit and every cold request is a miss -- the hit count of a
// seed is exact. The cache budget is far above what one run stores, so
// nothing is ever evicted (checked from the daemon's exit report).

#include "service.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/mesh_view.hpp"
#include "service/client.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr std::size_t kHot = 8;
constexpr std::size_t kConnections = 4;
constexpr const char* kSocket = "aeromeshd.sock";
constexpr const char* kDaemonLog = "aeromeshd.log";
constexpr std::uint64_t kWarmIdBase = 1ull << 40;

struct Config {
  std::size_t points = 0;
  double first_height = 0.0;
};

aero::Options options_of(const Config& c) {
  return aero::Options()
      .geometry(aero::make_naca0012(c.points))
      .set_max_layers(12)
      .set_farfield_chords(8.0)
      .set_first_height(c.first_height);
}

/// Hot configurations: eight surface resolutions at the default first
/// height (~26k triangles each).
Config hot_config(std::size_t slot) { return {146 + 2 * slot, 2e-4}; }

/// Cold configurations come from a 40 x 19 grid whose first heights never
/// equal the hot one, so no cold request can hit a hot entry.
std::vector<Config> cold_grid() {
  std::vector<Config> grid;
  for (std::size_t n = 130; n < 170; ++n) {
    for (int k = 0; k < 20; ++k) {
      if (k != 10) grid.push_back({n, 1e-4 + k * 1e-5});
    }
  }
  return grid;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Planned {
  int hot_slot = -1;  ///< -1 = cold
  Config config;
};

std::vector<Planned> draw_plan(std::uint64_t seed, std::size_t blocks) {
  std::uint64_t state = seed;
  std::vector<Config> grid = cold_grid();
  for (std::size_t i = grid.size(); i > 1; --i) {
    std::swap(grid[i - 1], grid[splitmix64(state) % i]);
  }
  std::vector<Planned> plan;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t cold_at = splitmix64(state) % 8;
    for (std::size_t j = 0; j < 8; ++j) {
      Planned p;
      if (j == cold_at) {
        p.config = grid[b];
      } else {
        p.hot_slot = static_cast<int>(splitmix64(state) % kHot);
        p.config = hot_config(static_cast<std::size_t>(p.hot_slot));
      }
      plan.push_back(p);
    }
  }
  return plan;
}

void print_plan(std::uint64_t seed, const std::vector<Planned>& plan) {
  std::string kinds;
  std::ostringstream cold;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    kinds += plan[i].hot_slot < 0 ? 'C' : static_cast<char>('0' + plan[i].hot_slot);
    if (plan[i].hot_slot < 0) {
      cold << ' ' << (i + 1) << ':' << plan[i].config.points << '/'
           << plan[i].config.first_height;
    }
  }
  std::printf("service-mix plan (seed %llu, %zu requests; digit = hot slot, "
              "C = cold):\n%s\ncold configurations (id:points/first_height):%s\n",
              static_cast<unsigned long long>(seed), plan.size(), kinds.c_str(),
              cold.str().c_str());
}

/// One aeromeshd process. The destructor kills and reaps it if it is still
/// running, so no exit path of the harness leaves the daemon behind.
class Daemon {
 public:
  explicit Daemon(const std::string& binary) {
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, kDaemonLog,
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    std::vector<std::string> args = {binary,       "--socket",  kSocket,
                                     "--workers",  "2",         "--cache-mb",
                                     "4096",       "--metrics", "aeromeshd-metrics.json"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&fa);
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  bool running() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }
  /// Wait up to `timeout_s` for a requested exit; true on exit code 0.
  bool wait_exit(double timeout_s) {
    const Clock::time_point t0 = Clock::now();
    while (pid_ > 0 && seconds_between(t0, Clock::now()) < timeout_s) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
};

/// A running daemon with its client connections and the hot blobs the
/// warm-up produced.
struct Service {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<aero::ServiceClient>> clients;
  std::vector<std::vector<std::uint8_t>> hot_blobs;
};

struct Sample {
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double mesh_ms = 0.0;
  bool hit = false;
  bool ok = false;
  bool overloaded = false;
  std::size_t blob_bytes = 0;
  std::uint64_t answered_id = 0;  ///< the id the response carried
};

/// Checks one response against its request; returns "" when it is right.
std::string check_response(const aero::MeshRequest& req, const aero::MeshResponse& resp,
                           const Planned& p, const Service& svc) {
  if (resp.id != req.id) return "response id does not echo the request";
  if (resp.status != aero::ServiceStatus::kOk) {
    return std::string("status ") + aero::to_string(resp.status) + " " + resp.error;
  }
  std::uint64_t points = 0, tris = 0;
  if (aero::mesh_blob_status(resp.mesh_blob, &points, &tris) != aero::MeshBlobStatus::kOk) {
    return "mesh blob fails its format checks";
  }
  if (points != resp.vertices || tris != resp.triangles || tris == 0) {
    return "mesh blob counts disagree with the response";
  }
  if (p.hot_slot >= 0) {
    if (!resp.cache_hit) return "hot request was not a cache hit";
    if (resp.mesh_blob != svc.hot_blobs[static_cast<std::size_t>(p.hot_slot)]) {
      return "cache hit is not byte-identical to the cold mesh";
    }
  } else if (resp.cache_hit) {
    return "cold request was answered from the cache";
  }
  return "";
}

/// Daemon start to the first accepted connection, then the hot set meshed
/// once. Returns the set-up seconds, or a negative value on failure.
double start_service(const std::string& binary, Service& svc, Result& r) {
  const Clock::time_point t0 = Clock::now();
  ::unlink(kSocket);
  svc.daemon = std::make_unique<Daemon>(binary);
  svc.clients.clear();
  auto first = std::make_unique<aero::ServiceClient>();
  while (!first->connect(kSocket)) {
    if (!svc.daemon->running() || seconds_between(t0, Clock::now()) > 30.0) {
      r.fail("aeromeshd did not accept a connection");
      return -1.0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  svc.clients.push_back(std::move(first));
  while (svc.clients.size() < kConnections) {
    auto c = std::make_unique<aero::ServiceClient>();
    if (!c->connect(kSocket)) {
      r.fail("second connection to aeromeshd failed");
      return -1.0;
    }
    svc.clients.push_back(std::move(c));
  }
  svc.hot_blobs.assign(kHot, {});
  std::vector<std::string> errors(kHot);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t slot = c; slot < kHot; slot += kConnections) {
        aero::MeshRequest req;
        req.id = kWarmIdBase + slot;
        req.options = options_of(hot_config(slot));
        aero::MeshResponse resp = svc.clients[c]->request(req);
        if (resp.status != aero::ServiceStatus::kOk || resp.cache_hit ||
            aero::mesh_blob_status(resp.mesh_blob) != aero::MeshBlobStatus::kOk) {
          errors[slot] = "warm-up request failed";
        }
        svc.hot_blobs[slot] = std::move(resp.mesh_blob);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double setup = seconds_between(t0, Clock::now());
  for (const std::string& e : errors) {
    ++r.attempted;
    if (!e.empty()) r.fail(e);
  }
  return setup;
}

/// Client-initiated shutdown; returns the daemon's exit report.
std::string stop_service(Service& svc, Result& r) {
  if (svc.clients.empty() || !svc.clients[0]->shutdown_server()) {
    r.fail("could not send the shutdown frame");
  }
  svc.clients.clear();
  if (!svc.daemon->wait_exit(60.0)) r.fail("aeromeshd did not exit cleanly");
  svc.daemon.reset();
  std::ifstream log(kDaemonLog);
  std::stringstream text;
  text << log.rdbuf();
  return text.str();
}

/// Reads `key=<n>` from the daemon's exit report (-1 when absent).
long report_value(const std::string& report, const std::string& line_prefix,
                  const std::string& key) {
  const std::size_t line = report.find(line_prefix);
  if (line == std::string::npos) return -1;
  const std::size_t at = report.find(" " + key + "=", line);
  if (at == std::string::npos) return -1;
  return std::atol(report.c_str() + at + key.size() + 2);
}

}  // namespace

Result run_service(std::uint64_t seed, double seconds, int leg, int legs,
                   bool traced, const std::string& daemon) {
  Result r;
  // ~256 requests per second of run time (about the rate the service
  // sustains), in whole blocks of eight with one cold configuration each,
  // and never more blocks than there are cold configurations. Each leg
  // serves a contiguous share of the blocks.
  const std::size_t blocks = std::min(
      static_cast<std::size_t>(32.0 * seconds + 0.5), cold_grid().size());
  const std::vector<Planned> plan = draw_plan(seed, blocks);
  if (leg == 0) print_plan(seed, plan);
  const std::size_t begin = 8 * (blocks * leg / legs);
  const std::size_t n = 8 * (blocks * (leg + 1) / legs) - begin;

  Service svc;
  const double setup = start_service(daemon, svc, r);
  if (setup < 0.0) return r;
  r.metrics["setup_s"] = setup;

  std::vector<Sample> samples(n);
  std::vector<SpanRecorder> recorders(kConnections);
  std::vector<double> loop_s(kConnections, 0.0);
  std::vector<std::string> errors(n);
  std::atomic<std::size_t> next{0};
  const Clock::time_point m0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      const Clock::time_point l0 = Clock::now();
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= n) break;
        const Planned& p = plan[begin + k];
        aero::MeshRequest req;
        req.id = begin + k + 1;
        req.options = options_of(p.config);
        // In the traced run every second request records a span, so the
        // two halves of one run give the tracing overhead.
        const bool span = traced && k % 2 == 0;
        const int id = span ? recorders[c].open("service.request", -1) : -1;
        const Clock::time_point t0 = Clock::now();
        const aero::MeshResponse resp = svc.clients[c]->request(req);
        const Clock::time_point t1 = Clock::now();
        if (span) recorders[c].close(id);
        Sample& s = samples[k];
        s.latency_ms = 1e3 * seconds_between(t0, t1);
        s.queue_ms = resp.queue_ms;
        s.mesh_ms = resp.mesh_wall_ms;
        s.hit = resp.cache_hit;
        s.overloaded = resp.status == aero::ServiceStatus::kOverloaded;
        s.blob_bytes = resp.mesh_blob.size();
        s.answered_id = resp.id;
        errors[k] = check_response(req, resp, p, svc);
        s.ok = errors[k].empty();
      }
      loop_s[c] = seconds_between(l0, Clock::now());
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = seconds_between(m0, Clock::now());
  const double rss = peak_rss_mib(svc.daemon->pid());
  const std::string report = stop_service(svc, r);

  // Exactly once: every request id of the leg is answered by one response.
  std::vector<int> answers(n, 0);
  for (const Sample& s : samples) {
    if (s.answered_id > begin && s.answered_id <= begin + n) {
      ++answers[s.answered_id - begin - 1];
    }
  }
  std::size_t ok = 0, hits = 0, overloaded = 0, blob_bytes = 0;
  std::vector<double> all_ms, cold_ms, hit_ms, queue_ms, mesh_ms, transport_ms,
      spanned_ms, plain_ms;
  for (std::size_t k = 0; k < n; ++k) {
    const Sample& s = samples[k];
    const std::string id = std::to_string(begin + k + 1);
    ++r.attempted;
    if (answers[k] != 1) {
      r.fail("request " + id + " was answered " + std::to_string(answers[k]) +
             " times");
    } else if (!s.ok) {
      r.fail("request " + id + ": " + errors[k]);
    } else {
      ++ok;
    }
    hits += s.hit ? 1 : 0;
    overloaded += s.overloaded ? 1 : 0;
    blob_bytes += s.blob_bytes;
    all_ms.push_back(s.latency_ms);
    (k % 2 == 0 ? spanned_ms : plain_ms).push_back(s.latency_ms);
    transport_ms.push_back(s.latency_ms - s.queue_ms - s.mesh_ms);
    if (s.hit) {
      hit_ms.push_back(s.latency_ms);
    } else {
      cold_ms.push_back(s.latency_ms / 1e3);
      queue_ms.push_back(s.queue_ms);
      mesh_ms.push_back(s.mesh_ms);
    }
  }
  if (report_value(report, "aeromeshd: cache", "evictions") != 0) {
    r.fail("the result cache evicted entries");
  }
  if (report_value(report, "aeromeshd: cache", "hits") != static_cast<long>(hits)) {
    r.fail("daemon and client disagree on the cache hit count");
  }

  if (traced) {
    // Harness time per connection outside its requests.
    double outside = 0.0;
    for (const double l : loop_s) outside += l;
    for (const double v : all_ms) outside -= v / 1e3;
    r.metrics["harness.unattributed_s"] = outside / kConnections;
    r.metrics["service.queue_ms_p50"] = median(queue_ms);
    r.metrics["service.queue_ms_p99"] = percentile(queue_ms, 0.99);
    r.metrics["service.mesh_ms_p50"] = median(mesh_ms);
    r.metrics["service.transport_ms_p50"] = median(transport_ms);
    r.metrics["service.hit_ms_p50"] = median(hit_ms);
    r.metrics["service.cache_hits"] = static_cast<double>(hits);
    r.metrics["service.cache_misses"] = static_cast<double>(all_ms.size() - hits);
    r.metrics["service.hit_ratio"] =
        static_cast<double>(hits) / static_cast<double>(all_ms.size());
    r.metrics["service.overloaded"] = static_cast<double>(overloaded);
    r.metrics["service.blob_bytes"] = static_cast<double>(blob_bytes);
    const double base = median(plain_ms);
    r.metrics["trace_overhead_pct"] = 100.0 * (median(spanned_ms) - base) / base;
    r.metrics["error_rate"] =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    return r;
  }
  r.samples["job_s"] = cold_ms;
  r.samples["latency_ms"] = all_ms;
  r.metrics["ok"] = static_cast<double>(ok);
  r.metrics["measured_s"] = wall;
  r.samples["peak_rss_mb"] = {rss};
  return r;
}

}  // namespace perfbench
