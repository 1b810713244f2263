// aeromeshd: the meshing-as-a-service daemon. Listens on an AF_UNIX stream
// socket, decodes CRC-framed MeshRequests, multiplexes them through one
// in-process MeshServer (bounded admission, priority dispatch, result
// cache), and streams typed MeshResponses back. One connection is one
// session; a session's requests are answered in order, and concurrent
// tenants simply open concurrent connections.
//
// Shutdown: SIGINT/SIGTERM, or a kShutdown control frame from any client
// (what `aeromesh-client --shutdown` sends). Either way the daemon stops
// accepting, answers queued requests with kShutdown, finishes in-flight
// meshes, and exits 0.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "obs/annotations.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "service/channel.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"

namespace {

std::atomic<bool> g_stop AERO_ATOMIC_ROLE(flag){false};
std::atomic<int> g_listen_fd AERO_ATOMIC_ROLE(published){-1};
std::atomic<int> g_signals AERO_ATOMIC_ROLE(counter){0};

void handle_stop_signal(int) {
  if (g_signals.fetch_add(1) >= 1) std::_Exit(130);  // second signal: now
  g_stop.store(true);
  // Unblock the accept loop; shutdown() is async-signal-safe.
  const int fd = g_listen_fd.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void request_shutdown() {
  g_stop.store(true);
  const int fd = g_listen_fd.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

struct Flag {
  const char* flag;
  const char* value_name;
  const char* help;
};

constexpr Flag kFlags[] = {
    {"--socket", "PATH",
     "unix socket to listen on (default /tmp/aeromeshd.sock)"},
    {"--workers", "N", "concurrent dispatch workers (default 2)"},
    {"--queue-capacity", "N",
     "admission queue bound; beyond it requests are rejected kOverloaded "
     "(default 16)"},
    {"--cache-mb", "N", "result cache budget in MiB, 0 disables (default 256)"},
    {"--hold-ms", "N",
     "debug: hold each request N ms after dequeue, before meshing (makes "
     "queue occupancy deterministic for tests; default 0)"},
    {"--metrics", "FILE", "write metrics.json on exit"},
    {"--help", nullptr, "print this table and exit"},
};

[[noreturn]] void usage(const char* argv0, bool requested) {
  FILE* out = requested ? stdout : stderr;
  std::fprintf(out, "usage: %s [options]\n\noptions:\n", argv0);
  for (const Flag& f : kFlags) {
    char head[64];
    std::snprintf(head, sizeof(head), "%s %s", f.flag,
                  f.value_name != nullptr ? f.value_name : "");
    std::fprintf(out, "  %-24s %s\n", head, f.help);
  }
  std::exit(requested ? 0 : 2);
}

/// One connection's read-decode-submit-respond loop. Runs until the peer
/// hangs up, sends garbage the framing rejects, or asks for shutdown.
void serve_session(int fd, aero::MeshServer& server) {
  for (;;) {
    aero::FrameKind kind{};
    std::vector<std::uint8_t> payload;
    if (!read_frame(fd, &kind, &payload)) break;
    if (kind == aero::FrameKind::kShutdown) {
      std::printf("aeromeshd: shutdown requested by client\n");
      request_shutdown();
      break;
    }
    if (kind != aero::FrameKind::kRequest) break;

    aero::MeshResponse resp;
    aero::MeshRequest req;
    if (!decode_request(payload, &req)) {
      resp.status = aero::ServiceStatus::kMalformed;
      resp.error = "request bytes failed the CRC/format checks";
      aero::obs::MetricsRegistry::global()
          .counter("service.malformed")
          .add();
    } else {
      resp = server.submit_wait(std::move(req));
    }
    if (!write_frame(fd, aero::FrameKind::kResponse,
                     encode_response(resp))) {
      break;
    }
  }
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/aeromeshd.sock";
  std::string metrics_path;
  aero::ServerConfig config;
  long hold_ms = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (arg != flag) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        usage(argv[0], false);
      }
      return argv[++i];
    };
    if (arg == "--help") usage(argv[0], true);
    if (const char* v = value("--socket")) {
      socket_path = v;
    } else if (const char* v = value("--workers")) {
      config.workers = std::atoi(v);
    } else if (const char* v = value("--queue-capacity")) {
      config.queue_capacity = static_cast<std::size_t>(std::atol(v));
    } else if (const char* v = value("--cache-mb")) {
      config.cache_bytes = static_cast<std::size_t>(std::atol(v)) << 20;
    } else if (const char* v = value("--hold-ms")) {
      hold_ms = std::atol(v);
    } else if (const char* v = value("--metrics")) {
      metrics_path = v;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      usage(argv[0], false);
    }
  }
  if (hold_ms > 0) {
    config.before_mesh = [hold_ms](const aero::MeshRequest&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
    };
  }

  std::string error;
  const int listen_fd = aero::listen_unix(socket_path, &error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  g_listen_fd.store(listen_fd);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);  // a gone client is that session's problem

  aero::MeshServer server(config);
  std::printf(
      "aeromeshd: listening on %s (workers=%d queue=%zu cache=%zu MiB)\n",
      socket_path.c_str(), config.workers, config.queue_capacity,
      config.cache_bytes >> 20);
  std::fflush(stdout);

  std::vector<std::thread> sessions;
  while (!g_stop.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (signal or kShutdown frame)
    }
    sessions.emplace_back([fd, &server] { serve_session(fd, server); });
  }

  // Drain: any session blocked reading a socket keeps its client until the
  // response round-trip finishes; the server answers its queue first.
  server.stop();
  for (std::thread& s : sessions) {
    if (s.joinable()) s.join();
  }
  ::close(listen_fd);
  ::unlink(socket_path.c_str());

  const aero::ServerStats stats = server.stats();
  const aero::ResultCache::Stats cache = server.cache_stats();
  std::printf(
      "aeromeshd: exiting (submitted=%zu ok=%zu cache_hits=%zu "
      "overloaded=%zu invalid=%zu failed=%zu shutdown=%zu)\n",
      stats.submitted, stats.ok, stats.cache_hits, stats.rejected_overload,
      stats.invalid, stats.failed, stats.shutdown_rejects);
  std::printf("aeromeshd: cache entries=%zu bytes=%zu hits=%zu evictions=%zu\n",
              cache.entries, cache.bytes, cache.hits, cache.evictions);
  if (!metrics_path.empty()) {
    if (aero::obs::write_metrics_json(aero::obs::MetricsRegistry::global(), {},
                                      metrics_path)) {
      std::printf("wrote %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write metrics to %s\n",
                   metrics_path.c_str());
    }
  }
  return 0;
}
