#pragma once

// Shared pieces of the benchmark harness: the clock, sample statistics, the
// in-memory span recorder, and the one-line JSON result the entry script
// (run.py) reads.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0,1]): the smallest sample with at least
/// p of the samples at or below it.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size()))), 1,
      v.size());
  return v[rank - 1];
}

/// VmHWM (peak resident set) of a process, in MiB; pid 0 = this process.
inline double peak_rss_mib(long pid = 0) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      f >> kb;
      return kb / 1024.0;
    }
    f.ignore(1 << 12, '\n');
  }
  return 0.0;
}

/// Restarts this process's VmHWM from its current RSS, so the next read of
/// peak_rss_mib() gives the peak of what ran in between. False when the
/// kernel refuses.
inline bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// One span: a timed call into a layer, with the span that caused it.
struct Span {
  const char* name;
  int parent;  ///< index of the parent span, -1 for a root
  Clock::time_point start;
  Clock::time_point end;
};

/// Spans stay in memory for the whole run; only aggregates leave the
/// process. Child spans must lie inside their parent.
class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(4096); }

  int open(const char* name, int parent) {
    spans_.push_back(Span{name, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

  /// Runs `fn` inside a span named `name` under `parent`.
  template <typename Fn>
  decltype(auto) time(const char* name, int parent, Fn&& fn) {
    struct Closer {
      SpanRecorder* r;
      int id;
      ~Closer() { r->close(id); }
    } closer{this, open(name, parent)};
    return fn();
  }

  double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return seconds_between(s.start, s.end);
  }

  /// Summed duration of the direct children of `parent`, by name.
  std::map<std::string, double> child_totals(int parent) const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      if (s.parent == parent) out[s.name] += seconds_between(s.start, s.end);
    }
    return out;
  }

  /// Longest direct child of `parent` named `name`.
  double child_max(int parent, const std::string& name) const {
    double m = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == parent && name == s.name) {
        m = std::max(m, seconds_between(s.start, s.end));
      }
    }
    return m;
  }

  /// Self time of span `id`: its duration minus the time its direct
  /// children cover (children never overlap: they run on one thread).
  double self_time(int id) const {
    double covered = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == id) covered += seconds_between(s.start, s.end);
    }
    return duration(id) - covered;
  }

 private:
  std::vector<Span> spans_;
};

/// Result line for run.py: named numbers, raw samples (which run.py pools
/// over the legs of a run), and the operation tallies.
struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;

  void fail(const std::string& why) {
    ++failed;
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
};

/// JSON has no NaN or infinity; null makes run.py's format check reject it.
inline void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

inline void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  const char* sep = "";
  for (const auto& [name, value] : r.metrics) {
    std::printf("%s\"%s\": ", sep, name.c_str());
    print_number(value);
    sep = ", ";
  }
  std::printf("}, \"samples\": {");
  sep = "";
  for (const auto& [name, values] : r.samples) {
    std::printf("%s\"%s\": [", sep, name.c_str());
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) std::printf(", ");
      print_number(values[i]);
    }
    std::printf("]");
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
