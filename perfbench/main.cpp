// perfbench_harness: runs one leg of a benchmark workload and prints one
// JSON line of raw results. run.py runs the legs of a run one after another,
// each in a fresh process, and pools their samples.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --leg I --legs P --daemon PATH
//
// A leg sets up, then measures its 1/P share of the run: S/P seconds of
// mesh jobs, or its share of the service-mix request plan.
//
// Outputs (mesh files, the daemon's socket, log and metrics) go to the
// working directory, which run.py makes private to one run.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "mesh.hpp"
#include "service.hpp"

int main(int argc, char** argv) {
  std::string workload;
  std::string daemon;
  unsigned long long seed = 0;
  double seconds = 10.0;
  bool traced = false;
  int leg = 0;
  int legs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      traced = std::string(argv[++i]) == "1";
    } else if (arg == "--leg" && has_value) {
      leg = std::atoi(argv[++i]);
    } else if (arg == "--legs" && has_value) {
      legs = std::atoi(argv[++i]);
    } else if (arg == "--daemon" && has_value) {
      daemon = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench_harness: bad argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (legs < 1 || leg < 0 || leg >= legs || !(seconds > 0.0)) {
    std::fprintf(stderr, "perfbench_harness: bad --leg/--legs/--seconds\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);  // a dead daemon surfaces as a failed request
  try {
    perfbench::Result r;
    if (perfbench::is_mesh_workload(workload)) {
      r = perfbench::run_mesh(workload, seconds / legs, traced);
    } else if (workload == "service-mix" && !daemon.empty()) {
      r = perfbench::run_service(seed, seconds, leg, legs, traced, daemon);
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                   workload.c_str());
      return 2;
    }
    perfbench::print_result(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
