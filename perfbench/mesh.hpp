#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// True for highlift-seq, highlift-pool2 and bl-dense.
bool is_mesh_workload(const std::string& name);

/// Runs one mesh workload in this process: set-up, then jobs for `seconds`
/// (untraced, or alternating untraced/traced when `traced`). The mesh is
/// written to the working directory.
Result run_mesh(const std::string& name, double seconds, bool traced);

}  // namespace perfbench
