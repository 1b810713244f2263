#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

/// Runs leg `leg` of `legs` of service-mix: a fresh aeromeshd (the binary
/// at `daemon`, with its socket, log and metrics in the working directory)
/// serves that leg's share of the plan drawn from `seed` for a run of
/// `seconds`.
Result run_service(std::uint64_t seed, double seconds, int leg, int legs,
                   bool traced, const std::string& daemon);

}  // namespace perfbench
