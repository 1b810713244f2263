// Fault-tolerance overhead and chaos-run degradation.
//
// The recovery machinery (CRC-32 framing of every payload, acked work
// transfers with retransmission, heartbeats, the watchdog thread) is always
// on. Two questions:
//   1. What does it cost when nothing fails? Compare pool wall time against
//      the repetitions' spread; the budget is < 2% over a hypothetical
//      unprotected pool, and since the protection cannot be compiled out,
//      the measurable proxy is the CRC + framing share of the wall time
//      (bytes moved x CRC throughput + per-message constant).
//   2. How gracefully does a chaos run degrade? Same work, a lossy fabric,
//      a dead rank, and a poisoned unit -- report wall-time inflation and
//      the recovery counters.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/mesh_generator.hpp"
#include "core/pipeline_config.hpp"  // aerolint: allow(public-api)
#include "core/timer.hpp"
#include "runtime/pool.hpp"

int main() {
  using namespace aero;

  // Raw CRC-32 throughput: the per-byte cost of the framing.
  double crc_gbps = 0.0;
  {
    std::vector<std::uint8_t> buf(1 << 22);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
    }
    std::uint32_t acc = 0;
    Timer t;
    const int reps = 16;
    for (int r = 0; r < reps; ++r) acc ^= crc32(buf.data(), buf.size());
    const double sec = t.seconds();
    volatile std::uint32_t sink = acc;  // keep the loop alive
    (void)sink;
    crc_gbps = static_cast<double>(buf.size()) * reps / sec / 1e9;
    std::printf("crc32 throughput: %.2f GB/s\n", crc_gbps);
  }

  Options cfg;
  cfg.airfoil = make_naca0012(200);
  cfg.growth_kind = GrowthKind::kGeometric;
  cfg.first_height = 5e-4;
  cfg.growth_ratio = 1.25;
  cfg.max_layers = 35;
  cfg.farfield_chords = 10.0;
  cfg.inviscid_target_triangles = 6000.0;
  cfg.bl_min_points = 500;
  cfg.bl_max_level = 10;

  const BoundaryLayer bl = build_boundary_layer(cfg.airfoil, blayer_options(cfg));
  MergedMesh bl_mesh;
  triangulate_boundary_layer(bl, bl_decompose_options(cfg), bl_mesh, nullptr, nullptr);
  const InviscidDomain domain = make_inviscid_domain(bl, cfg, bl_mesh);

  PoolOptions opts;
  opts.nranks = 4;
  opts.steal_threshold = 1.0;
  opts.update_period = std::chrono::microseconds(50);
  opts.inviscid_target_triangles = cfg.inviscid_target_triangles;
  opts.tuning.heartbeat_timeout = std::chrono::milliseconds(1000);

  const auto make_initial = [&] {
    std::vector<WorkUnit> initial;
    for (InviscidSubdomain& quad : initial_quadrants(domain)) {
      initial.push_back(
          WorkUnit{WorkUnit::Kind::kInviscidDecouple, {}, std::move(quad)});
    }
    return initial;
  };

  // Fault-free pool: repeat and take the best (least-disturbed) run.
  const int reps = 5;
  double best = 1e30;
  std::size_t tris = 0, bytes = 0, messages_lower_bound = 0;
  for (int r = 0; r < reps; ++r) {
    MergedMesh out;
    const PoolStats s = run_pool(make_initial(), domain.sizing, opts, out);
    best = std::min(best, s.wall_seconds);
    tris = out.triangle_count();
    bytes = s.transfer_bytes + s.result_bytes;
    messages_lower_bound = s.steals * 2 + s.steal_denials * 2 + opts.nranks;
  }
  // The protection the pool cannot shed: a CRC at each payload end
  // (sender-side compute + receiver-side validation, at the measured
  // throughput) plus a 12-byte nonce frame and an ack message per transfer.
  // Estimate its share of the wall time.
  const double protection_sec =
      static_cast<double>(bytes) * 2.0 / (crc_gbps * 1e9) +
      static_cast<double>(messages_lower_bound) * 2e-6;
  std::printf(
      "fault-free pool: %.3f s best-of-%d, %zu triangles, %zu protocol "
      "bytes\n",
      best, reps, tris, bytes);
  std::printf(
      "protection share estimate: %.4f s (%.2f%% of wall; budget 2%%)\n",
      protection_sec, 100.0 * protection_sec / best);

  // Chaos run: lossy fabric + dead rank + poisoned unit.
  PoolOptions chaos = opts;
  chaos.faults.enabled = true;
  chaos.faults.seed = 7;
  chaos.faults.drop_rate = 0.08;
  chaos.faults.duplicate_rate = 0.05;
  chaos.faults.corrupt_rate = 0.05;
  chaos.faults.delay_rate = 0.05;
  chaos.faults.dead_ranks = {1};
  chaos.faults.fail_unit_ids = {0};

  MergedMesh out;
  const PoolStats s = run_pool(make_initial(), domain.sizing, chaos, out);
  std::printf(
      "chaos pool: %.3f s (%.2fx fault-free), %zu triangles (%s), "
      "status %s\n",
      s.wall_seconds, s.wall_seconds / best, out.triangle_count(),
      out.triangle_count() == tris ? "identical" : "MISMATCH",
      to_string(s.status));
  std::printf(
      "  dropped=%zu duplicated=%zu corrupt=%zu retransmits=%zu "
      "retries=%zu failures=%zu requeued=%zu fallback=%zu dead=%zu "
      "reclaimed=%zu\n",
      s.dropped_messages, s.duplicated_messages, s.corrupt_payloads,
      s.retransmits, s.unit_retries, s.unit_failures, s.requeued_units,
      s.fallback_units, s.dead_ranks, s.reclaimed_units);
  std::printf(
      "  transport: msgs=%zu copied=%zu B zero_copy=%zu (%zu B) "
      "pool_hits=%zu pool_misses=%zu\n",
      s.comm_messages, s.comm_bytes, s.zero_copy_hits, s.window_bytes,
      s.buffer_pool_hits, s.buffer_pool_misses);

  // The same chaos over the copy path: the recovery machinery must deliver
  // the identical mesh on both transports.
  PoolOptions chaos_copy = chaos;
  chaos_copy.tuning.rma = false;
  MergedMesh out_copy;
  const PoolStats sc =
      run_pool(make_initial(), domain.sizing, chaos_copy, out_copy);
  std::printf(
      "chaos pool (rma=off): %.3f s, %zu triangles (%s), copied=%zu B "
      "status %s\n",
      sc.wall_seconds, out_copy.triangle_count(),
      out_copy.triangle_count() == tris ? "identical" : "MISMATCH",
      sc.comm_bytes, to_string(sc.status));
  return 0;
}
