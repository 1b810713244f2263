// Fault tolerance: the deterministic chaos injector, CRC-32 payload
// framing, the fabric's drop/duplicate/corrupt/delay behavior, work-unit
// retry -> re-queue -> fallback escalation, dead-rank detection, and the
// chaos run's equivalence to a fault-free run.

#include <gtest/gtest.h>

#include <chrono>

#include "core/mesh_generator.hpp"
#include "core/pipeline_config.hpp"  // aerolint: allow(public-api)
#include "core/timer.hpp"  // aerolint: allow(public-api)
#include "runtime/pool.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector: determinism and configuration semantics.

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 0xfeedbeef;
  cfg.drop_rate = 0.10;
  cfg.duplicate_rate = 0.07;
  cfg.corrupt_rate = 0.09;
  cfg.delay_rate = 0.05;
  FaultInjector a(cfg);
  FaultInjector b(cfg);
  for (int i = 0; i < 500; ++i) {
    const FaultInjector::Action x = a.next_action();
    const FaultInjector::Action y = b.next_action();
    EXPECT_EQ(x.drop, y.drop) << "event " << i;
    EXPECT_EQ(x.duplicate, y.duplicate) << "event " << i;
    EXPECT_EQ(x.corrupt, y.corrupt) << "event " << i;
    EXPECT_EQ(x.delay.count(), y.delay.count()) << "event " << i;
    EXPECT_EQ(x.salt, y.salt) << "event " << i;
  }
  EXPECT_EQ(a.dropped(), b.dropped());
  EXPECT_EQ(a.duplicated(), b.duplicated());
  EXPECT_EQ(a.corrupted(), b.corrupted());
  EXPECT_EQ(a.delayed(), b.delayed());
  // At these rates 500 draws must exercise every fault class.
  EXPECT_GT(a.dropped(), 0u);
  EXPECT_GT(a.duplicated(), 0u);
  EXPECT_GT(a.corrupted(), 0u);
  EXPECT_GT(a.delayed(), 0u);
}

TEST(FaultInjector, DisabledIsInert) {
  FaultConfig cfg;  // enabled defaults to false
  cfg.drop_rate = 1.0;
  cfg.duplicate_rate = 1.0;
  cfg.corrupt_rate = 1.0;
  cfg.delay_rate = 1.0;
  cfg.fail_unit_ids = {0, 1, 2};
  cfg.unit_failure_rate = 1.0;
  cfg.dead_ranks = {1, 2};
  FaultInjector inj(cfg);
  for (int i = 0; i < 50; ++i) {
    const FaultInjector::Action a = inj.next_action();
    EXPECT_FALSE(a.drop);
    EXPECT_FALSE(a.duplicate);
    EXPECT_FALSE(a.corrupt);
    EXPECT_EQ(a.delay.count(), 0);
    EXPECT_FALSE(inj.unit_should_fail(static_cast<std::uint64_t>(i)));
    EXPECT_FALSE(inj.rank_dead(i % 4));
  }
  EXPECT_EQ(inj.dropped(), 0u);
  EXPECT_EQ(inj.unit_faults(), 0u);
}

TEST(FaultInjector, RankZeroIsNeverDead) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.dead_ranks = {0, 2};
  FaultInjector inj(cfg);
  EXPECT_FALSE(inj.rank_dead(0));  // the root cannot be configured away
  EXPECT_FALSE(inj.rank_dead(1));
  EXPECT_TRUE(inj.rank_dead(2));
}

TEST(FaultInjector, FailUnitIdsAlwaysThrow) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.fail_unit_ids = {7};
  FaultInjector inj(cfg);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(inj.unit_should_fail(7));   // every attempt, not a rate
    EXPECT_FALSE(inj.unit_should_fail(8));  // rate is zero for the rest
  }
  EXPECT_EQ(inj.unit_faults(), 10u);
}

// ---------------------------------------------------------------------------
// Fabric behavior under forced fault classes (rates pinned to 0 or 1 so the
// outcome is schedule-independent).

TEST(FaultyFabric, DropRateOneDeliversNothing) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.drop_rate = 1.0;
  FaultInjector inj(cfg);
  Communicator comm(2);
  comm.set_fault_injector(&inj);
  comm.send(0, 1, kTagNoWork, {1, 2, 3});
  comm.send(0, 1, kTagNoWork);
  EXPECT_EQ(comm.pending(1), 0u);
  EXPECT_EQ(inj.dropped(), 2u);
}

TEST(FaultyFabric, DuplicateRateOneDeliversTwice) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.duplicate_rate = 1.0;
  FaultInjector inj(cfg);
  Communicator comm(2);
  comm.set_fault_injector(&inj);
  comm.send(0, 1, kTagWorkRequest, {9});
  EXPECT_EQ(comm.pending(1), 2u);
  const Message m1 = comm.recv(1);
  const Message m2 = comm.recv(1);
  EXPECT_EQ(m1.payload, m2.payload);
  EXPECT_EQ(inj.duplicated(), 1u);
}

TEST(FaultyFabric, DelayedMessageStillArrives) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.delay_rate = 1.0;
  cfg.delay = std::chrono::microseconds(2000);
  FaultInjector inj(cfg);
  Communicator comm(2);
  comm.set_fault_injector(&inj);
  comm.send(0, 1, kTagShutdown, {5});
  EXPECT_EQ(comm.pending(1), 1u);  // counted while still in the delay queue
  const Message m = comm.recv(1);  // blocks until due
  EXPECT_EQ(m.tag, kTagShutdown);
  EXPECT_EQ(m.payload[0], 5);
  EXPECT_EQ(inj.delayed(), 1u);
}

TEST(FaultyFabric, CorruptedTransferFailsTheCrc) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.corrupt_rate = 1.0;
  FaultInjector inj(cfg);
  Communicator comm(2);
  comm.set_fault_injector(&inj);
  Subdomain s = make_root_subdomain({{0, 0}, {1, 0}, {0.5, 1}});
  comm.send(0, 1, kTagWorkTransfer, serialize({WorkUnit::Kind::kBlDecompose, s, {}}));
  const Message m = comm.recv(1);
  EXPECT_EQ(inj.corrupted(), 1u);
  EXPECT_THROW(deserialize_work(m.payload), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Wire format: round trips over both unit kinds, CRC detection of every
// single-byte corruption, truncation.

WorkUnit sample_bl_unit(bool finalized) {
  Subdomain s = make_root_subdomain({{0, 0}, {1, 0}, {0.5, 1}, {2, 2}, {3, 1}});
  s.cuts = {{CutAxis::kVertical, 0.75, true},
            {CutAxis::kHorizontal, 1.25, false}};
  s.level = 3;
  if (finalized) s.finalize();
  WorkUnit u{WorkUnit::Kind::kBlDecompose, std::move(s), {}};
  u.id = 0x1122334455667788ull;
  u.failed_ranks = 0b1010;
  return u;
}

WorkUnit sample_inv_unit() {
  InviscidSubdomain s;
  s.border = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  s.corners = {0, 1, 2, 3};
  s.level = 2;
  s.hole_segments = {{{1, 1}, {2, 1}}};
  s.hole_seeds = {{1.5, 1.05}};
  WorkUnit u{WorkUnit::Kind::kInviscidDecouple, {}, std::move(s)};
  u.id = 42;
  u.failed_ranks = 1;
  return u;
}

TEST(WireFormat, Crc32MatchesTheStandardCheckValue) {
  // IEEE 802.3 reflected CRC-32 of "123456789" is the canonical 0xcbf43926.
  // Guards the sliced implementation against self-consistent-but-wrong
  // table mistakes, and pins lengths that exercise the 8-byte fast path,
  // the byte-at-a-time tail, and both together.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xcbf43926u);
  std::vector<std::uint8_t> buf(1027);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  // Byte-at-a-time reference, inline.
  const auto reference = [](const std::uint8_t* d, std::size_t n) {
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= d[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xffffffffu;
  };
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{64},
                              buf.size()}) {
    EXPECT_EQ(crc32(buf.data(), n), reference(buf.data(), n)) << "len " << n;
  }
}

TEST(WireFormat, RoundTripPreservesIdentityAndFailureMask) {
  for (const WorkUnit& u :
       {sample_bl_unit(false), sample_bl_unit(true), sample_inv_unit()}) {
    const WorkUnit back = deserialize_work(serialize(u));
    EXPECT_EQ(back.kind, u.kind);
    EXPECT_EQ(back.id, u.id);
    EXPECT_EQ(back.failed_ranks, u.failed_ranks);
    if (u.kind == WorkUnit::Kind::kBlDecompose) {
      EXPECT_EQ(back.bl.xsorted, u.bl.xsorted);
      EXPECT_EQ(back.bl.level, u.bl.level);
    } else {
      EXPECT_EQ(back.inv.border, u.inv.border);
      EXPECT_EQ(back.inv.hole_seeds, u.inv.hole_seeds);
    }
  }
}

TEST(WireFormat, EverySingleByteCorruptionIsDetected) {
  // CRC-32 detects any burst error shorter than 32 bits, so flipping bits
  // within one byte -- anywhere, including inside the trailer itself -- must
  // raise. Exhaustive over every byte position of both payload families.
  const auto bytes = serialize(sample_bl_unit(false));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0x41;
    EXPECT_THROW(deserialize_work(bad), std::runtime_error) << "byte " << i;
  }
  const std::vector<std::array<Vec2, 3>> tris{
      {{Vec2{0, 0}, Vec2{1, 0}, Vec2{0, 1}}},
      {{Vec2{-2, 3}, Vec2{0.5, 0.5}, Vec2{9, 9}}}};
  const auto tri_bytes = serialize_triangles(tris);
  for (std::size_t i = 0; i < tri_bytes.size(); ++i) {
    auto bad = tri_bytes;
    bad[i] ^= 0x01;
    EXPECT_THROW(deserialize_triangles(bad), std::runtime_error)
        << "byte " << i;
  }
}

TEST(WireFormat, TruncationAlwaysThrows) {
  const auto bytes = serialize(sample_inv_unit());
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, bytes.size() / 2,
        bytes.size() - 1}) {
    auto bad = bytes;
    bad.resize(n);
    EXPECT_THROW(deserialize_work(bad), std::runtime_error) << "len " << n;
  }
  auto tri_bytes = serialize_triangles({{{Vec2{0, 0}, Vec2{1, 0}, Vec2{0, 1}}}});
  tri_bytes.pop_back();
  EXPECT_THROW(deserialize_triangles(tri_bytes), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Pool-level fault tolerance.

TEST(PoolFaults, EmptyInputReturnsImmediately) {
  // Regression: an empty initial set used to leave `outstanding` at zero
  // forever -- no unit ever completed, shutdown was never broadcast, and
  // every thread blocked until the watchdog. Must return at once instead.
  PoolOptions opts;
  opts.nranks = 4;
  GradedSizing sizing;
  MergedMesh out;
  const auto t0 = mono_now();
  const PoolStats stats = run_pool({}, sizing, opts, out);
  const auto elapsed = mono_now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);
  EXPECT_EQ(stats.status, RunStatus::kOk);
  EXPECT_EQ(out.triangle_count(), 0u);
  EXPECT_EQ(stats.steals, 0u);
  ASSERT_EQ(stats.tasks_per_rank.size(), 4u);
  for (const std::size_t n : stats.tasks_per_rank) EXPECT_EQ(n, 0u);
}

/// The initial inviscid work set of a small but real domain (mirrors the
/// sequential pipeline's phase-2 input).
struct ChaosFixture {
  GradedSizing sizing;
  std::vector<WorkUnit> initial;
  PoolOptions opts;

  ChaosFixture() {
    Options cfg;
    cfg.airfoil = make_naca0012(120);
    cfg.growth_kind = GrowthKind::kGeometric;
    cfg.first_height = 8e-4;
    cfg.growth_ratio = 1.3;
    cfg.max_layers = 25;
    cfg.farfield_chords = 6.0;
    cfg.inviscid_target_triangles = 4000.0;
    cfg.bl_min_points = 600;
    cfg.bl_max_level = 8;

    const BoundaryLayer bl = build_boundary_layer(cfg.airfoil, blayer_options(cfg));
    MergedMesh bl_mesh;
    triangulate_boundary_layer(bl, bl_decompose_options(cfg), bl_mesh, nullptr,
                               nullptr);
    const InviscidDomain domain = make_inviscid_domain(bl, cfg, bl_mesh);
    sizing = domain.sizing;
    for (InviscidSubdomain& quad : initial_quadrants(domain)) {
      initial.push_back(
          WorkUnit{WorkUnit::Kind::kInviscidDecouple, {}, std::move(quad)});
    }

    opts.nranks = 4;
    opts.steal_threshold = 1.0;  // every idle rank asks for work
    opts.update_period = std::chrono::microseconds(50);
    opts.inviscid_target_triangles = cfg.inviscid_target_triangles;
    // Generous liveness bounds: this box oversubscribes all nine pool
    // threads onto very few cores, so a healthy communicator can be
    // scheduled away for tens of milliseconds at a time.
    opts.tuning.heartbeat_timeout = std::chrono::milliseconds(1000);
    opts.tuning.watchdog_timeout = std::chrono::seconds(120);
  }
};

TEST(PoolFaults, ChaosRunProducesTheFaultFreeMesh) {
  const ChaosFixture fx;

  // Reference: the same work with the injector disabled.
  MergedMesh clean;
  PoolStats clean_stats;
  {
    auto initial = fx.initial;
    clean_stats = run_pool(std::move(initial), fx.sizing, fx.opts, clean);
  }
  EXPECT_EQ(clean_stats.status, RunStatus::kOk);
  EXPECT_EQ(clean_stats.unit_retries, 0u);
  EXPECT_EQ(clean_stats.unit_failures, 0u);
  EXPECT_EQ(clean_stats.fallback_units, 0u);
  EXPECT_EQ(clean_stats.dropped_messages, 0u);
  EXPECT_EQ(clean_stats.corrupt_payloads, 0u);
  EXPECT_EQ(clean_stats.dead_ranks, 0u);
  EXPECT_GT(clean.triangle_count(), 0u);

  // Chaos: a lossy, corrupting, delaying fabric; one rank dead from the
  // start; one unit that throws on every in-pool attempt (unit 0 is the
  // first initial quadrant -- run_pool numbers the initial units 0..n-1).
  PoolOptions chaos_opts = fx.opts;
  chaos_opts.faults.enabled = true;
  chaos_opts.faults.seed = 2024;
  chaos_opts.faults.drop_rate = 0.08;  // >= 5% message drops
  chaos_opts.faults.duplicate_rate = 0.05;
  chaos_opts.faults.corrupt_rate = 0.05;
  chaos_opts.faults.delay_rate = 0.05;
  chaos_opts.faults.delay = std::chrono::microseconds(200);
  chaos_opts.faults.dead_ranks = {1};
  chaos_opts.faults.fail_unit_ids = {0};
  chaos_opts.max_unit_retries = 2;

  MergedMesh chaotic;
  auto initial = fx.initial;
  const PoolStats stats =
      run_pool(std::move(initial), fx.sizing, chaos_opts, chaotic);

  // Recovery is exactly-once and the fallback meshes escalated units with
  // the same deterministic expansion, so the mesh is bit-for-bit the size
  // of the fault-free one.
  EXPECT_EQ(chaotic.triangle_count(), clean.triangle_count());
  EXPECT_EQ(chaotic.point_count(), clean.point_count());
  EXPECT_EQ(stats.status, RunStatus::kOk);

  // The run actually suffered: messages were dropped, unit 0 threw through
  // its local retries on every live rank and escalated to the fallback, and
  // the dead rank was detected.
  EXPECT_GT(stats.dropped_messages, 0u);
  EXPECT_GT(stats.unit_retries, 0u);
  EXPECT_GT(stats.unit_failures, 0u);
  EXPECT_GE(stats.requeued_units, 1u);
  EXPECT_GE(stats.fallback_units, 1u);
  EXPECT_EQ(stats.dead_ranks, 1u);
  // The re-queue of unit 0 lands on rank 1 before the watchdog has declared
  // it dead, so the reliable channel must retransmit at least once before
  // recovering the unit from the donor's master copy.
  EXPECT_GT(stats.retransmits, 0u);
}

TEST(PoolFaults, ChaosRecoversOnTheCopyPath) {
  // The deep-copy transport stays a first-class citizen behind the A/B
  // flag: the same lossy fabric with --rma=off must recover to the
  // fault-free mesh without ever touching the window.
  const ChaosFixture fx;

  MergedMesh clean;
  {
    auto initial = fx.initial;
    const PoolStats s = run_pool(std::move(initial), fx.sizing, fx.opts, clean);
    EXPECT_EQ(s.status, RunStatus::kOk);
  }

  PoolOptions chaos_opts = fx.opts;
  chaos_opts.tuning.rma = false;
  chaos_opts.faults.enabled = true;
  chaos_opts.faults.seed = 31337;
  chaos_opts.faults.drop_rate = 0.06;
  chaos_opts.faults.duplicate_rate = 0.05;
  chaos_opts.faults.corrupt_rate = 0.05;

  MergedMesh chaotic;
  auto initial = fx.initial;
  const PoolStats stats =
      run_pool(std::move(initial), fx.sizing, chaos_opts, chaotic);

  EXPECT_EQ(stats.status, RunStatus::kOk);
  EXPECT_EQ(chaotic.triangle_count(), clean.triangle_count());
  EXPECT_EQ(chaotic.point_count(), clean.point_count());
  EXPECT_EQ(stats.zero_copy_hits, 0u);
  EXPECT_EQ(stats.window_bytes, 0u);
  EXPECT_GT(stats.dropped_messages, 0u);
}

}  // namespace
}  // namespace aero
