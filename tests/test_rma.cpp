// Zero-copy transport: ByteBuf inline storage, the size-classed BufferPool,
// the transfer-frame codec (with exhaustive and randomized corruption
// fuzzing), PayloadWindow ownership-handoff semantics, and the pool-level
// A/B guarantee that the RMA and full-copy paths produce bit-identical
// meshes.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "check/audit.hpp"  // aerolint: allow(public-api)
#include "core/mesh_generator.hpp"
#include "core/pipeline_config.hpp"  // aerolint: allow(public-api)
#include "runtime/parallel_driver.hpp"
#include "runtime/pool.hpp"  // aerolint: allow(public-api)
#include "runtime/rma.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

// ---------------------------------------------------------------------------
// ByteBuf: inline small-buffer storage.

TEST(ByteBuf, SmallPayloadsStayInline) {
  std::vector<std::uint8_t> v(ByteBuf::kInlineCapacity, 0xab);
  ByteBuf b(std::move(v));
  EXPECT_TRUE(b.inline_storage());
  EXPECT_EQ(b.size(), ByteBuf::kInlineCapacity);
  for (const std::uint8_t x : b) EXPECT_EQ(x, 0xab);
}

TEST(ByteBuf, LargeVectorsAreAdoptedWithoutCopy) {
  std::vector<std::uint8_t> v(ByteBuf::kInlineCapacity + 1, 0xcd);
  const std::uint8_t* original = v.data();
  ByteBuf b(std::move(v));
  EXPECT_FALSE(b.inline_storage());
  EXPECT_EQ(b.data(), original);  // zero copy: same heap block
  EXPECT_EQ(b.size(), ByteBuf::kInlineCapacity + 1);
}

TEST(ByteBuf, MoveEmptiesTheSource) {
  ByteBuf a{1, 2, 3};
  ByteBuf b(std::move(a));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  ByteBuf c;
  c = std::move(b);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c[0], 1);
  EXPECT_EQ(c[2], 3);
}

TEST(ByteBuf, EqualityComparesBytes) {
  EXPECT_EQ(ByteBuf({1, 2, 3}), ByteBuf({1, 2, 3}));
  EXPECT_NE(ByteBuf({1, 2, 3}), ByteBuf({1, 2, 4}));
  EXPECT_NE(ByteBuf({1, 2, 3}), ByteBuf({1, 2}));
  EXPECT_EQ(ByteBuf(), ByteBuf());
}

TEST(ByteBuf, ReleaseReturnsTheBytesAndEmpties) {
  std::vector<std::uint8_t> big(100, 7);
  const std::uint8_t* original = big.data();
  ByteBuf b(std::move(big));
  std::vector<std::uint8_t> out = b.release();
  EXPECT_EQ(out.data(), original);  // heap payload moves out unchanged
  EXPECT_EQ(out.size(), 100u);
  EXPECT_TRUE(b.empty());
  ByteBuf small{9, 8};
  EXPECT_EQ(small.release(), (std::vector<std::uint8_t>{9, 8}));
}

// ---------------------------------------------------------------------------
// BufferPool: recycling and size classes.

TEST(BufferPool, RecyclesWithinAClass) {
  BufferPool pool;
  auto a = pool.acquire(2000);
  EXPECT_GE(a.capacity(), 2000u);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(pool.misses(), 1u);
  const std::uint8_t* block = a.data();
  a.resize(1999, 1);
  pool.release(std::move(a));
  auto b = pool.acquire(1500);  // same 2 KiB class
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(b.data(), block);  // literally the same allocation
  EXPECT_TRUE(b.empty());      // recycled buffers come back cleared
}

TEST(BufferPool, TinyAndHugeBuffersAreNotPooled) {
  BufferPool pool;
  pool.release(std::vector<std::uint8_t>(16));  // below the 1 KiB floor
  auto a = pool.acquire(16);
  EXPECT_EQ(pool.hits(), 0u);
  pool.release(std::move(a));
}

TEST(BufferPool, FreeListDepthIsBounded) {
  BufferPool pool;
  for (int i = 0; i < 20; ++i) {
    pool.release(std::vector<std::uint8_t>(4096));
  }
  std::size_t hits = 0;
  for (int i = 0; i < 20; ++i) {
    pool.acquire(4096);
    hits = pool.hits();
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LE(hits, 8u);  // kMaxFreePerClass
}

// ---------------------------------------------------------------------------
// Transfer frames.

TEST(RmaFrames, InlineFrameRoundTrip) {
  std::vector<std::uint8_t> payload{10, 20, 30, 40, 50};
  std::vector<std::uint8_t> framed(kInlineFrameHeader, 0);
  framed.insert(framed.end(), payload.begin(), payload.end());
  seal_inline_frame(0xdeadbeef12345678ull, framed);
  const ByteBuf wire(std::move(framed));  // parsed->data aliases this
  const auto parsed = parse_frame(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->windowed);
  EXPECT_EQ(parsed->nonce, 0xdeadbeef12345678ull);
  ASSERT_EQ(parsed->size, payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), parsed->data));
}

TEST(RmaFrames, WindowFrameRoundTrip) {
  const ByteBuf f = make_window_frame(0x1122334455667788ull, 3, 41,
                                      987654321ull, 0xfeedfacecafebeefull);
  EXPECT_EQ(f.size(), kWindowFrameSize);
  EXPECT_TRUE(f.inline_storage());  // control frames never heap-allocate
  const auto parsed = parse_frame(f);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->windowed);
  EXPECT_EQ(parsed->nonce, 0x1122334455667788ull);
  EXPECT_EQ(parsed->src, 3);
  EXPECT_EQ(parsed->slot, 41u);
  EXPECT_EQ(parsed->length, 987654321ull);
  EXPECT_EQ(parsed->digest, 0xfeedfacecafebeefull);
}

TEST(RmaFrames, EveryWindowFrameByteCorruptionIsRejected) {
  const ByteBuf good = make_window_frame(7, 1, 2, 3000, 0xabcdef);
  for (std::size_t i = 0; i < kWindowFrameSize; ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
      ByteBuf bad = good;
      bad[i] ^= flip;
      EXPECT_FALSE(parse_frame(bad).has_value())
          << "byte " << i << " flip " << int(flip);
    }
  }
}

TEST(RmaFrames, InlineHeaderCorruptionIsRejected) {
  std::vector<std::uint8_t> framed(kInlineFrameHeader + 8, 0x5a);
  seal_inline_frame(42, framed);
  const ByteBuf good(std::move(framed));
  for (std::size_t i = 0; i < kInlineFrameHeader; ++i) {
    ByteBuf bad = good;
    bad[i] ^= 0x10;
    EXPECT_FALSE(parse_frame(bad).has_value()) << "byte " << i;
  }
}

TEST(RmaFrames, TruncationIsRejected) {
  const ByteBuf w = make_window_frame(9, 0, 1, 64, 0);
  for (std::size_t n = 0; n < kWindowFrameSize; ++n) {
    EXPECT_FALSE(parse_frame(ByteBuf(w.data(), n)).has_value()) << n;
  }
  EXPECT_FALSE(parse_frame(ByteBuf()).has_value());
}

TEST(RmaFrames, AckRoundTripAndCorruption) {
  const ByteBuf ack = make_ack(0x0123456789abcdefull);
  EXPECT_EQ(parse_ack(ack), 0x0123456789abcdefull);
  for (std::size_t i = 0; i < ack.size(); ++i) {
    ByteBuf bad = ack;
    bad[i] ^= 0x04;
    EXPECT_FALSE(parse_ack(bad).has_value()) << "byte " << i;
  }
  EXPECT_FALSE(parse_ack(ByteBuf(ack.data(), ack.size() - 1)).has_value());
}

TEST(RmaFrames, DigestIsLengthAndContentSensitive) {
  std::vector<std::uint8_t> a(5000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(i * 37);
  }
  const std::uint64_t d = payload_digest(a.data(), a.size());
  EXPECT_EQ(payload_digest(a.data(), a.size()), d);  // deterministic
  EXPECT_NE(payload_digest(a.data(), a.size() - 1), d);
  auto b = a;
  b[0] ^= 0xff;  // byte 0 is always sampled
  EXPECT_NE(payload_digest(b.data(), b.size()), d);
  EXPECT_NE(payload_digest(nullptr, 0), d);
}

// ---------------------------------------------------------------------------
// PayloadWindow ownership handoff.

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 13);
  return v;
}

TEST(PayloadWindow, TakeIsExactlyOnce) {
  PayloadWindow w;
  const auto bytes = pattern_bytes(300);
  const std::uint32_t slot = w.publish(11, bytes);
  EXPECT_EQ(w.live(), 1u);
  auto got = w.take(slot, 11);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes);
  EXPECT_FALSE(w.take(slot, 11).has_value());  // the duplicate finds nothing
  EXPECT_EQ(w.published(), 1u);
  EXPECT_EQ(w.taken(), 1u);
}

TEST(PayloadWindow, NonceMismatchDoesNotConsume) {
  PayloadWindow w;
  const std::uint32_t slot = w.publish(5, pattern_bytes(64));
  EXPECT_FALSE(w.take(slot, 6).has_value());       // stale/forged frame
  EXPECT_FALSE(w.take(slot + 9, 5).has_value());   // wrong slot
  EXPECT_TRUE(w.take(slot, 5).has_value());        // intact retry succeeds
}

TEST(PayloadWindow, VerifiedTakeRejectsWithoutConsuming) {
  PayloadWindow w;
  const auto bytes = pattern_bytes(2048);
  const std::uint64_t digest = payload_digest(bytes.data(), bytes.size());
  const std::uint32_t slot = w.publish(21, bytes);
  // A body-damaged control frame (wrong length or digest) must leave the
  // slot live so the sender's retransmission can still succeed.
  EXPECT_FALSE(w.take(slot, 21, bytes.size() - 1, digest).has_value());
  EXPECT_FALSE(w.take(slot, 21, bytes.size(), digest ^ 1).has_value());
  EXPECT_EQ(w.live(), 1u);
  auto got = w.take(slot, 21, bytes.size(), digest);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes);
}

TEST(PayloadWindow, ReleaseRecyclesUntakenBytes) {
  BufferPool pool;
  PayloadWindow w(&pool);
  const std::uint32_t slot = w.publish(1, pattern_bytes(4096));
  w.release(slot, 1);  // ack arrived for a duplicate; bytes never taken
  EXPECT_EQ(w.live(), 0u);
  pool.acquire(4096);
  EXPECT_EQ(pool.hits(), 1u);  // the released payload came back
  // Releasing a taken slot must NOT recycle (the receiver owns the bytes).
  const std::uint32_t slot2 = w.publish(2, pattern_bytes(4096));
  auto got = w.take(slot2, 2);
  w.release(slot2, 2);
  pool.acquire(4096);
  EXPECT_EQ(pool.hits(), 1u);  // no second hit
  EXPECT_EQ(got->size(), 4096u);
}

TEST(PayloadWindow, ReclaimReturnsBytesOnlyIfUntaken) {
  PayloadWindow w;
  const auto bytes = pattern_bytes(128);
  const std::uint32_t s1 = w.publish(1, bytes);
  auto back = w.reclaim(s1, 1);  // dest died before taking
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
  const std::uint32_t s2 = w.publish(2, bytes);
  w.take(s2, 2);
  EXPECT_FALSE(w.reclaim(s2, 2).has_value());  // dest took it, then died
  EXPECT_EQ(w.live(), 0u);
}

// ---------------------------------------------------------------------------
// Work-unit encode/decode fuzz: empty, huge, and adversarial inputs, and the
// inline-frame path must be bit-identical to the bare serializer.

WorkUnit fuzz_unit(std::mt19937& rng, std::size_t npoints) {
  std::uniform_real_distribution<double> coord(-100.0, 100.0);
  std::vector<Vec2> pts;
  pts.reserve(npoints);
  for (std::size_t i = 0; i < npoints; ++i) {
    pts.push_back({coord(rng), coord(rng)});
  }
  WorkUnit u{WorkUnit::Kind::kBlDecompose, make_root_subdomain(pts), {}};
  u.id = rng();
  u.failed_ranks = rng();
  return u;
}

TEST(WorkFuzz, EmptyTriangleSoupRoundTrips) {
  const auto bytes = serialize_triangles({});
  EXPECT_EQ(bytes.size(), serialized_triangles_size(0));
  EXPECT_TRUE(deserialize_triangles(bytes).empty());
}

TEST(WorkFuzz, SerializedSizeIsExact) {
  std::mt19937 rng(123);
  for (const std::size_t n : {std::size_t{3}, std::size_t{100},
                              std::size_t{5000}}) {
    const WorkUnit u = fuzz_unit(rng, n);
    EXPECT_EQ(serialize(u).size(), serialized_size(u)) << n << " points";
  }
  const std::vector<std::array<Vec2, 3>> tris(
      257, {Vec2{0, 0}, Vec2{1, 0}, Vec2{0, 1}});
  EXPECT_EQ(serialize_triangles(tris).size(),
            serialized_triangles_size(tris.size()));
}

TEST(WorkFuzz, HugeUnitSurvivesTheWindowPath) {
  // A unit big enough that no inline path would ever carry it: publish,
  // verified-take, deserialize; the result must equal the direct round trip.
  std::mt19937 rng(99);
  const WorkUnit u = fuzz_unit(rng, 60000);
  auto bytes = serialize(u);
  ASSERT_GT(bytes.size(), std::size_t{1} << 20);
  const std::uint64_t digest = payload_digest(bytes.data(), bytes.size());
  const std::uint64_t len = bytes.size();
  PayloadWindow w;
  const std::uint32_t slot = w.publish(1, std::move(bytes));
  auto taken = w.take(slot, 1, len, digest);
  ASSERT_TRUE(taken.has_value());
  const WorkUnit back = deserialize_work(taken->data(), taken->size());
  EXPECT_EQ(back.id, u.id);
  EXPECT_EQ(back.bl.xsorted, u.bl.xsorted);
}

TEST(WorkFuzz, InlineFramePayloadIsBitIdenticalToBareSerialization) {
  std::mt19937 rng(7);
  BufferPool pool;
  for (int trial = 0; trial < 10; ++trial) {
    const WorkUnit u = fuzz_unit(rng, 3 + rng() % 200);
    const auto bare = serialize(u);
    auto framed = serialize(u, &pool, kInlineFrameHeader);
    seal_inline_frame(42 + trial, framed);
    const ByteBuf wire(std::move(framed));  // parsed->data aliases this
    const auto parsed = parse_frame(wire);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->size, bare.size());
    EXPECT_TRUE(std::equal(bare.begin(), bare.end(), parsed->data));
    pool.release(serialize(u, &pool));  // keep the pool cycling
  }
}

TEST(WorkFuzz, RandomBitFlipsAndTruncationsAreRejected) {
  std::mt19937 rng(0x5eed);
  for (int trial = 0; trial < 40; ++trial) {
    const WorkUnit u = fuzz_unit(rng, 3 + rng() % 500);
    const auto bytes = serialize(u);
    {
      auto bad = bytes;
      const std::size_t i = rng() % bad.size();
      bad[i] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      EXPECT_THROW(deserialize_work(bad), std::runtime_error);
    }
    {
      auto bad = bytes;
      bad.resize(rng() % bytes.size());
      EXPECT_THROW(deserialize_work(bad), std::runtime_error);
    }
  }
}

// ---------------------------------------------------------------------------
// Pool-level A/B: the RMA window path and the full-copy path must produce
// bit-identical meshes, with the window path moving far fewer fabric bytes.

struct AbFixture {
  GradedSizing sizing;
  std::vector<WorkUnit> initial;
  PoolOptions opts;

  AbFixture() {
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
    opts.steal_threshold = 1.0;
    opts.update_period = std::chrono::microseconds(50);
    opts.inviscid_target_triangles = cfg.inviscid_target_triangles;
    opts.tuning.heartbeat_timeout = std::chrono::milliseconds(1000);
    opts.tuning.watchdog_timeout = std::chrono::seconds(120);
  }

  PoolStats run(const PoolTuning& tuning, MergedMesh& out,
                ProtocolTrace* trace = nullptr) const {
    PoolOptions o = opts;
    o.tuning = tuning;
    o.trace = trace;
    auto units = initial;
    return run_pool(std::move(units), sizing, o, out);
  }
};

TEST(PoolAb, RmaAndCopyPathsProduceBitIdenticalMeshes) {
  const AbFixture fx;
  PoolTuning rma_on;  // defaults: rma = true
  PoolTuning rma_off;
  rma_off.rma = false;

  MergedMesh mesh_on;
  MergedMesh mesh_off;
  const PoolStats on = fx.run(rma_on, mesh_on);
  const PoolStats off = fx.run(rma_off, mesh_off);
  EXPECT_EQ(on.status, RunStatus::kOk);
  EXPECT_EQ(off.status, RunStatus::kOk);

  // The transport must never change what gets computed: identical triangle
  // and welded point counts (the pool's determinism contract).
  EXPECT_EQ(mesh_on.triangle_count(), mesh_off.triangle_count());
  EXPECT_EQ(mesh_on.point_count(), mesh_off.point_count());

  // The window path actually engaged and the copy path never did.
  EXPECT_GT(on.zero_copy_hits, 0u);
  EXPECT_GT(on.window_bytes, 0u);
  EXPECT_EQ(off.zero_copy_hits, 0u);
  EXPECT_EQ(off.window_bytes, 0u);

  // Physical mailbox traffic collapses: with payloads moving by window
  // handoff, copied fabric bytes drop by at least half (the acceptance
  // bar), even though the logical payload volume is comparable.
  EXPECT_GT(on.result_bytes, 0u);
  EXPECT_GT(off.result_bytes, 0u);
  EXPECT_LT(on.comm_bytes * 2, off.comm_bytes);
  EXPECT_GT(on.buffer_pool_misses, 0u);  // serializers draw from the pool
}

TEST(PoolAb, RmaChaosRunPassesTheProtocolAudit) {
  const AbFixture fx;
  PoolOptions o = fx.opts;
  o.faults.enabled = true;
  o.faults.seed = 4242;
  o.faults.drop_rate = 0.06;
  o.faults.duplicate_rate = 0.05;
  o.faults.corrupt_rate = 0.05;
  o.faults.delay_rate = 0.04;
  o.faults.delay = std::chrono::microseconds(200);
  ProtocolTrace trace;
  o.trace = &trace;
  MergedMesh mesh;
  auto units = fx.initial;
  const PoolStats stats = run_pool(std::move(units), fx.sizing, o, mesh);
  EXPECT_EQ(stats.status, RunStatus::kOk);
  EXPECT_GT(stats.zero_copy_hits, 0u);  // chaos ran over the window path

  // Exactly-once window handoff under drops, duplicates, and corruption:
  // publish-once, take-once, take-before-accept, and every dispatch
  // resolved.
  const AuditReport report =
      audit_protocol(trace, stats.status == RunStatus::kFailed);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace aero
