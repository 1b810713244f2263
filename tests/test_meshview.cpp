// MeshView read facade over the SoA mesh core: the versioned "AMSH" blob
// (golden bytes, round-trip, typed rejection), chunk-boundary growth of the
// backing arenas, the 32-bit capacity ceiling, and the out-of-core spill
// merge's identity with the in-RAM merge under a bounded resident budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "airfoil/geometry.hpp"
#include "core/merged_mesh.hpp"
#include "core/mesh_view.hpp"
#include "delaunay/chunked.hpp"  // aerolint: allow(public-api) // aerolint: allow(mesh-internal-access)
#include "runtime/parallel_driver.hpp"

namespace aero {
namespace {

MergedMesh two_triangle_mesh() {
  MergedMesh m;
  m.add_triangle({0, 0}, {1, 0}, {0, 1});
  m.add_triangle({1, 0}, {1, 1}, {0, 1});
  return m;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

TEST(MeshBlob, GoldenBytes) {
  // The serialized form is a wire/disk contract (service cache, checkpoint
  // journal); pin its exact layout, not just its round-trip behavior.
  const MergedMesh m = two_triangle_mesh();
  const std::vector<std::uint8_t> blob = MeshView(m).serialize();
  ASSERT_EQ(blob.size(),
            kMeshBlobHeaderSize + 4 * sizeof(Vec2) +
                2 * 3 * sizeof(std::uint32_t));
  EXPECT_EQ(blob[0], 'A');
  EXPECT_EQ(blob[1], 'M');
  EXPECT_EQ(blob[2], 'S');
  EXPECT_EQ(blob[3], 'H');
  std::uint32_t version;
  std::memcpy(&version, blob.data() + 4, 4);
  EXPECT_EQ(version, kMeshBlobVersion);
  EXPECT_EQ(get_u64(blob.data() + 8), 4u);   // welded points
  EXPECT_EQ(get_u64(blob.data() + 16), 2u);  // live triangles
  // Points in interned-id order: (0,0) (1,0) (0,1) (1,1).
  const double expect_coords[8] = {0, 0, 1, 0, 0, 1, 1, 1};
  double coords[8];
  std::memcpy(coords, blob.data() + kMeshBlobHeaderSize, sizeof(coords));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(coords[i], expect_coords[i]);
  // Connectivity by interned id: {0,1,2} then {1,3,2}.
  const std::uint32_t expect_ids[6] = {0, 1, 2, 1, 3, 2};
  std::uint32_t ids[6];
  std::memcpy(ids, blob.data() + kMeshBlobHeaderSize + sizeof(expect_coords),
              sizeof(ids));
  for (int i = 0; i < 6; ++i) EXPECT_EQ(ids[i], expect_ids[i]);
}

TEST(MeshBlob, RoundTripThroughOwningView) {
  MergedMesh m = two_triangle_mesh();
  m.add_triangle({1, 1}, {2, 1}, {1, 2});
  m.kill(1);  // dead records are dropped from the blob
  const std::vector<std::uint8_t> blob = MeshView(m).serialize();

  MeshView back;
  ASSERT_EQ(MeshView::parse(blob, back), MeshBlobStatus::kOk);
  EXPECT_EQ(back.point_count(), m.point_count());
  EXPECT_EQ(back.triangle_count(), m.triangle_count());
  // The owning view re-serializes to the same bytes: serialization is a
  // fixed point, which is what lets the service cache store blobs produced
  // by either kind of view interchangeably.
  EXPECT_EQ(back.serialize(), blob);
}

TEST(MeshBlob, TypedRejection) {
  const std::vector<std::uint8_t> blob = MeshView(two_triangle_mesh()).serialize();

  EXPECT_EQ(mesh_blob_status(blob.data(), 7), MeshBlobStatus::kTruncated);

  std::vector<std::uint8_t> bad = blob;
  bad[0] = 'X';
  EXPECT_EQ(mesh_blob_status(bad), MeshBlobStatus::kBadMagic);

  bad = blob;
  bad[4] = 0xee;  // future layout version
  EXPECT_EQ(mesh_blob_status(bad), MeshBlobStatus::kBadVersion);

  bad = blob;
  bad.pop_back();  // counts no longer match the payload size
  EXPECT_EQ(mesh_blob_status(bad), MeshBlobStatus::kCountMismatch);

  MeshView out;
  EXPECT_EQ(MeshView::parse(bad, out), MeshBlobStatus::kCountMismatch);
  EXPECT_EQ(out.point_count(), 0u);
  EXPECT_EQ(out.triangle_count(), 0u);
}

TEST(ChunkedStorage, GrowthCrossesChunkBoundaryWithoutRelocation) {
  // Small chunks (2^2 = 4 elements) so the test exercises many boundaries.
  ChunkedArray<int, 2> a;  // aerolint: allow(mesh-internal-access)
  std::vector<const int*> addrs;
  for (int i = 0; i < 25; ++i) {
    a.push_back(i);
    addrs.push_back(&a[static_cast<std::size_t>(i)]);
  }
  ASSERT_EQ(a.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(a[static_cast<std::size_t>(i)], i);
    // Grow-only chunks never relocate: the address captured at insertion
    // time stays valid (this is what lets readers hold references across
    // concurrent appends).
    EXPECT_EQ(&a[static_cast<std::size_t>(i)], addrs[static_cast<std::size_t>(i)]);
  }
}

TEST(MeshView, SerializeAcrossDefaultChunkBoundary) {
  // Push the point arena past its first 2^14-element chunk and check the
  // chunk-wise blob copy against the element-wise accessors.
  MergedMesh m;
  const int side = 140;  // (side+1)^2 = 19881 points > 16384
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const Vec2 a{static_cast<double>(x), static_cast<double>(y)};
      const Vec2 b{static_cast<double>(x + 1), static_cast<double>(y)};
      const Vec2 c{static_cast<double>(x), static_cast<double>(y + 1)};
      m.add_triangle(a, b, c);
    }
  }
  ASSERT_GT(m.point_count(), ChunkedArray<Vec2>::kChunkSize);  // aerolint: allow(mesh-internal-access)

  const std::vector<std::uint8_t> blob = MeshView(m).serialize();
  MeshView back;
  ASSERT_EQ(MeshView::parse(blob, back), MeshBlobStatus::kOk);
  ASSERT_EQ(back.point_count(), m.point_count());
  ASSERT_EQ(back.triangle_count(), m.triangle_count());
  for (std::uint32_t i = 0; i < m.point_count(); ++i) {
    ASSERT_EQ(back.point(i).x, m.point(i).x);
    ASSERT_EQ(back.point(i).y, m.point(i).y);
  }
  for (std::size_t t = 0; t < m.record_count(); ++t) {
    ASSERT_EQ(back.tri(t), m.tri(t));
  }
}

TEST(MergedMesh, CapacityCeilingThrowsMeshTooLarge) {
  MergedMesh m;
  m.set_capacity_limit_for_test(3);
  // Exactly at the ceiling is fine: ids 0..2.
  m.add_triangle({0, 0}, {1, 0}, {0, 1});
  EXPECT_EQ(m.point_count(), 3u);
  // Re-interning existing coordinates allocates no ids and must not throw.
  m.add_triangle({0, 0}, {1, 0}, {0, 1});
  // The first new coordinate past the ceiling throws the typed overflow.
  EXPECT_THROW(m.add_point({2, 2}), MeshTooLargeError);
  EXPECT_THROW(m.add_triangle({0, 0}, {1, 0}, {5, 5}), MeshTooLargeError);
  // The mesh already assembled stays intact after the rejection.
  EXPECT_EQ(m.point_count(), 3u);
  EXPECT_EQ(m.triangle_count(), 2u);
}

/// Canonical multiset of live triangles: vertex-rotated so the
/// lexicographically smallest coordinate leads (orientation preserved),
/// then sorted. Two meshes with equal signatures contain exactly the same
/// triangles regardless of merge order.
std::vector<std::array<double, 6>> triangle_signature(const MergedMesh& m) {
  std::vector<std::array<double, 6>> sig;
  sig.reserve(m.triangle_count());
  m.for_each_triangle([&](Vec2 a, Vec2 b, Vec2 c) {
    std::array<std::array<double, 2>, 3> v = {{{a.x, a.y}, {b.x, b.y}, {c.x, c.y}}};
    int lead = 0;
    for (int i = 1; i < 3; ++i) {
      if (v[static_cast<std::size_t>(i)] < v[static_cast<std::size_t>(lead)]) lead = i;
    }
    std::array<double, 6> row;
    for (int i = 0; i < 3; ++i) {
      const auto& p = v[static_cast<std::size_t>((lead + i) % 3)];
      row[static_cast<std::size_t>(2 * i)] = p[0];
      row[static_cast<std::size_t>(2 * i + 1)] = p[1];
    }
    sig.push_back(row);
  });
  std::sort(sig.begin(), sig.end());
  return sig;
}

Options spill_case() {
  Options cfg;
  cfg.airfoil = make_naca0012(120);
  cfg.growth_kind = GrowthKind::kGeometric;
  cfg.first_height = 8e-4;
  cfg.growth_ratio = 1.3;
  cfg.max_layers = 25;
  cfg.farfield_chords = 6.0;
  cfg.inviscid_target_triangles = 8000.0;
  cfg.bl_min_points = 600;
  cfg.bl_max_level = 8;
  cfg.ranks = 4;
  return cfg;
}

TEST(SpillMerge, BitIdenticalToInRamMergeAtFourRanks) {
  const Options in_ram = spill_case();
  Options spilled = spill_case();
  spilled.merge_spill_dir = testing::TempDir();
  spilled.merge_resident_mb = 1;  // force many windows

  const ParallelMeshResult a = parallel_generate_mesh(in_ram);
  const ParallelMeshResult b = parallel_generate_mesh(spilled);
  ASSERT_EQ(a.status, RunStatus::kOk);
  ASSERT_EQ(b.status, RunStatus::kOk);

  // The out-of-core path spilled instead of holding results resident...
  EXPECT_EQ(a.bl_pool.spill_records + a.inviscid_pool.spill_records, 0u);
  EXPECT_GT(b.bl_pool.spill_records + b.inviscid_pool.spill_records, 0u);
  EXPECT_EQ(b.bl_pool.spill_write_failures + b.inviscid_pool.spill_write_failures,
            0u);

  // ...and produced exactly the same mesh: same welded points, same
  // triangle multiset, same conformity.
  EXPECT_EQ(b.mesh.point_count(), a.mesh.point_count());
  EXPECT_EQ(b.mesh.triangle_count(), a.mesh.triangle_count());
  EXPECT_EQ(triangle_signature(b.mesh), triangle_signature(a.mesh));
  const auto conf = b.mesh.check_conformity();
  EXPECT_TRUE(conf.manifold);
  EXPECT_TRUE(conf.orientation_ok);
}

TEST(SpillMerge, ResidentBudgetBoundsTheMergeWindows) {
  Options cfg = spill_case();
  cfg.airfoil = make_naca0012(300);  // spill well past the 1 MiB budget
  cfg.merge_spill_dir = testing::TempDir();
  cfg.merge_resident_mb = 1;

  const ParallelMeshResult r = parallel_generate_mesh(cfg);
  ASSERT_EQ(r.status, RunStatus::kOk);

  const std::size_t budget = std::size_t{1} << 20;
  const std::size_t spilled_bytes =
      r.bl_pool.spill_bytes + r.inviscid_pool.spill_bytes;
  ASSERT_GT(spilled_bytes, budget)
      << "scenario too small to exercise the out-of-core path";

  // The merge ran windowed (more than one window somewhere) and never held
  // more than the budget resident -- except that a single record larger
  // than the whole budget still merges as its own window (records are
  // never split), so the bound is max(budget, largest record).
  EXPECT_GT(r.bl_pool.merge_windows + r.inviscid_pool.merge_windows, 2u);
  EXPECT_LE(r.bl_pool.merge_resident_peak_bytes,
            std::max(budget, r.bl_pool.spill_max_record_bytes));
  EXPECT_LE(r.inviscid_pool.merge_resident_peak_bytes,
            std::max(budget, r.inviscid_pool.spill_max_record_bytes));
  EXPECT_GT(r.bl_pool.merge_resident_peak_bytes +
                r.inviscid_pool.merge_resident_peak_bytes,
            0u);
}

TEST(SpillMerge, ConcurrentRunsSharingASpillDirStayBitIdentical) {
  // Two different meshes spill into one directory at the same time. Each
  // run's spill files are its own, so each merged mesh must equal its
  // in-RAM merge byte for byte (one rank: the merge order is fixed).
  Options small = spill_case();
  small.ranks = 1;
  Options large = small;
  large.airfoil = make_naca0012(200);

  struct Run {
    std::vector<std::uint8_t> blob;
    std::size_t spill_records = 0;
  };
  const auto run = [](const Options& o) {
    const ParallelMeshResult r = parallel_generate_mesh(o);
    EXPECT_EQ(r.status, RunStatus::kOk);
    return Run{MeshView(r.mesh).serialize(),
               r.bl_pool.spill_records + r.inviscid_pool.spill_records};
  };
  const Run small_ram = run(small);
  const Run large_ram = run(large);

  small.merge_spill_dir = testing::TempDir();
  small.merge_resident_mb = 1;
  large.merge_spill_dir = small.merge_spill_dir;
  large.merge_resident_mb = 1;
  Run large_spilled;
  std::thread other([&] { large_spilled = run(large); });
  const Run small_spilled = run(small);
  other.join();

  EXPECT_GT(small_spilled.spill_records, 0u);
  EXPECT_GT(large_spilled.spill_records, 0u);
  EXPECT_EQ(small_spilled.blob, small_ram.blob);
  EXPECT_EQ(large_spilled.blob, large_ram.blob);
}

}  // namespace
}  // namespace aero
