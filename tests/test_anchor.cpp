// Whole-pipeline mesh anchor: the default NACA 0012 mesh (the aeromesh
// CLI's default geometry and options), sequential and at four ranks, pinned
// by triangle count, vertex count and CRC-32 of AMSH blobs.
//
// The sequential blob is reproducible byte for byte, so its CRC is pinned
// as is. A pooled run welds the gathered subdomains in an order that
// depends on which rank meshed which unit, so its raw blob varies from run
// to run; both runs are therefore also pinned through the blob of their
// canonical form (the same triangles, re-welded in sorted order), which
// must be one and the same mesh.
//
// A failure here means the pipeline now produces a different mesh: change
// the constants only in a change that means to alter the mesh, and say so
// where the change is recorded.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "airfoil/geometry.hpp"
#include "core/crc32.hpp"  // aerolint: allow(public-api)
#include "core/mesh_generator.hpp"
#include "core/mesh_view.hpp"
#include "runtime/parallel_driver.hpp"

namespace aero {
namespace {

constexpr std::size_t kTriangles = 80158;
constexpr std::size_t kVertices = 40406;
constexpr std::uint32_t kSequentialBlobCrc = 0x3bf02890u;
constexpr std::uint32_t kCanonicalBlobCrc = 0x23ce413au;

Options default_naca0012() {
  Options o;
  o.airfoil = make_naca0012(300);  // aeromesh's --surface-points default
  return o;
}

std::uint32_t blob_crc(const MergedMesh& mesh) {
  const std::vector<std::uint8_t> blob = MeshView(mesh).serialize();
  return crc32(blob.data(), blob.size());
}

/// The same triangles re-welded in a fixed order: each triangle rotated so
/// its lexicographically smallest vertex leads (orientation kept), then the
/// triangles sorted. Independent of the order the input was welded in.
MergedMesh canonical(const MergedMesh& mesh) {
  using Tri = std::array<Vec2, 3>;
  const auto less = [](Vec2 a, Vec2 b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  };
  std::vector<Tri> tris;
  tris.reserve(mesh.triangle_count());
  mesh.for_each_triangle([&](Vec2 a, Vec2 b, Vec2 c) {
    Tri t{a, b, c};
    while (less(t[1], t[0]) || less(t[2], t[0])) t = {t[1], t[2], t[0]};
    tris.push_back(t);
  });
  std::sort(tris.begin(), tris.end(), [&](const Tri& p, const Tri& q) {
    return std::lexicographical_compare(p.begin(), p.end(), q.begin(),
                                        q.end(), less);
  });
  MergedMesh out;
  for (const Tri& t : tris) out.add_triangle(t[0], t[1], t[2]);
  return out;
}

void expect_counts(const MergedMesh& mesh) {
  EXPECT_EQ(mesh.triangle_count(), kTriangles);
  EXPECT_EQ(mesh.point_count(), kVertices);
}

TEST(MeshAnchor, DefaultNaca0012Sequential) {
  const MeshGenerationResult r = generate_mesh(default_naca0012());
  ASSERT_EQ(r.status, RunStatus::kOk);
  expect_counts(r.mesh);
  EXPECT_EQ(blob_crc(r.mesh), kSequentialBlobCrc)
      << std::hex << "blob crc 0x" << blob_crc(r.mesh);
  const std::uint32_t canon = blob_crc(canonical(r.mesh));
  EXPECT_EQ(canon, kCanonicalBlobCrc)
      << std::hex << "canonical crc 0x" << canon;
}

TEST(MeshAnchor, DefaultNaca0012FourRanks) {
  Options o = default_naca0012();
  o.ranks = 4;
  const ParallelMeshResult r = parallel_generate_mesh(o);
  ASSERT_EQ(r.status, RunStatus::kOk);
  expect_counts(r.mesh);
  const std::uint32_t canon = blob_crc(canonical(r.mesh));
  EXPECT_EQ(canon, kCanonicalBlobCrc)
      << std::hex << "canonical crc 0x" << canon;
}

}  // namespace
}  // namespace aero
