// DelaunayMesh core: Bowyer-Watson construction, point location, topology
// and Delaunay invariants over parameterized point-cloud shapes.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <random>

#include "delaunay/mesh.hpp"  // aerolint: allow(public-api)
#include "delaunay/triangulator.hpp"

namespace aero {
namespace {

std::vector<Vec2> random_cloud(int n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pts.push_back({d(rng), d(rng)});
  return pts;
}

TEST(DelaunayMesh, RejectsDegenerateInput) {
  DelaunayMesh m;
  EXPECT_FALSE(m.triangulate({}));
  EXPECT_FALSE(m.triangulate({{0, 0}}));
  EXPECT_FALSE(m.triangulate({{0, 0}, {1, 1}}));
  EXPECT_FALSE(m.triangulate({{0, 0}, {1, 1}, {2, 2}, {3, 3}}));  // collinear
  EXPECT_FALSE(m.triangulate({{1, 1}, {1, 1}, {1, 1}}));          // identical
}

TEST(DelaunayMesh, TriangleOfThree) {
  DelaunayMesh m;
  ASSERT_TRUE(m.triangulate({{0, 0}, {1, 0}, {0, 1}}));
  EXPECT_EQ(m.triangle_count(), 1u);
  EXPECT_EQ(m.point_count(), 3u);
  EXPECT_TRUE(m.check_topology());
  EXPECT_TRUE(m.check_delaunay());
}

TEST(DelaunayMesh, DuplicatePointsMerge) {
  DelaunayMesh m;
  std::vector<VertIndex> ids;
  ASSERT_TRUE(m.triangulate({{0, 0}, {1, 0}, {0, 1}, {1, 0}, {0, 0}}, &ids));
  EXPECT_EQ(m.point_count(), 3u);
  EXPECT_EQ(ids[1], ids[3]);
  EXPECT_EQ(ids[0], ids[4]);
}

TEST(DelaunayMesh, CollinearPrefixHandled) {
  // The first k points lie on a line; the seed-triangle search must skip
  // ahead and the collinear points must insert correctly afterwards.
  std::vector<Vec2> pts;
  for (int i = 0; i < 20; ++i) pts.push_back({static_cast<double>(i), 0.0});
  pts.push_back({5.0, 7.0});
  DelaunayMesh m;
  ASSERT_TRUE(m.triangulate(pts));
  EXPECT_EQ(m.point_count(), 21u);
  EXPECT_EQ(m.triangle_count(), 19u);  // fan from the apex
  EXPECT_TRUE(m.check_topology());
  EXPECT_TRUE(m.check_delaunay());
}

struct CloudParam {
  const char* name;
  int n;
  unsigned seed;
};

// Prints the fields, not gtest's raw bytes: the raw dump holds the
// load-address-dependent `name` pointer, which would make the test's
// listed name change from one run of the binary to the next.
void PrintTo(const CloudParam& p, std::ostream* os) {
  *os << '{' << p.name << ',' << p.n << ',' << p.seed << '}';
}

class CloudSweep : public ::testing::TestWithParam<CloudParam> {
 protected:
  std::vector<Vec2> make_points() const {
    const auto& p = GetParam();
    std::string name = p.name;
    if (name == "random") return random_cloud(p.n, p.seed);
    if (name == "grid") {
      const int side = static_cast<int>(std::sqrt(p.n));
      std::vector<Vec2> pts;
      for (int i = 0; i < side; ++i) {
        for (int j = 0; j < side; ++j) {
          pts.push_back({i * 0.25, j * 0.25});
        }
      }
      return pts;
    }
    if (name == "circle") {
      // Cocircular points: maximal incircle degeneracy.
      std::vector<Vec2> pts;
      for (int i = 0; i < p.n; ++i) {
        const double th = 2.0 * 3.141592653589793 * i / p.n;
        pts.push_back({std::cos(th), std::sin(th)});
      }
      pts.push_back({0.0, 0.0});
      return pts;
    }
    if (name == "anisotropic") {
      // Boundary-layer-like rows: x spacing 1, y spacing 1e-4.
      std::vector<Vec2> pts;
      const int cols = p.n / 8;
      for (int i = 0; i < cols; ++i) {
        for (int j = 0; j < 8; ++j) {
          pts.push_back({i * 0.01, j * 1e-6});
        }
      }
      return pts;
    }
    return {};
  }
};

TEST_P(CloudSweep, TopologyAndDelaunayInvariants) {
  const std::vector<Vec2> pts = make_points();
  DelaunayMesh m;
  ASSERT_TRUE(m.triangulate(pts));
  EXPECT_TRUE(m.check_topology());
  EXPECT_TRUE(m.check_delaunay());
  // Euler: for a triangulated point set, T = 2n - 2 - h (h = hull vertices).
  // Check the weaker invariant T <= 2n and T >= n - 2.
  const std::size_t n = m.point_count();
  EXPECT_LE(m.triangle_count(), 2 * n);
  EXPECT_GE(m.triangle_count() + 2, n);
}

INSTANTIATE_TEST_SUITE_P(
    Clouds, CloudSweep,
    ::testing::Values(CloudParam{"random", 100, 1},
                      CloudParam{"random", 1000, 2},
                      CloudParam{"random", 5000, 3},
                      CloudParam{"grid", 400, 4}, CloudParam{"grid", 2500, 5},
                      CloudParam{"circle", 64, 6},
                      CloudParam{"circle", 257, 7},
                      CloudParam{"anisotropic", 800, 8}),
    [](const auto& info) {
      return std::string(info.param.name) + "_" +
             std::to_string(info.param.n);
    });

TEST(DelaunayMesh, GridTriangleCountExact) {
  // An n x n unit grid triangulates into exactly 2 (n-1)^2 triangles.
  std::vector<Vec2> pts;
  for (int i = 0; i < 30; ++i) {
    for (int j = 0; j < 30; ++j) pts.push_back({i * 1.0, j * 1.0});
  }
  DelaunayMesh m;
  ASSERT_TRUE(m.triangulate(pts));
  EXPECT_EQ(m.triangle_count(), 2u * 29u * 29u);
}

TEST(DelaunayMesh, LocateClassifications) {
  DelaunayMesh m;
  ASSERT_TRUE(m.triangulate({{0, 0}, {4, 0}, {0, 4}, {4, 4}}));

  const LocateResult inside = m.locate({1.0, 1.0});
  EXPECT_EQ(inside.kind, LocateResult::Kind::kInside);

  const LocateResult vertex = m.locate({4.0, 0.0});
  EXPECT_EQ(vertex.kind, LocateResult::Kind::kOnVertex);
  EXPECT_EQ(m.tri(vertex.tri).v[vertex.edge],
            m.locate({4.0, 0.0}).tri >= 0
                ? m.tri(vertex.tri).v[vertex.edge]
                : -1);
  EXPECT_EQ(m.point(m.tri(vertex.tri).v[vertex.edge]), (Vec2{4, 0}));

  const LocateResult outside = m.locate({10.0, 10.0});
  EXPECT_EQ(outside.kind, LocateResult::Kind::kOutside);
  EXPECT_TRUE(m.tri(outside.tri).is_ghost());

  const LocateResult edge = m.locate({2.0, 0.0});  // on the hull edge
  EXPECT_EQ(edge.kind, LocateResult::Kind::kOnEdge);
}

TEST(DelaunayMesh, InsertOnHullEdgeExtendsHull) {
  DelaunayMesh m;
  ASSERT_TRUE(m.triangulate({{0, 0}, {4, 0}, {2, 3}}));
  const VertIndex v = m.insert_point({2.0, 0.0}, false);
  EXPECT_EQ(m.point(v), (Vec2{2, 0}));
  EXPECT_EQ(m.triangle_count(), 2u);
  EXPECT_TRUE(m.check_topology());
  EXPECT_TRUE(m.check_delaunay());
}

TEST(DelaunayMesh, InsertOutsideHull) {
  DelaunayMesh m;
  ASSERT_TRUE(m.triangulate({{0, 0}, {1, 0}, {0, 1}}));
  m.insert_point({2.0, 2.0}, false);
  EXPECT_EQ(m.triangle_count(), 2u);
  EXPECT_TRUE(m.check_topology());
  EXPECT_TRUE(m.check_delaunay());
}

TEST(DelaunayMesh, InsertCollinearBeyondHull) {
  // Extending the hull along an existing hull line (the case that once
  // produced degenerate collinear triangles).
  DelaunayMesh m;
  ASSERT_TRUE(m.triangulate({{0, 0}, {1, 0}, {0, 1}}));
  m.insert_point({0.0, 2.0}, false);  // collinear with hull edge (0,0)-(0,1)
  m.insert_point({0.0, 3.0}, false);
  EXPECT_TRUE(m.check_topology());
  EXPECT_TRUE(m.check_delaunay());
}

TEST(DelaunayMesh, FindEdge) {
  DelaunayMesh m;
  ASSERT_TRUE(m.triangulate({{0, 0}, {1, 0}, {0, 1}, {1, 1}}));
  // Directed hull edge exists in exactly one finite triangle.
  bool found_any = false;
  for (VertIndex u = 0; u < 4; ++u) {
    for (VertIndex w = 0; w < 4; ++w) {
      if (u == w) continue;
      const auto [t, slot] = m.find_edge(u, w);
      if (t == kNoTri) continue;
      found_any = true;
      EXPECT_EQ(m.tri(t).v[(slot + 1) % 3], u);
      EXPECT_EQ(m.tri(t).v[(slot + 2) % 3], w);
    }
  }
  EXPECT_TRUE(found_any);
}

TEST(DelaunayMesh, SortedInsertionOrderIndependence) {
  // The Delaunay triangulation is unique for points in general position:
  // sorted and shuffled insertion must produce the same triangle set.
  const std::vector<Vec2> pts = random_cloud(500, 42);
  std::vector<Vec2> sorted = pts;
  std::sort(sorted.begin(), sorted.end(), LessXY{});
  std::vector<Vec2> shuffled = pts;
  std::mt19937_64 rng(43);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  DelaunayMesh a, b;
  ASSERT_TRUE(a.triangulate(sorted));
  ASSERT_TRUE(b.triangulate(shuffled));
  EXPECT_EQ(a.triangle_count(), b.triangle_count());
  EXPECT_TRUE(a.check_delaunay());
  EXPECT_TRUE(b.check_delaunay());
}

}  // namespace
}  // namespace aero
