// Mesh and PSLG I/O round trips.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "delaunay/triangulator.hpp"
#include "io/mesh_io.hpp"
#include "core/timer.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "aeromesh_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

MergedMesh small_mesh() {
  const auto r = triangulate_points({{0, 0}, {2, 0}, {1, 2}, {1, 0.7}});
  MergedMesh m;
  m.append(r.mesh);
  return m;
}

TEST_F(IoTest, VtkContainsAllCells) {
  const MergedMesh m = small_mesh();
  write_vtk(m, path("mesh.vtk"));
  std::ifstream f(path("mesh.vtk"));
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("POINTS 4 double"), std::string::npos);
  EXPECT_NE(content.find("CELLS 3 12"), std::string::npos);
  EXPECT_NE(content.find("CELL_TYPES 3"), std::string::npos);
}

TEST_F(IoTest, VtkWithScalars) {
  const MergedMesh m = small_mesh();
  const std::vector<double> field{1.0, 2.0, 3.0, 4.0};
  write_vtk(m, path("field.vtk"), &field, "pressure");
  std::ifstream f(path("field.vtk"));
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("SCALARS pressure double 1"), std::string::npos);
  EXPECT_THROW(write_vtk(m, path("bad.vtk"),
                         new std::vector<double>{1.0}, "x"),
               std::invalid_argument);
}

TEST_F(IoTest, NodeEleFormat) {
  const MergedMesh m = small_mesh();
  write_node_ele(m, path("mesh"));
  std::ifstream nodes(path("mesh") + ".node");
  std::size_t np, dim, a, b;
  nodes >> np >> dim >> a >> b;
  EXPECT_EQ(np, 4u);
  EXPECT_EQ(dim, 2u);
  std::ifstream eles(path("mesh") + ".ele");
  std::size_t nt, per;
  eles >> nt >> per;
  EXPECT_EQ(nt, 3u);
  EXPECT_EQ(per, 3u);
}

TEST_F(IoTest, BinaryDumpSized) {
  const MergedMesh m = small_mesh();
  write_binary(m, path("mesh.bin"));
  const auto size = std::filesystem::file_size(path("mesh.bin"));
  EXPECT_EQ(size, 16u + 4u * 16u + 3u * 12u);
}

TEST_F(IoTest, PolyRoundTrip) {
  Pslg p;
  p.points = {{0, 0}, {1.5, 0}, {1.5, 2.25}, {0, 2.25}, {0.5, 0.5}};
  p.segments = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  p.holes = {{0.75, 1.0}};
  p.point_markers = {1, 1, 1, 1, 0};
  write_poly(p, path("domain.poly"));
  const Pslg q = read_poly(path("domain.poly"));
  EXPECT_EQ(q.points, p.points);
  EXPECT_EQ(q.segments, p.segments);
  EXPECT_EQ(q.holes, p.holes);
  EXPECT_EQ(q.point_markers, p.point_markers);
}

TEST_F(IoTest, ReadPolyRejectsGarbage) {
  {
    std::ofstream f(path("bad.poly"));
    f << "not a poly file";
  }
  EXPECT_THROW(read_poly(path("bad.poly")), std::runtime_error);
  EXPECT_THROW(read_poly(path("missing.poly")), std::runtime_error);
}

// Hostile .poly inputs that once ended in a signal or an abort: each must
// be a typed read error, and the CLI must turn it into exit 2 with an
// "error:" line. Each process works in its own directory, so parallel test
// runs never share files.
TEST(PolyImport, HostileFilesAreTypedErrorsAndExitTwo) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("aeromesh_poly_import_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const struct {
    const char* name;
    const char* text;
  } cases[] = {
      {"segment_out_of_range.poly",
       "3 2 0 0\n0 0 0\n1 1 0\n2 0 1\n3 0\n0 0 1\n1 1 7\n2 2 0\n0\n"},
      {"huge_count.poly", "1000000000000 2 0 0\n0 0 0\n"},
      {"huge_attribute_count.poly", "1 2 18446744073709551615 1\n0 0 0\n"},
      {"nan_coordinate.poly",
       "3 2 0 0\n0 0 0\n1 nan 0\n2 0 1\n3 0\n0 0 1\n1 1 2\n2 2 0\n0\n"},
  };
  for (const auto& c : cases) {
    const std::string poly = (dir / c.name).string();
    {
      std::ofstream f(poly);
      f << c.text;
    }
    EXPECT_THROW(read_poly(poly), PolyFormatError) << c.name;

    const std::string err = (dir / "stderr.txt").string();
    const std::string cmd = std::string(AEROMESH_CLI) + " --poly " + poly +
                            " --output " + (dir / "mesh").string() +
                            " >/dev/null 2>" + err;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << c.name << " ended by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 2) << c.name;
    std::ifstream e(err);
    const std::string text((std::istreambuf_iterator<char>(e)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text.rfind("error: ", 0), 0u) << c.name << ": " << text;
  }
  std::filesystem::remove_all(dir);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(PhaseTimings, Accumulates) {
  PhaseTimings pt;
  pt.record("a", 1.5);
  pt.record("b", 2.5);
  EXPECT_EQ(pt.entries().size(), 2u);
  EXPECT_DOUBLE_EQ(pt.total(), 4.0);
}

}  // namespace
}  // namespace aero
