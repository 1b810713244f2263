#include "io/mesh_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "core/mesh_view.hpp"

namespace aero {

namespace {

std::ofstream open_out(const std::string& path, bool binary = false) {
  std::ofstream f(path, binary ? std::ios::binary : std::ios::out);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  return f;
}

}  // namespace

void write_vtk(const MergedMesh& mesh, const std::string& path,
               const std::vector<double>* point_scalars,
               const std::string& scalar_name) {
  std::ofstream f = open_out(path);
  f << "# vtk DataFile Version 3.0\naeromesh\nASCII\n"
    << "DATASET UNSTRUCTURED_GRID\n";
  const MeshView view(mesh);
  const std::size_t np = view.point_count();
  f << "POINTS " << np << " double\n";
  for (std::uint32_t i = 0; i < np; ++i) {
    const Vec2 p = view.point(i);
    f << p.x << ' ' << p.y << " 0\n";
  }

  const std::size_t nt = view.triangle_count();
  f << "CELLS " << nt << ' ' << nt * 4 << '\n';
  view.for_each_tri_ids([&](const std::array<std::uint32_t, 3>& tri) {
    f << "3 " << tri[0] << ' ' << tri[1] << ' ' << tri[2] << '\n';
  });
  f << "CELL_TYPES " << nt << '\n';
  for (std::size_t t = 0; t < nt; ++t) f << "5\n";

  if (point_scalars) {
    if (point_scalars->size() != np) {
      throw std::invalid_argument("scalar field size mismatch");
    }
    f << "POINT_DATA " << np << "\nSCALARS " << scalar_name
      << " double 1\nLOOKUP_TABLE default\n";
    for (const double v : *point_scalars) f << v << '\n';
  }
}

void write_node_ele(const MergedMesh& mesh, const std::string& basename) {
  const MeshView view(mesh);
  {
    std::ofstream f = open_out(basename + ".node");
    f << view.point_count() << " 2 0 0\n";
    for (std::uint32_t i = 0; i < view.point_count(); ++i) {
      const Vec2 p = view.point(i);
      f << i << ' ' << p.x << ' ' << p.y << '\n';
    }
  }
  {
    std::ofstream f = open_out(basename + ".ele");
    f << view.triangle_count() << " 3 0\n";
    std::size_t id = 0;
    view.for_each_tri_ids([&](const std::array<std::uint32_t, 3>& tri) {
      f << id++ << ' ' << tri[0] << ' ' << tri[1] << ' ' << tri[2] << '\n';
    });
  }
}

void write_binary(const MergedMesh& mesh, const std::string& path) {
  // The on-disk .bin layout is the MeshView blob minus its tag+version
  // header: [np u64 | nt u64 | points | tris]. It predates the versioned
  // blob and external tooling reads it, so the bytes stay as they are.
  std::ofstream f = open_out(path, /*binary=*/true);
  const std::vector<std::uint8_t> blob = MeshView(mesh).serialize();
  f.write(reinterpret_cast<const char*>(blob.data() + 8),
          static_cast<std::streamsize>(blob.size() - 8));
}

void write_poly(const Pslg& pslg, const std::string& path) {
  std::ofstream f = open_out(path);
  f << pslg.points.size() << " 2 0 "
    << (pslg.point_markers.empty() ? 0 : 1) << '\n';
  for (std::size_t i = 0; i < pslg.points.size(); ++i) {
    f << i << ' ' << pslg.points[i].x << ' ' << pslg.points[i].y;
    if (!pslg.point_markers.empty()) f << ' ' << pslg.point_markers[i];
    f << '\n';
  }
  f << pslg.segments.size() << " 0\n";
  for (std::size_t i = 0; i < pslg.segments.size(); ++i) {
    f << i << ' ' << pslg.segments[i].first << ' ' << pslg.segments[i].second
      << '\n';
  }
  f << pslg.holes.size() << '\n';
  for (std::size_t i = 0; i < pslg.holes.size(); ++i) {
    f << i << ' ' << pslg.holes[i].x << ' ' << pslg.holes[i].y << '\n';
  }
}

Pslg read_poly(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw PolyFormatError("cannot open for reading: " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::istringstream f(text);
  const auto fail = [&path](const std::string& why) {
    return PolyFormatError(why + ": " + path);
  };
  // Every count is checked against what the file can hold before anything
  // is allocated or looped over: a token takes at least one byte plus a
  // separator. An entry is an id, two values and `extra` trailing tokens.
  const std::size_t max_tokens = text.size() / 2 + 1;
  const auto check_count = [&](std::size_t count, std::size_t extra,
                               const char* what) {
    if (extra > max_tokens || count > max_tokens / (3 + extra)) {
      throw fail(std::string(what) + " count exceeds the file contents");
    }
  };

  Pslg pslg;
  std::size_t np, dim, nattr, nmark;
  f >> np >> dim >> nattr >> nmark;
  if (!f || dim != 2) throw fail("bad .poly header");
  check_count(np, std::min(nattr, max_tokens) + (nmark ? 1 : 0), "vertex");
  pslg.points.resize(np);
  if (nmark) pslg.point_markers.resize(np);
  for (std::size_t i = 0; i < np; ++i) {
    std::size_t id;
    f >> id >> pslg.points[i].x >> pslg.points[i].y;
    for (std::size_t a = 0; a < nattr; ++a) {
      double skip;
      f >> skip;
    }
    if (nmark) f >> pslg.point_markers[i];
    if (!f) throw fail("truncated or unreadable vertex");
    if (!std::isfinite(pslg.points[i].x) || !std::isfinite(pslg.points[i].y)) {
      throw fail("non-finite vertex coordinate");
    }
  }
  std::size_t ns, smark;
  f >> ns >> smark;
  if (!f) throw fail("bad segment header");
  check_count(ns, smark, "segment");
  pslg.segments.resize(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    std::size_t id;
    f >> id >> pslg.segments[i].first >> pslg.segments[i].second;
    for (std::size_t a = 0; a < smark; ++a) {
      int skip;
      f >> skip;
    }
    if (!f) throw fail("truncated or unreadable segment");
    if (pslg.segments[i].first >= np || pslg.segments[i].second >= np) {
      throw fail("segment endpoint out of range");
    }
  }
  std::size_t nh;
  f >> nh;
  if (!f) throw fail("bad hole header");
  check_count(nh, 0, "hole");
  pslg.holes.resize(nh);
  for (std::size_t i = 0; i < nh; ++i) {
    std::size_t id;
    f >> id >> pslg.holes[i].x >> pslg.holes[i].y;
    if (!f) throw fail("truncated or unreadable hole");
    if (!std::isfinite(pslg.holes[i].x) || !std::isfinite(pslg.holes[i].y)) {
      throw fail("non-finite hole coordinate");
    }
  }
  return pslg;
}

}  // namespace aero
