#pragma once

#include <stdexcept>
#include <string>

#include "core/merged_mesh.hpp"
#include "delaunay/pslg.hpp"

namespace aero {

/// Write a merged mesh as legacy ASCII VTK (viewable in ParaView), with an
/// optional per-point scalar field.
void write_vtk(const MergedMesh& mesh, const std::string& path,
               const std::vector<double>* point_scalars = nullptr,
               const std::string& scalar_name = "field");

/// Write Triangle-compatible .node / .ele ASCII files (the paper's output
/// format; its sequential write of a 172M-triangle mesh took 9 minutes).
void write_node_ele(const MergedMesh& mesh, const std::string& basename);

/// Binary dump (the paper's suggested faster alternative): a flat
/// little-endian [n_points, n_tris, points..., tris...] layout.
void write_binary(const MergedMesh& mesh, const std::string& path);

/// A .poly file that cannot be opened or does not describe a valid PSLG.
class PolyFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Write / read a PSLG in a simple .poly-like ASCII format. read_poly
/// throws PolyFormatError unless every count fits the file's contents,
/// every coordinate is finite, and every segment endpoint names a vertex.
void write_poly(const Pslg& pslg, const std::string& path);
Pslg read_poly(const std::string& path);

}  // namespace aero
