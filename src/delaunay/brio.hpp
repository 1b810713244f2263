#pragma once

// Biased Randomized Insertion Order (BRIO) with Hilbert-curve locality.
//
// Amenta, Choi & Rote ("Incremental constructions con BRIO", SoCG 2003):
// assign every point to a round by repeated fair coin flips (about half the
// points land in the last round, a quarter in the one before, ...), insert
// the rounds smallest-first, and order the points *within* each round along
// a space-filling curve. The coin flips preserve the randomized-incremental
// expected-work bounds; the curve order keeps consecutive insertions
// spatially adjacent, so the walk-from-previous-triangle point location in
// DelaunayMesh::locate() stays O(1) steps per insert.
//
// Everything here is deterministic: the "coin" is a splitmix64 hash of the
// point's position in the input array, so a given input always produces the
// same order (meshes must be bit-reproducible across runs).

#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"

namespace aero {

/// Distance along the Hilbert curve of order `order` (a 2^order x 2^order
/// grid) for cell (x, y). Exposed for tests; coordinates must be < 2^order.
std::uint64_t hilbert_d(std::uint32_t x, std::uint32_t y, int order);

/// The BRIO insertion permutation for `pts`: a vector of indices into `pts`
/// such that inserting in that order is both randomized (per-point coin into
/// geometric rounds) and spatially local (Hilbert sort within each round).
/// Deterministic for a given input. Duplicate points are kept (the mesher
/// merges them on insertion).
std::vector<std::uint32_t> brio_order(const std::vector<Vec2>& pts);

}  // namespace aero
