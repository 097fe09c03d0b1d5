// The scalar Berlekamp–Welch decoder (paper §2.1 cites RS error correction
// [42] as the engine inside Online Error Correction), one system per call.
//
// Given points (x_k, y_k) of which at most e are corrupted and the rest lie
// on a degree-<=d polynomial q, recover q provided |points| >= d + 2e + 1.
//
// Reference only: run_mpc decodes through OecBank (src/rs/oec_bank.hpp),
// which shares bw_quotient and count_agreements_prepowered
// (src/rs/reed_solomon.hpp) with this file. ref::Oec
// (tests/reference/reference.hpp) is built on rs_decode, and the
// deferred-pivot solve_linear here is checked against ref::solve_linear.
#pragma once

#include <optional>
#include <vector>

#include "src/field/fp.hpp"
#include "src/field/poly.hpp"

namespace bobw {

/// Attempt to decode a degree-<=d polynomial from the given points assuming
/// at most `e` errors. Returns nullopt if no such polynomial exists (or the
/// linear system is inconsistent). xs must be distinct.
std::optional<Poly> rs_decode(int d, int e, const std::vector<Fp>& xs,
                              const std::vector<Fp>& ys);

/// Berlekamp–Welch with caller-supplied power rows: rows[k] must hold
/// xs[k]^0 .. xs[k]^w for some w >= d + e (see bobw::power_row).
/// Output-identical to rs_decode on the same points.
std::optional<Poly> rs_decode_prepowered(int d, int e, const std::vector<Fp>& xs,
                                         const std::vector<Fp>& ys,
                                         const std::vector<std::vector<Fp>>& rows);

/// Count how many of the points lie on q.
int count_agreements(const Poly& q, const std::vector<Fp>& xs,
                     const std::vector<Fp>& ys);

/// Solve A x = b over F_p by Gaussian elimination. A is row-major m x n,
/// b has length m. Returns any solution, or nullopt if inconsistent.
/// Pivots are deferred: elimination is cross-multiplied so the only field
/// inversions are ONE Montgomery batch_inverse over the pivots at
/// back-substitution time (output-identical to the seed's
/// normalise-every-pivot elimination, frozen as ref::solve_linear and
/// checked differentially in tests/kernels_test.cpp).
std::optional<std::vector<Fp>> solve_linear(std::vector<std::vector<Fp>> A,
                                            std::vector<Fp> b);

}  // namespace bobw
