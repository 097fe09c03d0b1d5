// Berlekamp–Welch helpers shared by OecBank (src/rs/oec_bank.hpp), the
// Reed–Solomon error correction inside Online Error Correction (paper §2.1
// cites RS error correction [42]).
//
// The scalar one-system-per-call decoder (rs_decode, solve_linear,
// count_agreements) is the reference in tests/reference/scalar_decoder.hpp.
#pragma once

#include <optional>
#include <vector>

#include "src/field/fp.hpp"
#include "src/field/poly.hpp"

namespace bobw {

/// Batched agreement counting over caller-supplied power rows: out[c] =
/// #{k : qs[c](x_k) == (*ys[c])[k]}, evaluated as one shared power-row
/// matrix product (rows[k] · coeffs of qs[c]) instead of one Horner per
/// point per candidate. rows[k] must hold x_k^0..x_k^w with
/// w >= deg(qs[c]) for every candidate, and every *ys[c] must have one
/// entry per row. Field arithmetic is exact, so each count is identical to
/// the scalar count_agreements (differential test in
/// tests/oec_bank_test.cpp).
std::vector<int> count_agreements_prepowered(
    const std::vector<const Poly*>& qs, const std::vector<const std::vector<Fp>*>& ys,
    const std::vector<std::vector<Fp>>& rows);

/// Final step of a Berlekamp–Welch attempt at error count e >= 1: `sol`
/// holds the d+e+1 coefficients of Q followed by the e low coefficients of
/// the monic error locator E. Returns Q / E if E divides Q exactly and the
/// quotient has degree <= d, nullopt otherwise. Shared by OecBank's batched
/// eliminator and the scalar rs_decode_prepowered.
std::optional<Poly> bw_quotient(int d, int e, const std::vector<Fp>& sol);

}  // namespace bobw
