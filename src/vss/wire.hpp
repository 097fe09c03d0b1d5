// Wire encodings shared by ΠWPS / ΠVSS: dealer rows, pairwise points,
// OK/NOK verdicts and (W,E,F) / (E',F') star announcements.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/common/codec.hpp"
#include "src/field/fp.hpp"
#include "src/field/kernels.hpp"

namespace bobw::wire {

/// L dealer row polynomials of d+1 coefficients each: u32 L, then per row
/// u32 (d+1) and its d+1 coefficient words — 4 + L(4 + 8(d+1)) bytes.
Bytes encode_rows(const RowBlock& rows);
/// Accepts exactly that layout for the expected L and d, with every
/// coefficient a canonical field element and nothing trailing. The length
/// is checked before anything is allocated.
std::optional<RowBlock> decode_rows(const Bytes& b, int L, int d);

/// L field values (pairwise consistency points / share vectors).
Bytes encode_points(const std::vector<Fp>& pts);
std::optional<std::vector<Fp>> decode_points(const Bytes& b, int L);

/// Evaluate every row at `at` (one eval_rows call) and encode the L values —
/// the per-recipient payload of the WPS point-distribution round.
Bytes encode_row_points(const RowBlock& rows, Fp at);

/// OK / NOK(least failing index, claimed value) verdict broadcast.
struct Verdict {
  bool ok = true;
  std::uint32_t nok_index = 0;  // least ℓ with a mismatch
  Fp nok_value;                 // sender's own value at that index
};
/// The verdict on another party's L values `theirs` against this party's own
/// `mine`: OK iff they are equal, else NOK at the least differing index with
/// this party's value there.
Verdict compare_points(std::span<const Fp> mine, std::span<const Fp> theirs);
/// The same with `mine` in its encode_points form (an L-value payload).
Verdict compare_points(const Bytes& mine, std::span<const Fp> theirs);
Bytes encode_verdict(const Verdict& v);
std::optional<Verdict> decode_verdict(const Bytes& b);

/// (W, E, F) — W empty encodes an (n,ta)-star announcement (E', F').
struct StarMsg {
  std::vector<int> W, E, F;
};
Bytes encode_star(const StarMsg& s);
std::optional<StarMsg> decode_star(const Bytes& b, int n);

}  // namespace bobw::wire
