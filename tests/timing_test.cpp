// The deadline table (core/timing) and wire-format robustness: every decoder
// must reject malformed Byzantine input without crashing or over-allocating.
#include <gtest/gtest.h>

#include "src/core/timing.hpp"
#include "src/vss/wire.hpp"

namespace bobw {
namespace {

TEST(Timing, TableMatchesDefinitions) {
  const Tick d = 1000;
  for (int ts : {1, 2, 3, 4}) {
    Timing T = Timing::compute(ts, d);
    EXPECT_EQ(T.t_bgp, 3 * static_cast<Tick>(ts + 1) * d);
    EXPECT_EQ(T.t_bc, 3 * d + T.t_bgp);
    EXPECT_EQ(T.t_aba, 6 * d);
    EXPECT_EQ(T.t_ba, T.t_bc + T.t_aba);
    EXPECT_EQ(T.t_wps, 2 * d + 2 * T.t_bc + T.t_ba);
    EXPECT_EQ(T.t_vss, d + T.t_wps + 2 * T.t_bc + T.t_ba);
    EXPECT_EQ(T.t_acs, T.t_vss + 2 * T.t_ba);
    EXPECT_EQ(T.t_tripsh, T.t_acs + 4 * d);
    EXPECT_EQ(T.t_tripgen, T.t_tripsh + 2 * T.t_ba + d);
    // Every deadline is Δ-aligned — the protocols' "multiple of Δ" waits
    // rely on this.
    for (Tick t : {T.t_bgp, T.t_bc, T.t_aba, T.t_ba, T.t_wps, T.t_vss, T.t_acs, T.t_tripsh,
                   T.t_tripgen})
      EXPECT_EQ(t % d, 0u);
  }
}

TEST(Timing, NextMultiple) {
  EXPECT_EQ(next_multiple(0, 1000), 0u);
  EXPECT_EQ(next_multiple(1, 1000), 1000u);
  EXPECT_EQ(next_multiple(999, 1000), 1000u);
  EXPECT_EQ(next_multiple(1000, 1000), 1000u);
  EXPECT_EQ(next_multiple(1001, 1000), 2000u);
  EXPECT_EQ(next_multiple(5, 0), 5u);
}

RowBlock block_of(const std::vector<Poly>& polys, int d) {
  RowBlock rows(polys.size(), static_cast<std::size_t>(d) + 1);
  for (std::size_t l = 0; l < polys.size(); ++l)
    for (std::size_t k = 0; k < rows.width(); ++k) rows.row(l)[k] = polys[l].coeff(static_cast<int>(k));
  return rows;
}

TEST(Wire, RowsRoundTripAndRejection) {
  Rng rng(1);
  RowBlock rows = block_of({Poly::random(2, rng), Poly::random(1, rng)}, 2);
  Bytes b = wire::encode_rows(rows);
  ASSERT_EQ(b.size(), 4u + 2 * (4 + 8 * 3));
  auto dec = wire::decode_rows(b, 2, 2);
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, rows);
  // Wrong L.
  EXPECT_FALSE(wire::decode_rows(b, 3, 2));
  // Wrong degree bound.
  EXPECT_FALSE(wire::decode_rows(b, 2, 3));
  // Truncated.
  Bytes cut(b.begin(), b.begin() + static_cast<long>(b.size() - 3));
  EXPECT_FALSE(wire::decode_rows(cut, 2, 2));
  // Trailing garbage.
  Bytes extra = b;
  extra.push_back(0);
  EXPECT_FALSE(wire::decode_rows(extra, 2, 2));
  // One missing byte.
  Bytes short_one(b.begin(), b.end() - 1);
  EXPECT_FALSE(wire::decode_rows(short_one, 2, 2));
  // A coefficient word equal to p is not a field element; p - 1 is.
  auto with_word = [&](std::uint64_t word) {
    Bytes out = b;
    const std::size_t at = 4 + (4 + 8 * 3) + 4 + 8;  // row 1, coefficient 1
    for (int k = 0; k < 8; ++k) out[at + static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(word >> (8 * k));
    return out;
  };
  EXPECT_FALSE(wire::decode_rows(with_word(Fp::kP), 2, 2));
  auto top = wire::decode_rows(with_word(Fp::kP - 1), 2, 2);
  ASSERT_TRUE(top);
  EXPECT_EQ(top->row(1)[1], Fp(Fp::kP - 1));
  // A row whose length word disagrees with d+1, in a buffer of the right size.
  Bytes bad_len = b;
  bad_len[4] = 2;
  EXPECT_FALSE(wire::decode_rows(bad_len, 2, 2));
}

TEST(Wire, RowsRejectHugeHeaderWithoutAllocating) {
  // A header claiming 2^31 rows on a short buffer.
  Writer w;
  w.u32(0x80000000u);
  w.u32(3);
  w.u64(1);
  EXPECT_FALSE(wire::decode_rows(w.data(), 2, 2));
  // Even when the caller expects that many rows of that many coefficients
  // (about 2^54 bytes), the length check rejects the buffer before a block
  // is allocated.
  Writer w2;
  w2.u32(0x7FFFFFFFu);
  w2.u32((1u << 20) + 1);
  EXPECT_FALSE(wire::decode_rows(w2.data(), 0x7FFFFFFF, 1 << 20));
}

TEST(Wire, RowsBytesArePinned) {
  // u32 L, then per row u32 (d+1) and d+1 little-endian coefficient words.
  RowBlock rows(2, 2);
  rows.row(0)[0] = Fp(1);
  rows.row(0)[1] = Fp(0x0102030405060708ULL);
  rows.row(1)[0] = Fp(Fp::kP - 1);
  rows.row(1)[1] = Fp(0);
  const Bytes expect{
      2, 0, 0, 0,                                         // L
      2, 0, 0, 0,                                         // row 0: d+1
      1, 0, 0, 0, 0, 0, 0, 0,                             //   coefficient 0
      8, 7, 6, 5, 4, 3, 2, 1,                             //   coefficient 1
      2, 0, 0, 0,                                         // row 1: d+1
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F,     //   p - 1
      0, 0, 0, 0, 0, 0, 0, 0,                             //   0
  };
  EXPECT_EQ(wire::encode_rows(rows), expect);
  auto dec = wire::decode_rows(expect, 2, 1);
  ASSERT_TRUE(dec);
  EXPECT_EQ(*dec, rows);
  // The point payload at x = 0 carries each row's constant term.
  EXPECT_EQ(wire::encode_row_points(rows, Fp(0)),
            wire::encode_points({Fp(1), Fp(Fp::kP - 1)}));
}

TEST(Wire, PointsRejectOutOfRangeElements) {
  Writer w;
  w.u64s({Fp::kP});  // not a canonical field element
  EXPECT_FALSE(wire::decode_points(w.data(), 1));
}

TEST(Wire, VerdictRoundTripAndRejection) {
  wire::Verdict ok;
  auto d1 = wire::decode_verdict(wire::encode_verdict(ok));
  ASSERT_TRUE(d1);
  EXPECT_TRUE(d1->ok);
  wire::Verdict nok;
  nok.ok = false;
  nok.nok_index = 3;
  nok.nok_value = Fp(42);
  auto d2 = wire::decode_verdict(wire::encode_verdict(nok));
  ASSERT_TRUE(d2);
  EXPECT_FALSE(d2->ok);
  EXPECT_EQ(d2->nok_index, 3u);
  EXPECT_EQ(d2->nok_value, Fp(42));
  EXPECT_FALSE(wire::decode_verdict(Bytes{}));
  EXPECT_FALSE(wire::decode_verdict(Bytes{9}));
  EXPECT_FALSE(wire::decode_verdict(Bytes{1, 0}));  // trailing garbage
}

TEST(Wire, StarRoundTripAndRejection) {
  wire::StarMsg s;
  s.W = {0, 1, 2, 4};
  s.E = {0, 1};
  s.F = {0, 1, 2};
  Bytes b = wire::encode_star(s);
  auto d = wire::decode_star(b, 5);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->W, s.W);
  EXPECT_EQ(d->E, s.E);
  EXPECT_EQ(d->F, s.F);
  // Out-of-range id.
  EXPECT_FALSE(wire::decode_star(b, 4));
  // Duplicate ids.
  wire::StarMsg dup;
  dup.W = {1, 1};
  EXPECT_FALSE(wire::decode_star(wire::encode_star(dup), 5));
  // Claimed size beyond n must be rejected before allocation.
  Writer w;
  w.u32(0xFFFFFF);
  EXPECT_FALSE(wire::decode_star(w.data(), 5));
}

TEST(Wire, FuzzDecodersNeverThrow) {
  // Byzantine senders can deliver arbitrary bytes; decoders must return
  // nullopt, never crash or throw.
  Rng rng(99);
  for (int iter = 0; iter < 3000; ++iter) {
    Bytes b(rng.next_below(40));
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_NO_THROW({
      wire::decode_rows(b, 2, 2);
      wire::decode_points(b, 3);
      wire::decode_verdict(b);
      wire::decode_star(b, 7);
    });
  }
}

}  // namespace
}  // namespace bobw
