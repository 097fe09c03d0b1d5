#include <gtest/gtest.h>

#include <stdexcept>

#include "src/common/codec.hpp"
#include "src/field/bivariate.hpp"
#include "src/field/fp.hpp"
#include "src/field/poly.hpp"

namespace bobw {
namespace {

TEST(Fp, BasicArithmetic) {
  Fp a(5), b(7);
  EXPECT_EQ((a + b).value(), 12u);
  EXPECT_EQ((a * b).value(), 35u);
  EXPECT_EQ((a - b), Fp(Fp::kP - 2));
  EXPECT_EQ((-a) + a, Fp(0));
}

TEST(Fp, ReductionAtBoundary) {
  Fp pm1(Fp::kP - 1);
  EXPECT_EQ((pm1 + Fp(1)).value(), 0u);
  EXPECT_EQ((pm1 * pm1), Fp(1));  // (-1)^2
  EXPECT_EQ(Fp(Fp::kP).value(), 0u);
}

TEST(Fp, InverseRoundTrips) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Fp x = Fp::random(rng);
    if (x.is_zero()) continue;
    EXPECT_EQ(x * x.inv(), Fp(1));
  }
}

TEST(Fp, PowMatchesRepeatedMultiplication) {
  Fp x(3);
  Fp acc(1);
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(x.pow(static_cast<std::uint64_t>(e)), acc);
    acc *= x;
  }
}

TEST(Fp, FromIntHandlesNegatives) {
  EXPECT_EQ(Fp::from_int(-1), Fp(Fp::kP - 1));
  EXPECT_EQ(Fp::from_int(-1) + Fp(1), Fp(0));
  EXPECT_EQ(Fp::from_int(5), Fp(5));
}

TEST(Fp, EvaluationPointsDistinctNonzero) {
  const int n = 25;
  std::vector<Fp> pts;
  for (int i = 0; i < n; ++i) pts.push_back(alpha(i));
  for (int j = 0; j < n; ++j) pts.push_back(beta(n, j));
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_FALSE(pts[i].is_zero());
    for (std::size_t j = i + 1; j < pts.size(); ++j) EXPECT_NE(pts[i], pts[j]);
  }
}

TEST(Fp, WordsRoundTrip) {
  Rng rng(9);
  std::vector<Fp> xs;
  for (int i = 0; i < 10; ++i) xs.push_back(Fp::random(rng));
  EXPECT_EQ(from_words(to_words(xs)), xs);
  EXPECT_THROW(from_words({Fp::kP}), CodecError);
}

TEST(Poly, EvalMatchesHandComputation) {
  // 3 + 2x + x^2
  Poly p(std::vector<Fp>{Fp(3), Fp(2), Fp(1)});
  EXPECT_EQ(p.eval(Fp(0)), Fp(3));
  EXPECT_EQ(p.eval(Fp(2)), Fp(11));
  EXPECT_EQ(p.degree(), 2);
}

TEST(Poly, TrimsTrailingZeros) {
  Poly p(std::vector<Fp>{Fp(1), Fp(0), Fp(0)});
  EXPECT_EQ(p.degree(), 0);
  EXPECT_EQ(Poly(std::vector<Fp>{Fp(0)}).degree(), -1);
}

TEST(Poly, ArithmeticIdentities) {
  Rng rng(11);
  Poly a = Poly::random(4, rng), b = Poly::random(3, rng);
  Fp x = Fp::random(rng);
  EXPECT_EQ((a + b).eval(x), a.eval(x) + b.eval(x));
  EXPECT_EQ((a - b).eval(x), a.eval(x) - b.eval(x));
  EXPECT_EQ((a * b).eval(x), a.eval(x) * b.eval(x));
  EXPECT_EQ(a.scaled(Fp(5)).eval(x), Fp(5) * a.eval(x));
}

TEST(Poly, InterpolateRecoversPolynomial) {
  Rng rng(13);
  for (int d = 0; d <= 6; ++d) {
    Poly q = Poly::random(d, rng);
    std::vector<Fp> xs, ys;
    for (int i = 0; i <= d; ++i) {
      xs.push_back(alpha(i));
      ys.push_back(q.eval(alpha(i)));
    }
    EXPECT_EQ(Poly::interpolate(xs, ys), q) << "degree " << d;
  }
}

TEST(Poly, InterpolateRejectsDuplicateXs) {
  // Regression: the seed silently divided by inv(0) = 0 on duplicate
  // x-coordinates and returned a garbage polynomial.
  std::vector<Fp> xs{Fp(1), Fp(2), Fp(1)};
  std::vector<Fp> ys{Fp(5), Fp(6), Fp(7)};
  EXPECT_THROW(Poly::interpolate(xs, ys), std::invalid_argument);
  EXPECT_THROW(lagrange_weights(xs, Fp(9)), std::invalid_argument);
  EXPECT_THROW(lagrange_eval(xs, ys, Fp(9)), std::invalid_argument);
  // Distinct points (even with matching ys) stay fine.
  EXPECT_NO_THROW(Poly::interpolate({Fp(1), Fp(2), Fp(3)}, {Fp(5), Fp(5), Fp(5)}));
}

TEST(Poly, RandomWithSecretFixesConstantTerm) {
  Rng rng(17);
  Fp s(99);
  Poly q = Poly::random_with_secret(5, s, rng);
  EXPECT_EQ(q.eval(Fp(0)), s);
  EXPECT_LE(q.degree(), 5);
}

TEST(Poly, LagrangeWeightsAreLinearReconstruction) {
  // Shares of q at xs combine linearly into q(at) — the mechanism behind the
  // paper's "Lagrange linear function" share derivations.
  Rng rng(19);
  Poly q = Poly::random(3, rng);
  std::vector<Fp> xs{Fp(1), Fp(2), Fp(3), Fp(4)};
  Fp at(9);
  auto w = lagrange_weights(xs, at);
  Fp acc(0);
  for (std::size_t j = 0; j < xs.size(); ++j) acc += w[j] * q.eval(xs[j]);
  EXPECT_EQ(acc, q.eval(at));
  EXPECT_EQ(lagrange_eval(xs, {q.eval(xs[0]), q.eval(xs[1]), q.eval(xs[2]), q.eval(xs[3])}, at),
            q.eval(at));
}

TEST(Bivariate, EmbeddingConstraints) {
  Rng rng(23);
  const int d = 3;
  Poly q = Poly::random(d, rng);
  SymBivariate Q = SymBivariate::random_embedding(d, q, rng);
  // Q(0,y) = q(y).
  for (int i = 0; i < 8; ++i) EXPECT_EQ(Q.eval(Fp(0), alpha(i)), q.eval(alpha(i)));
  // Symmetry: Q(a,b) = Q(b,a).
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j) EXPECT_EQ(Q.eval(alpha(i), alpha(j)), Q.eval(alpha(j), alpha(i)));
}

TEST(Bivariate, RowConsistency) {
  Rng rng(29);
  const int d = 4;
  SymBivariate Q = SymBivariate::random_embedding(d, Poly::random(d, rng), rng);
  // Row polynomials are pairwise consistent: f_i(α_j) = f_j(α_i).
  std::vector<Poly> rows;
  for (int i = 0; i < 7; ++i) rows.push_back(Q.row(alpha(i)));
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(rows[static_cast<std::size_t>(i)].degree(), d);
    for (int j = 0; j < 7; ++j)
      EXPECT_EQ(rows[static_cast<std::size_t>(i)].eval(alpha(j)),
                rows[static_cast<std::size_t>(j)].eval(alpha(i)));
  }
}

TEST(Bivariate, FromRowsReconstructs) {
  Rng rng(31);
  const int d = 3;
  Poly q = Poly::random(d, rng);
  SymBivariate Q = SymBivariate::random_embedding(d, q, rng);
  std::vector<Fp> ys;
  std::vector<Poly> rows;
  for (int i = 0; i < d + 1; ++i) {
    ys.push_back(alpha(i));
    rows.push_back(Q.row(alpha(i)));
  }
  SymBivariate R = SymBivariate::from_rows(d, ys, rows);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j) EXPECT_EQ(R.eval(alpha(i), alpha(j)), Q.eval(alpha(i), alpha(j)));
  EXPECT_EQ(R.zero_row().eval(Fp(7)), q.eval(Fp(7)));
}

TEST(Bivariate, ShareRowsHideSecretShape) {
  // Lemma 2.2 sanity: two embeddings of different secrets produce rows that
  // agree at the corrupt parties' cross-points when conditioned suitably —
  // here we just verify the dealer's degrees of freedom: the corrupt view
  // (t rows) never determines Q(0,0) (check: multiple candidate bivariates
  // extend the same t rows with different secrets).
  Rng rng(37);
  const int t = 2;
  Poly q1 = Poly::random_with_secret(t, Fp(5), rng);
  SymBivariate Q1 = SymBivariate::random_embedding(t, q1, rng);
  // Corrupt parties 0,1 see rows at α_0, α_1. Construct another bivariate
  // with a different secret consistent with those rows: interpolate from
  // rows {row0, row1, fresh row} — need t+1 = 3 rows; pick the third row so
  // the new secret differs.
  Poly r0 = Q1.row(alpha(0)), r1 = Q1.row(alpha(1));
  // Candidate third row at α_2 with value v at 0 chosen freely subject to
  // consistency with r0, r1 at cross points. Build row2 by interpolating
  // (α_0, r0(α_2)), (α_1, r1(α_2)), (0, v) for v != Q1(0, α_2).
  Fp v = Q1.eval(Fp(0), alpha(2)) + Fp(1);
  Poly row2 = Poly::interpolate({alpha(0), alpha(1), Fp(0)},
                                {r0.eval(alpha(2)), r1.eval(alpha(2)), v});
  SymBivariate Q2 = SymBivariate::from_rows(t, {alpha(0), alpha(1), alpha(2)}, {r0, r1, row2});
  // Same corrupt view...
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(Q2.eval(alpha(j), alpha(0)), r0.eval(alpha(j)));
    EXPECT_EQ(Q2.eval(alpha(j), alpha(1)), r1.eval(alpha(j)));
  }
  // ...different secret.
  EXPECT_NE(Q2.eval(Fp(0), Fp(0)), Q1.eval(Fp(0), Fp(0)));
}

TEST(Codec, RoundTrip) {
  Writer w;
  w.u8(7);
  w.u32(123456);
  w.u64(0xDEADBEEFCAFEULL);
  w.bytes({1, 2, 3});
  w.u64s({5, 6});
  Bytes b = w.take();
  Reader r(b);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), 0xDEADBEEFCAFEULL);
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.u64s(), (std::vector<std::uint64_t>{5, 6}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, LittleEndianBytesArePinned) {
  Writer w;
  w.u32(0x01020304u);
  EXPECT_EQ(w.data(), (Bytes{4, 3, 2, 1}));
  Writer w2;
  w2.u64(0x0102030405060708ULL);
  EXPECT_EQ(w2.data(), (Bytes{8, 7, 6, 5, 4, 3, 2, 1}));
  Writer w3;
  w3.u64s({1, 0xAABBULL});
  EXPECT_EQ(w3.data(), (Bytes{2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xBB, 0xAA, 0, 0, 0, 0, 0, 0}));
  Writer w4;
  w4.u64s({});
  EXPECT_EQ(w4.data(), (Bytes{0, 0, 0, 0}));
  Reader r(w3.data());
  EXPECT_EQ(r.u64s(), (std::vector<std::uint64_t>{1, 0xAABB}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, ThrowsOnTruncation) {
  Writer w;
  w.u64(1);
  Bytes b = w.take();
  b.resize(4);
  Reader r(b);
  EXPECT_THROW(r.u64(), CodecError);
  // Oversized declared length must not allocate absurd buffers.
  Writer w2;
  w2.u32(0xFFFFFFFFu);
  Reader r2(w2.data());
  EXPECT_THROW(r2.u64s(), CodecError);
}

}  // namespace
}  // namespace bobw
