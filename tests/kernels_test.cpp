// Differential tests: the batched field kernels (src/field/kernels.hpp) and
// the incremental OEC (a one-lane OecBank) must be bit-identical to the
// frozen scalar seed paths (tests/reference/reference.hpp) across random
// inputs — same decisions at the same arrivals, same polynomials, same
// weights, same inverses.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>

#include "src/field/bivariate.hpp"
#include "src/field/kernels.hpp"
#include "src/field/poly.hpp"
#include "src/rs/oec_bank.hpp"
#include "tests/reference/reference.hpp"
#include "tests/reference/scalar_decoder.hpp"

namespace bobw {
namespace {

std::vector<Fp> random_distinct_xs(std::size_t k, Rng& rng) {
  std::vector<Fp> xs;
  while (xs.size() < k) {
    Fp x = Fp::random(rng);
    if (std::find(xs.begin(), xs.end(), x) == xs.end()) xs.push_back(x);
  }
  return xs;
}

TEST(BatchInverse, MatchesFermatInversePerElement) {
  Rng rng(2001);
  for (std::size_t k : {0u, 1u, 2u, 7u, 64u, 129u}) {
    std::vector<Fp> xs;
    for (std::size_t i = 0; i < k; ++i) xs.push_back(Fp::random(rng));
    // Sprinkle zeros: batch inversion must pass them through like
    // Fp::inv()'s 0 -> 0, not poison the whole batch.
    if (k >= 2) xs[k / 2] = Fp(0);
    std::vector<Fp> expect = xs;
    for (auto& x : expect) x = x.inv();
    std::vector<Fp> got = xs;
    batch_inverse(got);
    EXPECT_EQ(got, expect) << "k=" << k;
  }
}

TEST(PointSetDiff, WeightsMatchScalarSeed) {
  Rng rng(2002);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t k = 1 + static_cast<std::size_t>(rng.next_below(12));
    auto xs = random_distinct_xs(k, rng);
    PointSet ps(xs);
    // Random points, plus a set member (degenerate indicator case) and 0
    // (the share-opening point).
    std::vector<Fp> ats{Fp::random(rng), Fp::random(rng), xs[0], Fp(0)};
    for (Fp at : ats) {
      EXPECT_EQ(ps.weights_at(at), ref::lagrange_weights(xs, at));
      EXPECT_EQ(lagrange_weights(xs, at), ref::lagrange_weights(xs, at));
    }
  }
}

TEST(PointSetDiff, InterpolateMatchesScalarSeed) {
  Rng rng(2003);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t k = 1 + static_cast<std::size_t>(rng.next_below(12));
    auto xs = random_distinct_xs(k, rng);
    std::vector<Fp> ys;
    for (std::size_t i = 0; i < k; ++i) ys.push_back(Fp::random(rng));
    Poly expect = ref::interpolate(xs, ys);
    EXPECT_EQ(PointSet(xs).interpolate(ys), expect);
    EXPECT_EQ(Poly::interpolate(xs, ys), expect);
    // And through the process-wide cache (twice: cold, then memoised).
    auto ps = pointset(xs);
    EXPECT_EQ(ps->interpolate(ys), expect);
    EXPECT_EQ(pointset(xs)->interpolate(ys), expect);
  }
}

TEST(PointSetDiff, EvalMatchesScalarSeed) {
  Rng rng(2004);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t k = 1 + static_cast<std::size_t>(rng.next_below(10));
    auto xs = random_distinct_xs(k, rng);
    std::vector<Fp> ys;
    for (std::size_t i = 0; i < k; ++i) ys.push_back(Fp::random(rng));
    Fp at = Fp::random(rng);
    PointSet ps(xs);
    EXPECT_EQ(ps.eval(ys, at), ref::lagrange_eval(xs, ys, at));
    EXPECT_EQ(ps.eval(ys, Fp(0)), ref::lagrange_eval(xs, ys, Fp(0)));
    EXPECT_EQ(lagrange_eval(xs, ys, at), ref::lagrange_eval(xs, ys, at));
  }
}

TEST(SolveLinearDiff, DeferredPivotsMatchSeedOnRandomSystems) {
  // The deferred-pivot elimination (cross-multiplied rows, one batch_inverse
  // sweep) must return exactly the seed's solution — or exactly nullopt —
  // on every system: square, wide, tall, singular and inconsistent alike.
  Rng rng(2007);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t m = 1 + static_cast<std::size_t>(rng.next_below(7));
    const std::size_t n = 1 + static_cast<std::size_t>(rng.next_below(7));
    std::vector<std::vector<Fp>> A(m, std::vector<Fp>(n));
    std::vector<Fp> b(m);
    for (auto& row : A)
      for (auto& v : row) v = rng.next_below(3) == 0 ? Fp(0) : Fp(rng.next_below(50));
    for (auto& v : b) v = Fp(rng.next_below(50));
    // Force rank deficiency often: duplicate a row (same rhs -> singular
    // but consistent; different rhs -> inconsistent) or zero a column.
    if (m >= 2 && rng.next_below(2) == 0) {
      A[m - 1] = A[0];
      b[m - 1] = rng.next_below(2) == 0 ? b[0] : b[0] + Fp(1);
    }
    if (rng.next_below(3) == 0)
      for (std::size_t r = 0; r < m; ++r) A[r][n / 2] = Fp(0);
    auto got = solve_linear(A, b);
    auto expect = ref::solve_linear(A, b);
    ASSERT_EQ(got.has_value(), expect.has_value()) << "trial=" << trial;
    if (got) {
      EXPECT_EQ(*got, *expect) << "trial=" << trial;
    }
  }
}

TEST(BivariateDiff, FromRowsMatchesPerRowSeedInterpolation) {
  // from_rows now drives every coefficient row through one shared cached
  // PointSet; the reconstructed bivariate must match the seed's per-row
  // ref::interpolate rebuild exactly. d+1 row polynomials pin the bivariate
  // down, so comparing rows at d+1 distinct points proves full equality.
  Rng rng(2008);
  for (int trial = 0; trial < 20; ++trial) {
    const int d = 1 + static_cast<int>(rng.next_below(6));
    SymBivariate Q = SymBivariate::random_embedding(d, Poly::random(d, rng), rng);
    std::vector<Fp> ys;
    std::vector<Poly> rows;
    for (int i = 0; i <= d; ++i) {
      ys.push_back(alpha(i));
      rows.push_back(Q.row(alpha(i)));
    }
    SymBivariate R = SymBivariate::from_rows(d, ys, rows);
    // Seed path: one ref::interpolate per coefficient row.
    std::vector<std::vector<Fp>> coeff(static_cast<std::size_t>(d) + 1);
    for (int i = 0; i <= d; ++i) {
      std::vector<Fp> vals;
      for (const auto& row : rows) vals.push_back(row.coeff(i));
      coeff[static_cast<std::size_t>(i)] = ref::interpolate(ys, vals).coeffs();
      coeff[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(d) + 1, Fp(0));
    }
    for (int j = 0; j <= d; ++j) {
      std::vector<Fp> expect_row(static_cast<std::size_t>(d) + 1);
      for (int i = 0; i <= d; ++i)
        expect_row[static_cast<std::size_t>(i)] =
            Poly(coeff[static_cast<std::size_t>(i)]).eval(beta(d + 1, j));
      EXPECT_EQ(R.row(beta(d + 1, j)), Poly(expect_row)) << "trial=" << trial << " j=" << j;
      EXPECT_EQ(R.row(beta(d + 1, j)), Q.row(beta(d + 1, j))) << "trial=" << trial;
    }
  }
}

TEST(EvalRowsDiff, MatchesPolyEvalAtEveryWidth) {
  // One power row plus one 128-bit-accumulated dot product per row must
  // agree with Horner's rule on every row, including widths that cross the
  // 64-term fold (65, 130), all-zero rows, rows of p-1 and the point p-1.
  Rng rng(2102);
  const Fp top(Fp::kP - 1);
  for (std::size_t m : {1u, 2u, 3u, 64u, 65u, 130u}) {
    const std::size_t L = 5;
    RowBlock rows(L, m);  // row 0 stays all zero
    for (auto& c : rows.row(1)) c = top;
    for (std::size_t l = 2; l < L; ++l)
      for (auto& c : rows.row(l)) c = Fp::random(rng);
    rows.row(L - 1)[m - 1] = top;
    for (Fp at : {Fp(0), Fp(1), top, alpha(6), Fp::random(rng)}) {
      std::vector<Fp> got(L);
      eval_rows(rows, at, got.data());
      for (std::size_t l = 0; l < L; ++l) {
        const Poly p(std::vector<Fp>(rows.row(l).begin(), rows.row(l).end()));
        EXPECT_EQ(got[l], p.eval(at)) << "m=" << m << " l=" << l << " at=" << at;
      }
    }
  }
}

TEST(EvalRowsDiff, DotIsExactAtTheLargestAccumulator) {
  // (p-1)^2 = 1, so k products of p-1 by p-1 sum to k — the largest value
  // the 128-bit accumulator ever holds before a fold.
  const Fp top(Fp::kP - 1);
  for (std::size_t k : {0u, 1u, 63u, 64u, 65u, 128u, 130u, 1000u}) {
    const std::vector<Fp> a(k, top);
    EXPECT_EQ(dot(a.data(), a.data(), k), Fp(k)) << "k=" << k;
  }
}

TEST(BivariateFlat, RowIntoMatchesRowAndEvalIsUnchanged) {
  Rng rng(2103);
  for (int d : {0, 1, 2, 5, 64}) {
    const Poly q = Poly::random(d, rng);
    const SymBivariate Q = SymBivariate::random_embedding(d, q, rng);
    const std::size_t m = static_cast<std::size_t>(d) + 1;
    for (Fp at : {Fp(0), alpha(3), Fp(Fp::kP - 1), Fp::random(rng)}) {
      std::vector<Fp> c(m);
      Q.row_into(power_row(at, d).data(), c.data());
      const Poly row = Q.row(at);
      for (std::size_t i = 0; i < m; ++i) EXPECT_EQ(c[i], row.coeff(static_cast<int>(i))) << d;
      const Fp x = Fp::random(rng);
      EXPECT_EQ(row.eval(x), Q.eval(x, at)) << d;
      EXPECT_EQ(Q.eval(x, at), Q.eval(at, x)) << d;  // symmetric
      EXPECT_EQ(Q.eval(Fp(0), at), q.eval(at)) << d;  // embeds q
    }
  }
  // Values pinned from the nested-vector storage this layout replaced.
  Rng pin(7);
  const std::uint64_t eval_pin[] = {784232326761630812ULL, 1653191690743113256ULL,
                                    2011661308597746636ULL};
  const std::uint64_t row_pin[] = {1839217895299199794ULL, 260649312843755414ULL,
                                   666977578035923457ULL};
  int k = 0;
  for (int d : {1, 2, 5}) {
    const Poly q = Poly::random(d, pin);
    const SymBivariate Q = SymBivariate::random_embedding(d, q, pin);
    EXPECT_EQ(Q.eval(Fp(5), Fp(11)).value(), eval_pin[k]) << d;
    EXPECT_EQ(Q.row(alpha(2)).coeff(1).value(), row_pin[k]) << d;
    ++k;
  }
}

TEST(OecDiff, MatchesScalarSeedOnRandomStreams) {
  // Streams over the full protocol grid: up to t corrupt points at random
  // positions, arrival order shuffled, occasional duplicate-x injections.
  // The incremental OEC must make the same accept/decode decision at every
  // single arrival and produce the same polynomial.
  Rng rng(2005);
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const int d = 1 + static_cast<int>(rng.next_below(5));
    const int t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(d) + 1));
    const int total = d + 2 * t + 1;
    Poly q = Poly::random(d, rng);
    const int errors = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(t) + 1));
    std::vector<int> order(static_cast<std::size_t>(total));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.next_below(i))]);
    OecBank fast(d, t, 1);
    ref::Oec slow(d, t);
    for (int idx = 0; idx < total; ++idx) {
      const int k = order[static_cast<std::size_t>(idx)];
      Fp y = q.eval(alpha(k));
      if (k < errors) y += Fp(1) + Fp::random(rng);
      auto got = fast.add_point(alpha(k), std::array{y});
      auto expect = slow.add_point(alpha(k), y);
      ASSERT_EQ(!got.decoded.empty(), expect.has_value())
          << "seed=" << seed << " arrival=" << idx;
      if (!got.decoded.empty()) {
        EXPECT_EQ(*fast.result(0), *expect);
      }
      EXPECT_EQ(fast.done(0), slow.done());
      if (idx == total / 2) {
        // Duplicate mid-stream: the seed silently swallows it, the new API
        // names it — but both must leave the decode state untouched.
        auto dup = fast.add_point(alpha(k), std::array{y + Fp(1)});
        EXPECT_FALSE(slow.add_point(alpha(k), y + Fp(1)).has_value());
        EXPECT_EQ(dup.status,
                  fast.done(0) ? OecStatus::kAlreadyDecoded : OecStatus::kDuplicateX);
        EXPECT_EQ(fast.points_received(), slow.points_received());
      }
    }
    ASSERT_TRUE(fast.done(0)) << "seed=" << seed;
    EXPECT_EQ(*fast.result(0), q) << "seed=" << seed;
    EXPECT_EQ(*slow.result(), q) << "seed=" << seed;
  }
}

TEST(OecDiff, MatchesScalarSeedAtProtocolScale) {
  // One n = 64 sized stream (d = t = 21, the ts = (n-1)/3 regime) with the
  // full t corrupt points arriving first — the worst case for the decoder.
  Rng rng(2006);
  const int n = 64, t = (n - 1) / 3, d = t;
  Poly q = Poly::random(d, rng);
  OecBank fast(d, t, 1);
  ref::Oec slow(d, t);
  for (int k = 0; k < n; ++k) {
    Fp y = q.eval(alpha(k));
    if (k < t) y += Fp(1) + Fp::random(rng);
    auto got = fast.add_point(alpha(k), std::array{y});
    auto expect = slow.add_point(alpha(k), y);
    ASSERT_EQ(!got.decoded.empty(), expect.has_value()) << "arrival " << k;
    if (fast.done(0) && slow.done()) break;
  }
  ASSERT_TRUE(fast.done(0));
  EXPECT_EQ(*fast.result(0), q);
}

}  // namespace
}  // namespace bobw
