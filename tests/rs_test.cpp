#include <gtest/gtest.h>

#include <array>

#include "src/field/poly.hpp"
#include "src/rs/oec_bank.hpp"
#include "tests/reference/scalar_decoder.hpp"

namespace bobw {
namespace {

TEST(SolveLinear, SolvesAndDetectsInconsistency) {
  // x + y = 3, x - y = 1  ->  x=2, y=1.
  std::vector<std::vector<Fp>> A{{Fp(1), Fp(1)}, {Fp(1), Fp::from_int(-1)}};
  auto sol = solve_linear(A, {Fp(3), Fp(1)});
  ASSERT_TRUE(sol);
  EXPECT_EQ((*sol)[0], Fp(2));
  EXPECT_EQ((*sol)[1], Fp(1));
  // Inconsistent: x + y = 3, x + y = 4.
  std::vector<std::vector<Fp>> B{{Fp(1), Fp(1)}, {Fp(1), Fp(1)}};
  EXPECT_FALSE(solve_linear(B, {Fp(3), Fp(4)}));
}

class RsDecodeSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RsDecodeSweep, RecoversUnderMaxErrors) {
  auto [d, e] = GetParam();
  Rng rng(static_cast<std::uint64_t>(100 + d * 10 + e));
  Poly q = Poly::random(d, rng);
  const int m = d + 2 * e + 1;
  std::vector<Fp> xs, ys;
  for (int k = 0; k < m; ++k) {
    xs.push_back(alpha(k));
    ys.push_back(q.eval(alpha(k)));
  }
  // Corrupt e points.
  for (int k = 0; k < e; ++k) ys[static_cast<std::size_t>(k)] += Fp(1 + static_cast<std::uint64_t>(k));
  auto rec = rs_decode(d, e, xs, ys);
  ASSERT_TRUE(rec) << "d=" << d << " e=" << e;
  EXPECT_EQ(*rec, q);
}

INSTANTIATE_TEST_SUITE_P(DegreesAndErrors, RsDecodeSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 5),
                                            ::testing::Values(0, 1, 2, 3)));

TEST(RsDecode, FailsBeyondErrorBudget) {
  Rng rng(55);
  const int d = 2, e = 1;
  Poly q = Poly::random(d, rng);
  const int m = d + 2 * e + 1;  // 5 points, 1 error correctable
  std::vector<Fp> xs, ys;
  for (int k = 0; k < m; ++k) {
    xs.push_back(alpha(k));
    ys.push_back(q.eval(alpha(k)));
  }
  ys[0] += Fp(1);
  ys[1] += Fp(2);  // 2 errors, only 1 budgeted
  auto rec = rs_decode(d, e, xs, ys);
  // Either decoding fails, or the result disagrees with >= 2 points.
  if (rec) { EXPECT_LT(count_agreements(*rec, xs, ys), m - 1); }
}

TEST(RsDecode, ZeroPolynomialEdgeCase) {
  std::vector<Fp> xs{Fp(1), Fp(2), Fp(3)};
  std::vector<Fp> ys{Fp(0), Fp(0), Fp(0)};
  auto rec = rs_decode(0, 1, xs, ys);
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->degree(), -1);
}

TEST(RsDecode, MaximalErrorCountAtExactPointBudget) {
  // e = t with exactly d + 2e + 1 points — the tightest regime OEC ever
  // drives the decoder into (m = d + 2t + 1, e_max = t).
  for (int t = 1; t <= 5; ++t) {
    const int d = t, e = t;
    Rng rng(static_cast<std::uint64_t>(300 + t));
    Poly q = Poly::random(d, rng);
    const int m = d + 2 * e + 1;
    std::vector<Fp> xs, ys;
    for (int k = 0; k < m; ++k) {
      xs.push_back(alpha(k));
      ys.push_back(q.eval(alpha(k)));
    }
    // Exactly e corrupted points, scattered: every other position.
    for (int k = 0; k < e; ++k)
      ys[static_cast<std::size_t>(2 * k)] += Fp(3 + static_cast<std::uint64_t>(k));
    auto rec = rs_decode(d, e, xs, ys);
    ASSERT_TRUE(rec) << "t=" << t;
    EXPECT_EQ(*rec, q) << "t=" << t;
  }
}

TEST(Oec, RecoversAtMinimumHonestPoints) {
  // OEC(d, t): needs d+t+1 agreeing points (paper §2.1).
  Rng rng(77);
  const int d = 2, t = 2;
  Poly q = Poly::random(d, rng);
  OecBank oec(d, t, 1);
  // Feed d+t = 4 honest points: accepted, but decode still pending.
  for (int k = 0; k < d + t; ++k) {
    auto out = oec.add_point(alpha(k), std::array{q.eval(alpha(k))});
    EXPECT_EQ(out.status, OecStatus::kAccepted);
    EXPECT_TRUE(out.decoded.empty());
    EXPECT_FALSE(oec.done(0));
  }
  // The (d+t+1)-th honest point completes recovery.
  auto out = oec.add_point(alpha(d + t), std::array{q.eval(alpha(d + t))});
  EXPECT_EQ(out.status, OecStatus::kAccepted);
  ASSERT_FALSE(out.decoded.empty());
  EXPECT_EQ(*oec.result(0), q);
  EXPECT_TRUE(oec.done(0));
}

TEST(Oec, ToleratesEarlyCorruptPoints) {
  Rng rng(78);
  const int d = 3, t = 3;
  Poly q = Poly::random(d, rng);
  OecBank oec(d, t, 1);
  // t corrupt points arrive first — accepted (they cannot be recognised as
  // corrupt yet), decode pending.
  for (int k = 0; k < t; ++k) {
    auto out = oec.add_point(alpha(k), std::array{q.eval(alpha(k)) + Fp(9)});
    EXPECT_EQ(out.status, OecStatus::kAccepted);
    EXPECT_TRUE(out.decoded.empty());
  }
  // Then honest points trickle in; recovery must happen once d+t+1 honest
  // points are present (total d+2t+1).
  std::optional<Poly> rec;
  for (int k = t; k < d + 2 * t + 1; ++k) {
    if (!oec.add_point(alpha(k), std::array{q.eval(alpha(k))}).decoded.empty()) {
      rec = oec.result(0);
      break;
    }
  }
  ASSERT_TRUE(rec);
  EXPECT_EQ(*rec, q);
}

TEST(Oec, ReportsDuplicateContributors) {
  Rng rng(79);
  const int d = 1, t = 1;
  Poly q = Poly::random(d, rng);
  OecBank oec(d, t, 1);
  EXPECT_EQ(oec.add_point(alpha(0), std::array{q.eval(alpha(0))}).status, OecStatus::kAccepted);
  // Same x again (conflicting value): explicitly rejected as a duplicate —
  // distinguishable from an accepted-but-pending contribution — and must
  // not influence the decode.
  auto dup = oec.add_point(alpha(0), std::array{q.eval(alpha(0)) + Fp(4)});
  EXPECT_EQ(dup.status, OecStatus::kDuplicateX);
  EXPECT_TRUE(dup.decoded.empty());
  EXPECT_EQ(oec.points_received(), 1);
  EXPECT_EQ(oec.add_point(alpha(1), std::array{q.eval(alpha(1))}).status, OecStatus::kAccepted);
  auto rec = oec.add_point(alpha(2), std::array{q.eval(alpha(2))});
  EXPECT_EQ(rec.status, OecStatus::kAccepted);
  ASSERT_FALSE(rec.decoded.empty());
  EXPECT_EQ(*oec.result(0), q);
}

TEST(Oec, ReportsPointsAfterDecodeAsRejected) {
  Rng rng(80);
  const int d = 1, t = 1;
  Poly q = Poly::random(d, rng);
  OecBank oec(d, t, 1);
  for (int k = 0; k < d + t + 1; ++k) oec.add_point(alpha(k), std::array{q.eval(alpha(k))});
  ASSERT_TRUE(oec.done(0));
  // A late (even honest) point is rejected with an explicit status, not
  // silently conflated with "decode pending".
  auto late = oec.add_point(alpha(d + t + 1), std::array{q.eval(alpha(d + t + 1))});
  EXPECT_EQ(late.status, OecStatus::kAlreadyDecoded);
  EXPECT_TRUE(late.decoded.empty());
  EXPECT_EQ(oec.points_received(), d + t + 1);
}

TEST(Oec, NeverReturnsWrongPolynomialUnderMaxCorruption) {
  // Property: whatever t corrupt points do, the accepted polynomial is q.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(900 + seed);
    const int d = 2, t = 2;
    Poly q = Poly::random(d, rng);
    OecBank oec(d, t, 1);
    std::optional<Poly> rec;
    // Interleave: corrupt points at random positions among d+2t+1 total.
    for (int k = 0; k < d + 2 * t + 1 && !rec; ++k) {
      bool corrupt = k < t;
      Fp y = q.eval(alpha(k));
      if (corrupt) y += Fp::random(rng);
      if (!oec.add_point(alpha(k), std::array{y}).decoded.empty()) rec = oec.result(0);
    }
    ASSERT_TRUE(rec) << "seed " << seed;
    EXPECT_EQ(*rec, q) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bobw
