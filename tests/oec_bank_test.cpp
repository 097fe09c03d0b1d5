// Differential tests for OecBank: every lane of a bank must make the same
// accept/decode decision at the same arrival — and produce the same
// polynomial, bit for bit — as an independent seed-reference OEC
// (bobw::ref::Oec) fed the same stream. Covers shuffled arrivals,
// duplicate-x injection, up-to-t corrupted lanes with different error
// positions per lane, and the m > d+2t+1 out-of-regime corner.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/field/kernels.hpp"
#include "src/field/poly.hpp"
#include "src/rs/oec_bank.hpp"
#include "src/rs/reed_solomon.hpp"
#include "tests/reference/reference.hpp"
#include "tests/reference/scalar_decoder.hpp"

namespace bobw {
namespace {

struct Stream {
  int d = 0, t = 0, L = 0;
  std::vector<Poly> qs;                 // lane polynomials
  std::vector<int> order;               // arrival order of grid indices
  std::vector<std::vector<char>> bad;   // bad[l][k]: lane l corrupt at grid k
};

// ys of lane l at grid index k (corrupt points get a deterministic offset).
Fp lane_y(const Stream& s, int l, int k) {
  Fp y = s.qs[static_cast<std::size_t>(l)].eval(alpha(k));
  if (s.bad[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)])
    y += Fp(static_cast<std::uint64_t>(1 + l + 7 * k));
  return y;
}

// Drive `bank` and L reference OECs through the same stream, asserting
// decision- and bit-identity at every single arrival.
void run_differential(const Stream& s, std::uint64_t tag) {
  OecBank bank(s.d, s.t, s.L);
  std::vector<ref::Oec> refs;
  for (int l = 0; l < s.L; ++l) refs.emplace_back(s.d, s.t);
  for (std::size_t idx = 0; idx < s.order.size(); ++idx) {
    const int k = s.order[idx];
    std::vector<Fp> ys;
    for (int l = 0; l < s.L; ++l) ys.push_back(lane_y(s, l, k));
    const bool bank_was_done = bank.all_done();
    auto out = bank.add_point(alpha(k), ys);
    std::vector<int> expect_decoded;
    for (int l = 0; l < s.L; ++l) {
      auto r = refs[static_cast<std::size_t>(l)].add_point(alpha(k), ys[static_cast<std::size_t>(l)]);
      if (r) expect_decoded.push_back(l);
    }
    if (bank_was_done) {
      EXPECT_EQ(out.status, OecStatus::kAlreadyDecoded) << "tag=" << tag;
    } else {
      EXPECT_EQ(out.status, OecStatus::kAccepted) << "tag=" << tag << " arrival=" << idx;
    }
    ASSERT_EQ(out.decoded, expect_decoded) << "tag=" << tag << " arrival=" << idx;
    for (int l = 0; l < s.L; ++l) {
      ASSERT_EQ(bank.done(l), refs[static_cast<std::size_t>(l)].done())
          << "tag=" << tag << " arrival=" << idx << " lane=" << l;
      if (bank.done(l)) {
        const auto& got = bank.result(l);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, *refs[static_cast<std::size_t>(l)].result())
            << "tag=" << tag << " lane=" << l;
        EXPECT_EQ(bank.value(l), refs[static_cast<std::size_t>(l)].result()->constant_term())
            << "tag=" << tag << " lane=" << l;
      }
    }
  }
}

// A random stream with total = d + 2t + 1 + extra_points grid points and at
// most max t (+2 if allow_excess_errors) corruptions per lane, positions
// drawn independently per lane.
Stream random_stream(Rng& rng, int extra_points, bool allow_excess_errors) {
  Stream s;
  s.d = 1 + static_cast<int>(rng.next_below(4));
  s.t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.d) + 1));
  s.L = 1 + static_cast<int>(rng.next_below(6));
  const int total_points = s.d + 2 * s.t + 1 + extra_points;
  for (int l = 0; l < s.L; ++l) s.qs.push_back(Poly::random(s.d, rng));
  s.order.resize(static_cast<std::size_t>(total_points));
  std::iota(s.order.begin(), s.order.end(), 0);
  for (std::size_t i = s.order.size(); i > 1; --i)
    std::swap(s.order[i - 1], s.order[static_cast<std::size_t>(rng.next_below(i))]);
  // Different error positions (and counts) per lane.
  const int max_errors = allow_excess_errors ? s.t + 2 : s.t;
  s.bad.assign(static_cast<std::size_t>(s.L),
               std::vector<char>(static_cast<std::size_t>(total_points), 0));
  for (int l = 0; l < s.L; ++l) {
    const int errors =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_errors) + 1));
    for (int c = 0; c < errors; ++c) {
      const int pos = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(total_points)));
      s.bad[static_cast<std::size_t>(l)][static_cast<std::size_t>(pos)] = 1;
    }
  }
  return s;
}

TEST(OecBankDiff, ShuffledArrivalsWithPerLaneErrorPositions) {
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    Rng rng(4100 + trial);
    run_differential(random_stream(rng, 0, false), trial);
  }
}

TEST(OecBankDiff, OutOfRegimeStreamsExerciseTheDescendingLoop) {
  // More contributors than d + 2t + 1 (the m > d+2t+1 corner: n need not be
  // 3t+1) and lanes whose error count may EXCEED t — decoding then happens
  // late (or never), driving the full descending e-loop. The bank must
  // match the reference decision-for-decision either way.
  Rng rng(4002);
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    const int extra = 2 + static_cast<int>(rng.next_below(4));
    Rng local(4200 + trial);
    run_differential(random_stream(local, extra, true), trial);
  }
}

TEST(OecBankDiff, CorruptedLanesWithRotatedErrorPositions) {
  // Exactly t errors in every lane, each lane's error set shifted by one
  // position — the "same grid, different corrupt senders per secret" shape
  // a real batched opening produces.
  Rng rng(4003);
  const int d = 3, t = 3, L = 8, total = d + 2 * t + 1;
  Stream s;
  s.d = d;
  s.t = t;
  s.L = L;
  for (int l = 0; l < L; ++l) s.qs.push_back(Poly::random(d, rng));
  s.order.resize(static_cast<std::size_t>(total));
  std::iota(s.order.begin(), s.order.end(), 0);
  s.bad.assign(static_cast<std::size_t>(L),
               std::vector<char>(static_cast<std::size_t>(total), 0));
  for (int l = 0; l < L; ++l)
    for (int c = 0; c < t; ++c)
      s.bad[static_cast<std::size_t>(l)][static_cast<std::size_t>((l + c) % total)] = 1;
  run_differential(s, 0);
}

TEST(OecBank, DuplicateXInjectionLeavesEveryLaneUntouched) {
  Rng rng(4004);
  const int d = 2, t = 2, L = 4, total = d + 2 * t + 1;
  std::vector<Poly> qs;
  for (int l = 0; l < L; ++l) qs.push_back(Poly::random(d, rng));
  OecBank bank(d, t, L);
  std::vector<ref::Oec> refs;
  for (int l = 0; l < L; ++l) refs.emplace_back(d, t);
  for (int k = 0; k < total; ++k) {
    std::vector<Fp> ys;
    for (int l = 0; l < L; ++l) ys.push_back(qs[static_cast<std::size_t>(l)].eval(alpha(k)));
    auto out = bank.add_point(alpha(k), ys);
    for (int l = 0; l < L; ++l)
      refs[static_cast<std::size_t>(l)].add_point(alpha(k), ys[static_cast<std::size_t>(l)]);
    if (!bank.all_done()) {
      EXPECT_EQ(out.status, OecStatus::kAccepted);
      // Re-send the same x with conflicting values: rejected, not stored.
      std::vector<Fp> forged(static_cast<std::size_t>(L), Fp(123));
      auto dup = bank.add_point(alpha(k), forged);
      EXPECT_EQ(dup.status, OecStatus::kDuplicateX);
      EXPECT_TRUE(dup.decoded.empty());
      EXPECT_EQ(bank.points_received(), k + 1);
    }
  }
  ASSERT_TRUE(bank.all_done());
  for (int l = 0; l < L; ++l) {
    EXPECT_EQ(*bank.result(l), qs[static_cast<std::size_t>(l)]);
    EXPECT_EQ(*refs[static_cast<std::size_t>(l)].result(), qs[static_cast<std::size_t>(l)]);
  }
  // All lanes are honest, so every lane decoded at d+t+1 points and the
  // remaining grid arrivals were rejected without being stored.
  EXPECT_EQ(bank.points_received(), d + t + 1);
  std::vector<Fp> late;
  for (int l = 0; l < L; ++l) late.push_back(qs[static_cast<std::size_t>(l)].eval(alpha(total)));
  EXPECT_EQ(bank.add_point(alpha(total), late).status, OecStatus::kAlreadyDecoded);
  EXPECT_EQ(bank.points_received(), d + t + 1);
}

TEST(OecBank, LanesFinishAtDifferentArrivals) {
  // Lane 0 honest (decodes at d+t+1 points); lane 1 has t early errors
  // (decodes only at d+2t+1). The bank must keep feeding the straggler
  // lane while the finished lane ignores new points.
  Rng rng(4005);
  const int d = 2, t = 2, L = 2, total = d + 2 * t + 1;
  std::vector<Poly> qs{Poly::random(d, rng), Poly::random(d, rng)};
  OecBank bank(d, t, L);
  int first_done_at = -1, second_done_at = -1;
  for (int k = 0; k < total; ++k) {
    Fp y1 = qs[1].eval(alpha(k));
    if (k < t) y1 += Fp(5);
    auto out = bank.add_point(alpha(k), std::vector<Fp>{qs[0].eval(alpha(k)), y1});
    for (int l : out.decoded) (l == 0 ? first_done_at : second_done_at) = k;
  }
  EXPECT_EQ(first_done_at, d + t);          // arrival index of the (d+t+1)-th point
  EXPECT_EQ(second_done_at, total - 1);     // needs all d+2t+1 points
  EXPECT_EQ(*bank.result(0), qs[0]);
  EXPECT_EQ(*bank.result(1), qs[1]);
  EXPECT_EQ(bank.value(0), qs[0].constant_term());
  EXPECT_EQ(bank.value(1), qs[1].constant_term());
}

TEST(OecBank, BatchedAgreementCountMatchesScalar) {
  // Differential check of count_agreements_prepowered (the bank's shared
  // power-row agreement pass after a BW success) against the scalar Horner
  // count, across degrees, candidate counts and agreement patterns.
  Rng rng(7102);
  for (int d : {0, 1, 3, 6}) {
    for (int nc : {1, 2, 5}) {
      const int m = d + 5;
      std::vector<Fp> xs;
      std::vector<std::vector<Fp>> rows;
      for (int k = 0; k < m; ++k) {
        xs.push_back(alpha(k));
        rows.push_back(power_row(alpha(k), d + 2));
      }
      std::vector<Poly> qs;
      std::vector<std::vector<Fp>> ys(static_cast<std::size_t>(nc));
      for (int c = 0; c < nc; ++c) {
        qs.push_back(Poly::random(d, rng));
        for (int k = 0; k < m; ++k) {
          Fp y = qs.back().eval(xs[static_cast<std::size_t>(k)]);
          // A sprinkling of disagreements, different per candidate.
          if ((k + c) % 3 == 0) y += Fp(static_cast<std::uint64_t>(1 + c));
          ys[static_cast<std::size_t>(c)].push_back(y);
        }
      }
      std::vector<const Poly*> qp;
      std::vector<const std::vector<Fp>*> yp;
      for (int c = 0; c < nc; ++c) {
        qp.push_back(&qs[static_cast<std::size_t>(c)]);
        yp.push_back(&ys[static_cast<std::size_t>(c)]);
      }
      const auto batched = count_agreements_prepowered(qp, yp, rows);
      for (int c = 0; c < nc; ++c)
        EXPECT_EQ(batched[static_cast<std::size_t>(c)],
                  count_agreements(qs[static_cast<std::size_t>(c)], xs,
                                   ys[static_cast<std::size_t>(c)]))
            << "d=" << d << " nc=" << nc << " c=" << c;
    }
  }
}

TEST(OecBank, RejectsMalformedUse) {
  EXPECT_THROW(OecBank(2, 1, 0), std::invalid_argument);
  EXPECT_THROW(OecBank(-1, 1, 1), std::invalid_argument);
  OecBank bank(1, 1, 2);
  EXPECT_THROW(bank.add_point(alpha(0), std::vector<Fp>{Fp(1)}), std::invalid_argument);
  EXPECT_THROW(bank.value(0), std::logic_error);
  EXPECT_FALSE(bank.result(0).has_value());
}

}  // namespace
}  // namespace bobw
