// Tests for the MPC preprocessing stack: Reconstruct, BeaverBatch,
// ΠTripTrans, ΠTripSh, ΠTripExt, ΠPreProcessing.
#include <gtest/gtest.h>

#include <limits>

#include "src/mpc/beaver.hpp"
#include "src/mpc/preprocess.hpp"
#include "src/mpc/sharing.hpp"
#include "src/mpc/trip_ext.hpp"
#include "src/mpc/trip_sh.hpp"
#include "src/mpc/trip_trans.hpp"
#include "tests/harness.hpp"

namespace bobw {
namespace {

using test::make_world;

/// Deal shares of `secrets` with degree-ts polynomials; returns share matrix
/// [party][secret].
std::vector<std::vector<Fp>> share_values(int n, int ts, const std::vector<Fp>& secrets, Rng& rng) {
  std::vector<std::vector<Fp>> shares(static_cast<std::size_t>(n),
                                      std::vector<Fp>(secrets.size()));
  for (std::size_t s = 0; s < secrets.size(); ++s) {
    Poly q = Poly::random_with_secret(ts, secrets[s], rng);
    for (int i = 0; i < n; ++i) shares[static_cast<std::size_t>(i)][s] = q.eval(alpha(i));
  }
  return shares;
}

std::vector<std::vector<TripleShare>> share_triples(int n, int ts,
                                                    const std::vector<std::array<Fp, 3>>& trips,
                                                    Rng& rng) {
  std::vector<Fp> flat;
  for (const auto& t : trips) {
    flat.push_back(t[0]);
    flat.push_back(t[1]);
    flat.push_back(t[2]);
  }
  auto sh = share_values(n, ts, flat, rng);
  std::vector<std::vector<TripleShare>> out(static_cast<std::size_t>(n),
                                            std::vector<TripleShare>(trips.size()));
  for (int i = 0; i < n; ++i)
    for (std::size_t k = 0; k < trips.size(); ++k)
      out[static_cast<std::size_t>(i)][k] =
          TripleShare{sh[static_cast<std::size_t>(i)][3 * k], sh[static_cast<std::size_t>(i)][3 * k + 1],
                      sh[static_cast<std::size_t>(i)][3 * k + 2]};
  return out;
}

class NetSweep : public ::testing::TestWithParam<NetMode> {};

TEST_P(NetSweep, ReconstructRecoversSecrets) {
  const int n = 4, ts = 1, ta = GetParam() == NetMode::kAsynchronous ? 1 : 0;
  auto w = make_world(n, ts, 0, GetParam(), test::crash({3}));
  (void)ta;
  Rng rng(3);
  std::vector<Fp> secrets{Fp(10), Fp(20), Fp(12345)};
  auto shares = share_values(n, ts, secrets, rng);
  std::vector<std::unique_ptr<Reconstruct>> inst(static_cast<std::size_t>(n));
  std::vector<std::optional<std::vector<Fp>>> got(static_cast<std::size_t>(n));
  for (int i = 0; i < 3; ++i) {
    auto& slot = got[static_cast<std::size_t>(i)];
    inst[static_cast<std::size_t>(i)] = std::make_unique<Reconstruct>(
        w.party(i), "rec", 3, w.ctx, [&slot](const std::vector<Fp>& v) { slot = v; });
    auto* I = inst[static_cast<std::size_t>(i)].get();
    auto sh = shares[static_cast<std::size_t>(i)];
    w.party(i).at(0, [I, sh] { I->start(sh); });
  }
  w.sim->run();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(got[static_cast<std::size_t>(i)]);
    EXPECT_EQ(*got[static_cast<std::size_t>(i)], secrets);
  }
}

TEST_P(NetSweep, ReconstructToleratesWrongShares) {
  // One active corrupt party sends garbage shares — OEC must still recover.
  class WrongShares : public Adversary {
   public:
    bool participates(int) const override { return true; }
    bool filter_outgoing(Msg& m, Rng&) override {
      if (m.body.size() >= 8) m.body.mutable_bytes()[4] ^= 0x3C;
      return true;
    }
  };
  auto adv = std::make_shared<WrongShares>();
  adv->corrupt(2);
  const int n = 4, ts = 1;
  auto w = make_world(n, ts, 0, GetParam(), adv);
  Rng rng(4);
  std::vector<Fp> secrets{Fp(777)};
  auto shares = share_values(n, ts, secrets, rng);
  std::vector<std::unique_ptr<Reconstruct>> inst(static_cast<std::size_t>(n));
  std::vector<std::optional<std::vector<Fp>>> got(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& slot = got[static_cast<std::size_t>(i)];
    inst[static_cast<std::size_t>(i)] = std::make_unique<Reconstruct>(
        w.party(i), "rec", 1, w.ctx, [&slot](const std::vector<Fp>& v) { slot = v; });
    auto* I = inst[static_cast<std::size_t>(i)].get();
    auto sh = shares[static_cast<std::size_t>(i)];
    w.party(i).at(0, [I, sh] { I->start(sh); });
  }
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    if (!w.honest(i)) continue;
    ASSERT_TRUE(got[static_cast<std::size_t>(i)]);
    EXPECT_EQ((*got[static_cast<std::size_t>(i)])[0], Fp(777));
  }
}

TEST_P(NetSweep, BeaverComputesProducts) {
  const int n = 4, ts = 1;
  auto w = make_world(n, ts, 0, GetParam(), test::crash({1}));
  Rng rng(5);
  Fp x(6), y(7), a(100), b(200);
  auto shares = share_values(n, ts, {x, y, a, b, a * b}, rng);
  std::vector<std::unique_ptr<BeaverBatch>> inst(static_cast<std::size_t>(n));
  std::vector<std::optional<std::vector<Fp>>> z(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (!w.runs_code(i)) continue;
    auto& slot = z[static_cast<std::size_t>(i)];
    inst[static_cast<std::size_t>(i)] = std::make_unique<BeaverBatch>(
        w.party(i), "bv", w.ctx, [&slot](const std::vector<Fp>& v) { slot = v; });
    auto* I = inst[static_cast<std::size_t>(i)].get();
    const auto& sh = shares[static_cast<std::size_t>(i)];
    BeaverIn in{sh[0], sh[1], TripleShare{sh[2], sh[3], sh[4]}};
    w.party(i).at(0, [I, in] { I->start({in}); });
  }
  w.sim->run();
  // Reconstruct z from the honest z-shares: they lie on a degree-ts poly
  // with constant term x*y.
  std::vector<Fp> xs, ys;
  for (int i = 0; i < n; ++i) {
    if (!w.honest(i) || !z[static_cast<std::size_t>(i)]) continue;
    xs.push_back(alpha(i));
    ys.push_back((*z[static_cast<std::size_t>(i)])[0]);
  }
  ASSERT_GE(xs.size(), static_cast<std::size_t>(ts + 1));
  EXPECT_EQ(lagrange_eval(xs, ys, Fp(0)), x * y);
}

INSTANTIATE_TEST_SUITE_P(BothNetworks, NetSweep,
                         ::testing::Values(NetMode::kSynchronous, NetMode::kAsynchronous));

TEST(TripTrans, PreservesMultiplicativityAndPolynomials) {
  const int n = 4, ts = 1, d = 1;
  auto w = make_world(n, ts, 0, NetMode::kSynchronous);
  Rng rng(6);
  std::vector<std::array<Fp, 3>> trips;
  for (int k = 0; k < 2 * d + 1; ++k) {
    Fp a = Fp::random(rng), b = Fp::random(rng);
    trips.push_back({a, b, a * b});
  }
  auto tshares = share_triples(n, ts, trips, rng);
  std::vector<Fp> grid{alpha(0), alpha(1), alpha(2)};
  std::vector<std::unique_ptr<TripTrans>> inst(static_cast<std::size_t>(n));
  std::vector<std::optional<std::vector<TripleShare>>> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& slot = out[static_cast<std::size_t>(i)];
    inst[static_cast<std::size_t>(i)] = std::make_unique<TripTrans>(
        w.party(i), "tt", w.ctx, d, grid,
        [&slot](const std::vector<TripleShare>& o) { slot = o; });
    auto* I = inst[static_cast<std::size_t>(i)].get();
    auto sh = tshares[static_cast<std::size_t>(i)];
    w.party(i).at(0, [I, sh] { I->start(sh); });
  }
  w.sim->run();
  // Open each transformed triple and check Z(x_k) = X(x_k)*Y(x_k).
  for (int k = 0; k < 2 * d + 1; ++k) {
    std::vector<Fp> xs, as, bs, cs;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(out[static_cast<std::size_t>(i)]);
      xs.push_back(alpha(i));
      as.push_back((*out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(k)].a);
      bs.push_back((*out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(k)].b);
      cs.push_back((*out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(k)].c);
    }
    Fp A = lagrange_eval(xs, as, Fp(0)), B = lagrange_eval(xs, bs, Fp(0)),
       C = lagrange_eval(xs, cs, Fp(0));
    EXPECT_EQ(A * B, C) << "transformed triple " << k;
  }
  // First d+1 triples pass through unchanged.
  {
    std::vector<Fp> xs, as;
    for (int i = 0; i < n; ++i) {
      xs.push_back(alpha(i));
      as.push_back((*out[static_cast<std::size_t>(i)])[0].a);
    }
    EXPECT_EQ(lagrange_eval(xs, as, Fp(0)), trips[0][0]);
  }
}

TEST(TripTrans, NonMultiplicativeInputYieldsNonMultiplicativeOutput) {
  // Fig 7 property: output triple k is multiplicative iff input k is.
  const int n = 4, ts = 1, d = 1;
  auto w = make_world(n, ts, 0, NetMode::kSynchronous);
  Rng rng(7);
  std::vector<std::array<Fp, 3>> trips;
  for (int k = 0; k < 3; ++k) {
    Fp a = Fp::random(rng), b = Fp::random(rng);
    trips.push_back({a, b, a * b});
  }
  trips[2][2] += Fp(1);  // break the triple used for the Beaver recompute
  auto tshares = share_triples(n, ts, trips, rng);
  std::vector<Fp> grid{alpha(0), alpha(1), alpha(2)};
  std::vector<std::unique_ptr<TripTrans>> inst(static_cast<std::size_t>(n));
  std::vector<std::optional<std::vector<TripleShare>>> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& slot = out[static_cast<std::size_t>(i)];
    inst[static_cast<std::size_t>(i)] = std::make_unique<TripTrans>(
        w.party(i), "tt", w.ctx, d, grid,
        [&slot](const std::vector<TripleShare>& o) { slot = o; });
    auto* I = inst[static_cast<std::size_t>(i)].get();
    auto sh = tshares[static_cast<std::size_t>(i)];
    w.party(i).at(0, [I, sh] { I->start(sh); });
  }
  w.sim->run();
  auto open_triple = [&](int k) {
    std::vector<Fp> xs, as, bs, cs;
    for (int i = 0; i < n; ++i) {
      xs.push_back(alpha(i));
      as.push_back((*out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(k)].a);
      bs.push_back((*out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(k)].b);
      cs.push_back((*out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(k)].c);
    }
    return std::array<Fp, 3>{lagrange_eval(xs, as, Fp(0)), lagrange_eval(xs, bs, Fp(0)),
                             lagrange_eval(xs, cs, Fp(0))};
  };
  auto t0 = open_triple(0), t1 = open_triple(1), t2 = open_triple(2);
  EXPECT_EQ(t0[0] * t0[1], t0[2]);
  EXPECT_EQ(t1[0] * t1[1], t1[2]);
  EXPECT_NE(t2[0] * t2[1], t2[2]);  // inherits the corruption
}

struct TripShRun {
  std::vector<std::unique_ptr<TripSh>> inst;
  std::vector<std::optional<std::vector<TripleShare>>> out;

  TripShRun(test::World& w, int dealer, int L) {
    inst.resize(static_cast<std::size_t>(w.n()));
    out.resize(static_cast<std::size_t>(w.n()));
    for (int i = 0; i < w.n(); ++i) {
      if (!w.runs_code(i)) continue;
      auto& slot = out[static_cast<std::size_t>(i)];
      inst[static_cast<std::size_t>(i)] = std::make_unique<TripSh>(
          w.party(i), "tripsh", dealer, L, w.ctx, 0,
          [&slot](const std::vector<TripleShare>& t) { slot = t; });
    }
  }
};

std::array<Fp, 3> open_shared_triple(test::World& w, const TripShRun& run, int l) {
  std::vector<Fp> xs, as, bs, cs;
  for (int i = 0; i < w.n(); ++i) {
    if (!w.honest(i) || !run.out[static_cast<std::size_t>(i)]) continue;
    xs.push_back(alpha(i));
    as.push_back((*run.out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(l)].a);
    bs.push_back((*run.out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(l)].b);
    cs.push_back((*run.out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(l)].c);
  }
  return {lagrange_eval(xs, as, Fp(0)), lagrange_eval(xs, bs, Fp(0)),
          lagrange_eval(xs, cs, Fp(0))};
}

TEST(TripSh, HonestDealerProducesMultiplicationTriples) {
  const int n = 4, ts = 1, ta = 0, L = 2;
  auto w = make_world(n, ts, ta, NetMode::kSynchronous, nullptr, 11);
  TripShRun run(w, /*dealer=*/0, L);
  w.party(0).at(0, [&] { run.inst[0]->deal(); });
  w.sim->run();
  for (int i = 0; i < n; ++i) ASSERT_TRUE(run.out[static_cast<std::size_t>(i)]) << i;
  for (int l = 0; l < L; ++l) {
    auto t = open_shared_triple(w, run, l);
    EXPECT_EQ(t[0] * t[1], t[2]) << "triple " << l;
    EXPECT_FALSE(t[0].is_zero());  // random, overwhelmingly non-zero
  }
  for (int i = 0; i < n; ++i) EXPECT_FALSE(run.inst[static_cast<std::size_t>(i)]->dealer_exposed());
}

TEST(TripSh, CheatingDealerExposedAndDefaulted) {
  // Dealer shares a non-multiplicative triple: supervised verification must
  // expose it; output falls back to the default (0,0,0) sharing.
  const int n = 4, ts = 1, ta = 0, L = 1;
  auto w = make_world(n, ts, ta, NetMode::kSynchronous, test::passive({0}), 12);
  TripShRun run(w, 0, L);
  Rng rng(12);
  std::vector<std::array<Fp, 3>> bad;
  for (int k = 0; k < 2 * ts + 1; ++k) {
    Fp a = Fp::random(rng), b = Fp::random(rng);
    bad.push_back({a, b, a * b});
  }
  bad[1][2] += Fp(3);  // one broken triple
  w.party(0).at(0, [&] { run.inst[0]->deal_with(bad); });
  w.sim->run();
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(run.out[static_cast<std::size_t>(i)]) << i;
    EXPECT_TRUE(run.inst[static_cast<std::size_t>(i)]->dealer_exposed());
  }
  auto t = open_shared_triple(w, run, 0);
  EXPECT_TRUE(t[0].is_zero());
  EXPECT_TRUE(t[1].is_zero());
  EXPECT_TRUE(t[2].is_zero());
}

TEST(TripSh, AsyncHonestDealerEventual) {
  const int n = 5, ts = 1, ta = 1, L = 1;
  auto w = make_world(n, ts, ta, NetMode::kAsynchronous, test::crash({4}), 13);
  TripShRun run(w, 0, L);
  w.party(0).at(0, [&] { run.inst[0]->deal(); });
  w.sim->run();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(run.out[static_cast<std::size_t>(i)]) << i;
  auto t = open_shared_triple(w, run, 0);
  EXPECT_EQ(t[0] * t[1], t[2]);
}

struct PreprocessRun {
  std::vector<std::unique_ptr<Preprocess>> inst;
  std::vector<std::optional<std::vector<TripleShare>>> out;
  std::vector<Tick> out_time;

  PreprocessRun(test::World& w, int cm) {
    inst.resize(static_cast<std::size_t>(w.n()));
    out.resize(static_cast<std::size_t>(w.n()));
    out_time.resize(static_cast<std::size_t>(w.n()));
    for (int i = 0; i < w.n(); ++i) {
      if (!w.runs_code(i)) continue;
      auto& slot = out[static_cast<std::size_t>(i)];
      auto& at = out_time[static_cast<std::size_t>(i)];
      auto* world = &w;
      inst[static_cast<std::size_t>(i)] = std::make_unique<Preprocess>(
          w.party(i), "prep", w.ctx, 0, cm,
          [&slot, &at, world](const std::vector<TripleShare>& t) {
            slot = t;
            at = world->sim->now();
          });
      auto* I = inst[static_cast<std::size_t>(i)].get();
      w.party(i).at(0, [I] { I->deal(); });
    }
  }
};

/// Runs ΠPreProcessing at n = 4, ts = 1 and checks Thm 6.5: every honest
/// party outputs c_M triples, by T_TripGen in sync, and every triple opens
/// to a multiplicative (a, b, a·b). Reports the honest parties' bits sent.
void expect_triples(int cm, NetMode mode, std::shared_ptr<Adversary> adv, std::uint64_t seed,
                    std::uint64_t* honest_bits = nullptr) {
  SCOPED_TRACE(testing::Message() << "c_M " << cm << " seed " << seed);
  const int n = 4, ts = 1, ta = 0;
  auto w = make_world(n, ts, ta, mode, std::move(adv), seed);
  PreprocessRun run(w, cm);
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    if (!w.honest(i)) continue;
    ASSERT_TRUE(run.out[static_cast<std::size_t>(i)]) << "party " << i;
    ASSERT_EQ(run.out[static_cast<std::size_t>(i)]->size(), static_cast<std::size_t>(cm));
    if (mode == NetMode::kSynchronous) {
      EXPECT_LE(run.out_time[static_cast<std::size_t>(i)], w.ctx.T.t_tripgen) << "party " << i;
    }
  }
  // Open every triple: all must be multiplicative.
  for (int k = 0; k < cm; ++k) {
    std::vector<Fp> xs, as, bs, cs;
    for (int i = 0; i < n; ++i) {
      if (!w.honest(i)) continue;
      xs.push_back(alpha(i));
      as.push_back((*run.out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(k)].a);
      bs.push_back((*run.out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(k)].b);
      cs.push_back((*run.out[static_cast<std::size_t>(i)])[static_cast<std::size_t>(k)].c);
    }
    EXPECT_EQ(lagrange_eval(xs, as, Fp(0)) * lagrange_eval(xs, bs, Fp(0)),
              lagrange_eval(xs, cs, Fp(0)))
        << "triple " << k;
  }
  if (honest_bits) *honest_bits = w.sim->metrics().honest_bits();
}

TEST(Preprocess, GeneratesRequestedTriples) {
  expect_triples(3, NetMode::kSynchronous, test::crash({2}), 14);
  // The c_M-independent part of the cost amortises: honest bits per triple
  // fall strictly with c_M (1.01e7, 3.03e6, 1.27e6 at c_M = 1, 4, 16), while
  // every run still ends by T_TripGen (outputs at 115 Δ against 134 Δ).
  double prev = std::numeric_limits<double>::infinity();
  for (int cm : {1, 4, 16}) {
    std::uint64_t bits = 0;
    expect_triples(cm, NetMode::kSynchronous, nullptr, 10 + static_cast<std::uint64_t>(cm), &bits);
    const double per_triple = static_cast<double>(bits) / cm;
    EXPECT_LT(per_triple, prev) << "c_M " << cm;
    prev = per_triple;
  }
  expect_triples(4, NetMode::kAsynchronous, nullptr, 99);
}

}  // namespace
}  // namespace bobw
