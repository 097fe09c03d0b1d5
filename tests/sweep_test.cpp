// Parameterized property sweeps across protocol layers and configurations —
// broad coverage at small per-case cost.
#include <gtest/gtest.h>

#include <array>

#include "src/ba/aba.hpp"
#include "src/bcast/bc_bank.hpp"
#include "src/mpc/sharing.hpp"
#include "src/rs/oec_bank.hpp"
#include "src/vss/vss.hpp"
#include "tests/harness.hpp"

namespace bobw {
namespace {

using test::make_world;

// ---- OEC over a (d, t, error-pattern) grid --------------------------------

class OecGrid : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(OecGrid, RecoversWithErrorsAnywhere) {
  auto [d, t, err_offset] = GetParam();
  Rng rng(static_cast<std::uint64_t>(d * 100 + t * 10 + err_offset));
  Poly q = Poly::random(d, rng);
  OecBank oec(d, t, 1);
  const int total = d + 2 * t + 1;
  std::optional<Poly> rec;
  int fed = 0;
  for (int k = 0; k < total && !rec; ++k) {
    // `t` corrupt points, placed at a sweep-dependent offset.
    const bool corrupt = k >= err_offset && k < err_offset + t;
    Fp y = q.eval(alpha(k));
    if (corrupt) y += Fp(1) + Fp::random(rng);
    auto out = oec.add_point(alpha(k), std::array{y});
    EXPECT_EQ(out.status, OecStatus::kAccepted);
    if (!out.decoded.empty()) rec = oec.result(0);
    ++fed;
  }
  ASSERT_TRUE(rec);
  EXPECT_EQ(*rec, q);
  // Recovery must not need more than d + 2t + 1 points, and must not happen
  // before d + t + 1 points.
  EXPECT_GE(fed, d + t + 1);
  EXPECT_LE(fed, total);
}

INSTANTIATE_TEST_SUITE_P(Grid, OecGrid,
                         ::testing::Combine(::testing::Values(1, 2, 4),   // d
                                            ::testing::Values(1, 2, 3),   // t
                                            ::testing::Values(0, 2, 5))); // error offset

// ---- ΠBC honest-sender sweep over (n, mode) -------------------------------

struct BcCase {
  int n;
  NetMode mode;
};

class BcSweep : public ::testing::TestWithParam<BcCase> {};

TEST_P(BcSweep, HonestSenderDeliversEverywhere) {
  const auto& c = GetParam();
  const int ts = (c.n - 1) / 3;
  auto w = make_world(c.n, ts, 0, c.mode);
  std::vector<std::unique_ptr<BcBank>> inst(static_cast<std::size_t>(c.n));
  for (int i = 0; i < c.n; ++i)
    inst[static_cast<std::size_t>(i)] =
        std::make_unique<BcBank>(w.party(i), "bc", std::vector<int>{0}, w.ctx, 0, nullptr);
  Bytes m{0xDE, 0xAD};
  w.party(0).at(0, [&] { inst[0]->broadcast(0, m); });
  w.sim->run();
  for (int i = 0; i < c.n; ++i) {
    // Regular output at T_BC in sync; in async the final output (regular or
    // fallback) must still be m.
    ASSERT_TRUE(inst[static_cast<std::size_t>(i)]->regular_decided(0));
    if (c.mode == NetMode::kSynchronous) {
      ASSERT_TRUE(inst[static_cast<std::size_t>(i)]->regular_output(0));
      EXPECT_EQ(*inst[static_cast<std::size_t>(i)]->regular_output(0), m);
    }
    ASSERT_TRUE(inst[static_cast<std::size_t>(i)]->output(0));
    EXPECT_EQ(*inst[static_cast<std::size_t>(i)]->output(0), m);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BcSweep,
                         ::testing::Values(BcCase{4, NetMode::kSynchronous},
                                           BcCase{7, NetMode::kSynchronous},
                                           BcCase{10, NetMode::kSynchronous},
                                           BcCase{13, NetMode::kSynchronous},
                                           BcCase{64, NetMode::kSynchronous},
                                           BcCase{4, NetMode::kAsynchronous},
                                           BcCase{7, NetMode::kAsynchronous},
                                           BcCase{10, NetMode::kAsynchronous},
                                           BcCase{64, NetMode::kAsynchronous}));

// ---- production-scale sweep: n = 64 under a crash adversary ---------------

TEST(BcSweep64, CrashAdversaryHonestSenderStillDelivers) {
  // The interned-route message plane must carry the n = 64 broadcast (262k+
  // deliveries) with t-many crash-silent parties: every running party still
  // outputs the sender's value.
  const int n = 64, ts = (n - 1) / 3;
  auto adv = test::crash({1, 5, 9, 13, 17, 21, 25, 29, 33, 37});
  auto w = make_world(n, ts, 0, NetMode::kSynchronous, adv);
  std::vector<std::unique_ptr<BcBank>> inst(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (!w.runs_code(i)) continue;
    inst[static_cast<std::size_t>(i)] =
        std::make_unique<BcBank>(w.party(i), "bc", std::vector<int>{0}, w.ctx, 0, nullptr);
  }
  Bytes m{0xDE, 0xAD};
  w.party(0).at(0, [&] { inst[0]->broadcast(0, m); });
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    if (!inst[static_cast<std::size_t>(i)]) continue;
    ASSERT_TRUE(inst[static_cast<std::size_t>(i)]->output(0)) << i;
    EXPECT_EQ(*inst[static_cast<std::size_t>(i)]->output(0), m) << i;
  }
}

// ---- pinned large-n ΠBC sweeps on the threaded executor -------------------
//
// The two-phase window executor must produce the SAME run at every thread
// count, so the end tick and total message count of a synchronous ΠBC are
// pinned constants: any scheduling or coalescing regression shows up as a
// changed pin, any determinism regression as a cross-thread mismatch.

struct BigBcResult {
  Tick end = 0;
  std::uint64_t msgs = 0;
};

BigBcResult run_big_bc(int n, int threads) {
  const int ts = (n - 1) / 3;
  auto w = make_world(n, ts, 0, NetMode::kSynchronous);
  w.sim->set_threads(threads);
  std::vector<std::unique_ptr<BcBank>> inst(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    inst[static_cast<std::size_t>(i)] =
        std::make_unique<BcBank>(w.party(i), "bc", std::vector<int>{0}, w.ctx, 0, nullptr);
  Bytes m{0xDE, 0xAD};
  w.party(0).at(0, [&] { inst[0]->broadcast(0, m); });
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(inst[static_cast<std::size_t>(i)]->regular_output(0)) << n << " " << i;
    if (auto v = inst[static_cast<std::size_t>(i)]->regular_output(0)) {
      EXPECT_EQ(*v, m);
    }
  }
  return {w.sim->now(), w.sim->metrics().total_msgs()};
}

TEST(BcSweepBig, N128LinearPinnedAcrossThreads) {
  const BigBcResult t1 = run_big_bc(128, 1);
  const BigBcResult t8 = run_big_bc(128, 8);
  EXPECT_EQ(t1.end, t8.end);
  EXPECT_EQ(t1.msgs, t8.msgs);
  // 43 linear phases: T_BC = 3Δ + 3·43·Δ = 132Δ.
  EXPECT_EQ(t1.end, Tick{132000});
  EXPECT_EQ(t1.msgs, std::uint64_t{1447424});
}

TEST(BcSweepBig, N256LinearPinnedAcrossThreads) {
  const BigBcResult t2 = run_big_bc(256, 2);
  const BigBcResult t8 = run_big_bc(256, 8);
  EXPECT_EQ(t2.end, t8.end);
  EXPECT_EQ(t2.msgs, t8.msgs);
  // 86 linear phases: T_BC = 3Δ + 3·86·Δ = 261Δ.
  EXPECT_EQ(t2.end, Tick{261000});
  EXPECT_EQ(t2.msgs, std::uint64_t{11425536});
}

// ---- production-scale sweep: ΠWPS / ΠVSS at n = 32 ------------------------
//
// The ok-verdict grid at n = 32 is 1024 ΠBC slots; before the broadcast bank
// that was 1024 Acasts + 1024 phase-king SBAs per sharing and the sweep was
// unaffordable. On the bank it is one coalesced Acast batch per Δ-window and
// one SBA vector per round.

TEST(WpsSweep32, HonestDealerSharesAtDeadline) {
  const int n = 32, ts = (n - 1) / 3;
  auto w = make_world(n, ts, 0, NetMode::kSynchronous);
  std::vector<std::unique_ptr<Wps>> inst(static_cast<std::size_t>(n));
  std::vector<std::optional<Tick>> done(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& slot = done[static_cast<std::size_t>(i)];
    auto* world = &w;
    inst[static_cast<std::size_t>(i)] = std::make_unique<Wps>(
        w.party(i), "wps", 0, 1, w.ctx, 0,
        [&slot, world](const std::vector<Fp>&) { slot = world->sim->now(); });
  }
  Rng rng(7);
  Poly q = Poly::random(ts, rng);
  w.party(0).at(0, [&] { inst[0]->deal({q}); });
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(done[static_cast<std::size_t>(i)]) << i;
    EXPECT_LE(*done[static_cast<std::size_t>(i)], w.ctx.T.t_wps) << i;
    EXPECT_EQ(inst[static_cast<std::size_t>(i)]->shares()[0], q.eval(alpha(i))) << i;
  }
}

TEST(VssSweep32, HonestDealerSharesAtDeadline) {
  const int n = 32, ts = (n - 1) / 3;
  auto w = make_world(n, ts, 0, NetMode::kSynchronous);
  std::vector<std::unique_ptr<Vss>> inst(static_cast<std::size_t>(n));
  std::vector<std::optional<Tick>> done(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& slot = done[static_cast<std::size_t>(i)];
    auto* world = &w;
    inst[static_cast<std::size_t>(i)] = std::make_unique<Vss>(
        w.party(i), "vss", 0, 1, w.ctx, 0,
        [&slot, world](const std::vector<Fp>&) { slot = world->sim->now(); });
  }
  Rng rng(9);
  Poly q = Poly::random(ts, rng);
  w.party(0).at(0, [&] { inst[0]->deal({q}); });
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(done[static_cast<std::size_t>(i)]) << i;
    EXPECT_LE(*done[static_cast<std::size_t>(i)], w.ctx.T.t_vss) << i;
    EXPECT_EQ(inst[static_cast<std::size_t>(i)]->shares()[0], q.eval(alpha(i))) << i;
  }
}

// ---- production-scale sweep: ΠVSS at n = 64 -------------------------------
//
// 65 ok-verdict grids (4096 slots each) plus every wef/★₂/ΠBA layer of the
// sharing ride one shared Acast window and seven SBA schedules of t+1 = 22
// phase-king phases each. Wall-clock is measured in bench/bench_vss_latency
// (vss_wall_ms_n64); this test pins the protocol outcome at that size on
// the threaded executor.

TEST(VssSweep64, HonestDealerSharesAtDeadline) {
  const int n = 64, ts = (n - 1) / 3;
  auto w = make_world(n, ts, 0, NetMode::kSynchronous);
  w.sim->set_threads(4);
  std::vector<std::unique_ptr<Vss>> inst(static_cast<std::size_t>(n));
  std::vector<std::optional<Tick>> done(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& slot = done[static_cast<std::size_t>(i)];
    auto* world = &w;
    inst[static_cast<std::size_t>(i)] = std::make_unique<Vss>(
        w.party(i), "vss", 0, 1, w.ctx, 0,
        [&slot, world](const std::vector<Fp>&) { slot = world->sim->now(); });
  }
  Rng rng(11);
  Poly q = Poly::random(ts, rng);
  w.party(0).at(0, [&] { inst[0]->deal({q}); });
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(done[static_cast<std::size_t>(i)]) << i;
    EXPECT_LE(*done[static_cast<std::size_t>(i)], w.ctx.T.t_vss) << i;
    EXPECT_EQ(inst[static_cast<std::size_t>(i)]->shares()[0], q.eval(alpha(i))) << i;
  }
  // One sharing, one shared Acast state for EVERY broadcast/BA layer (the
  // schedule plane), not 196, and seven run-wide SBA schedules (one per
  // layer start tick), not 197.
  EXPECT_EQ(test::count_banks(*w.sim, "/plane/").acast, 1);
  EXPECT_EQ(test::count_banks(*w.sim, "plane/sba").sba, 7);
}

// ---- Reconstruct over batch sizes and thresholds --------------------------

class ReconstructSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReconstructSweep, BatchesOfAllSizes) {
  auto [n, L] = GetParam();
  const int ts = (n - 1) / 3;
  auto w = make_world(n, ts, 0, NetMode::kSynchronous);
  Rng rng(static_cast<std::uint64_t>(n * 37 + L));
  std::vector<Fp> secrets;
  std::vector<Poly> polys;
  for (int l = 0; l < L; ++l) {
    secrets.push_back(Fp::random(rng));
    polys.push_back(Poly::random_with_secret(ts, secrets.back(), rng));
  }
  std::vector<std::unique_ptr<Reconstruct>> inst(static_cast<std::size_t>(n));
  std::vector<std::optional<std::vector<Fp>>> got(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& slot = got[static_cast<std::size_t>(i)];
    inst[static_cast<std::size_t>(i)] = std::make_unique<Reconstruct>(
        w.party(i), "rec", L, w.ctx, [&slot](const std::vector<Fp>& v) { slot = v; });
    std::vector<Fp> sh;
    for (int l = 0; l < L; ++l) sh.push_back(polys[static_cast<std::size_t>(l)].eval(alpha(i)));
    auto* I = inst[static_cast<std::size_t>(i)].get();
    w.party(i).at(0, [I, sh] { I->start(sh); });
  }
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(got[static_cast<std::size_t>(i)]);
    EXPECT_EQ(*got[static_cast<std::size_t>(i)], secrets);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ReconstructSweep,
                         ::testing::Combine(::testing::Values(4, 7, 10),
                                            ::testing::Values(1, 3, 17)));

// ---- ABA with private coins (ablation): safety must survive ---------------

TEST(AbaLocalCoin, SafetyHoldsWithPrivateCoins) {
  // Replacing the common coin with Ben-Or private coins hurts liveness, not
  // safety: decided honest parties still agree, and unanimity still decides.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    LocalCoin coin(seed);
    NetConfig net;
    net.mode = NetMode::kAsynchronous;
    Sim sim(4, net, seed, nullptr);
    std::vector<std::unique_ptr<AbaBank>> inst;
    std::vector<std::optional<bool>> dec(4);
    for (int i = 0; i < 4; ++i) {
      auto& slot = dec[static_cast<std::size_t>(i)];
      inst.push_back(std::make_unique<AbaBank>(sim.party(i), "aba", 1, coin, 0));
      inst.back()->enroll(inst.back()->route(), sim.routes().path_hash(inst.back()->route()),
                          [&slot](bool b) { slot = b; });
    }
    for (int i = 0; i < 4; ++i) {
      auto* I = inst[static_cast<std::size_t>(i)].get();
      bool b = i < 2;  // split 2/2
      sim.party(i).at(0, [I, b] { I->start(0, b); });
    }
    sim.run(~Tick{0}, 5'000'000ULL);
    // The event budget is a deliberate liveness bound: Ben-Or private coins
    // may never produce agreement at this adversarial split, so hitting the
    // cap (sim.truncated()) is a tolerated outcome here — NOT silent: we
    // acknowledge it explicitly and still require safety on the prefix.
    if (sim.truncated()) {
      ASSERT_EQ(sim.metrics().honest_msgs() > 0, true) << "seed " << seed;
    }
    std::optional<bool> agreed;
    for (int i = 0; i < 4; ++i) {
      if (!dec[static_cast<std::size_t>(i)]) continue;
      if (agreed) { EXPECT_EQ(*agreed, *dec[static_cast<std::size_t>(i)]) << "seed " << seed; }
      agreed = dec[static_cast<std::size_t>(i)];
    }
  }
}

}  // namespace
}  // namespace bobw
