#include <gtest/gtest.h>

#include "src/vss/verdicts.hpp"
#include "src/vss/vss.hpp"
#include "src/vss/wps.hpp"
#include "tests/harness.hpp"

namespace bobw {
namespace {

using test::make_world;
using test::BankCount;
using test::count_banks;

// ------------------------------------------------------------------ ΠWPS --

struct WpsRun {
  std::vector<std::unique_ptr<Wps>> inst;
  std::vector<std::optional<Tick>> out_time;

  WpsRun(test::World& w, int dealer, int L, Tick base) {
    inst.resize(static_cast<std::size_t>(w.n()));
    out_time.resize(static_cast<std::size_t>(w.n()));
    for (int i = 0; i < w.n(); ++i) {
      if (!w.runs_code(i)) continue;
      auto* world = &w;
      auto& slot = out_time[static_cast<std::size_t>(i)];
      inst[static_cast<std::size_t>(i)] = std::make_unique<Wps>(
          w.party(i), "wps", dealer, L, w.ctx, base,
          [&slot, world](const std::vector<Fp>&) { slot = world->sim->now(); });
    }
  }
};

std::vector<Poly> random_inputs(int L, int d, Rng& rng) {
  std::vector<Poly> qs;
  for (int l = 0; l < L; ++l) qs.push_back(Poly::random(d, rng));
  return qs;
}

TEST(Wps, SyncHonestDealerCorrectnessByTwps) {
  // Thm 4.8 ts-correctness: every honest Pi outputs q^(ℓ)(α_i) by T_WPS.
  const int n = 4, ts = 1, ta = 0, L = 2;
  auto w = make_world(n, ts, ta, NetMode::kSynchronous, test::crash({3}));
  WpsRun run(w, /*dealer=*/0, L, /*base=*/0);
  Rng rng(1);
  auto qs = random_inputs(L, ts, rng);
  w.party(0).at(0, [&] { run.inst[0]->deal(qs); });
  w.sim->run();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->has_output()) << i;
    for (int l = 0; l < L; ++l)
      EXPECT_EQ(run.inst[static_cast<std::size_t>(i)]->shares()[static_cast<std::size_t>(l)],
                qs[static_cast<std::size_t>(l)].eval(alpha(i)));
    EXPECT_LE(*run.out_time[static_cast<std::size_t>(i)], w.ctx.T.t_wps);
    // Fast path taken: BA verdict 0 ((W,E,F) accepted).
    ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->ba_verdict());
    EXPECT_FALSE(*run.inst[static_cast<std::size_t>(i)]->ba_verdict());
  }
}

TEST(Wps, AsyncHonestDealerEventualCorrectness) {
  const int n = 5, ts = 1, ta = 1, L = 1;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto w = make_world(n, ts, ta, NetMode::kAsynchronous, test::crash({4}), seed);
    WpsRun run(w, 0, L, 0);
    Rng rng(seed);
    auto qs = random_inputs(L, ts, rng);
    w.party(0).at(0, [&] { run.inst[0]->deal(qs); });
    w.sim->run();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->has_output()) << "seed " << seed << " i " << i;
      EXPECT_EQ(run.inst[static_cast<std::size_t>(i)]->shares()[0], qs[0].eval(alpha(i)));
    }
  }
}

TEST(Wps, SilentDealerNoOutput) {
  const int n = 4, ts = 1, ta = 0;
  auto w = make_world(n, ts, ta, NetMode::kSynchronous, test::crash({1}));
  WpsRun run(w, 1, 1, 0);
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    if (!w.honest(i)) continue;
    EXPECT_FALSE(run.inst[static_cast<std::size_t>(i)]->has_output());
  }
}

TEST(Wps, SyncWeakCommitmentInconsistentDealer) {
  // Corrupt dealer hands P2 a row inconsistent with a symmetric bivariate:
  // honest parties that DO output must agree with one ts-degree polynomial.
  const int n = 4, ts = 1, ta = 0, L = 1;
  auto w = make_world(n, ts, ta, NetMode::kSynchronous, test::passive({0}));
  WpsRun run(w, 0, L, 0);
  Rng rng(3);
  Poly q = Poly::random(ts, rng);
  auto Q = SymBivariate::random_embedding(ts, q, rng);
  w.party(0).at(0, [&] { run.inst[0]->deal_bivariate({Q}); });
  // The dealer is passive here (consistent sharing) — all honest output.
  w.sim->run();
  int outputs = 0;
  for (int i = 1; i < n; ++i)
    if (run.inst[static_cast<std::size_t>(i)]->has_output()) {
      ++outputs;
      EXPECT_EQ(run.inst[static_cast<std::size_t>(i)]->shares()[0], q.eval(alpha(i)));
    }
  EXPECT_EQ(outputs, 3);
}

/// L = 4 and the dealer tampers P3's rows at lanes 2 and 3. Lanes 0 and 1
/// stay consistent, so every honest verdict on P3 is NOK(2, f_i(α_3) at
/// lane 2): the least failing lane, with the verifier's own value.
template <class Run>
void expect_nok_names_least_failing_lane() {
  const int n = 4, ts = 1, ta = 0, L = 4;
  auto w = make_world(n, ts, ta, NetMode::kSynchronous, test::passive({0}));
  Run run(w, 0, L, 0);
  Rng rng(61);
  std::vector<SymBivariate> Qs;
  std::vector<std::vector<Poly>> rows(static_cast<std::size_t>(n));
  for (int l = 0; l < L; ++l) {
    Qs.push_back(SymBivariate::random_embedding(ts, Poly::random(ts, rng), rng));
    for (int i = 0; i < n; ++i) rows[static_cast<std::size_t>(i)].push_back(Qs.back().row(alpha(i)));
  }
  rows[3][2] = rows[3][2] + Poly(std::vector<Fp>{Fp(1)});
  rows[3][3] = rows[3][3] + Poly(std::vector<Fp>{Fp(2), Fp(3)});
  w.party(0).at(0, [&] { run.inst[0]->deal_rows_custom(Qs, rows); });
  w.sim->run();
  for (int observer = 1; observer < n; ++observer) {
    const VerdictState& vs = run.inst[static_cast<std::size_t>(observer)]->verdicts();
    for (int i = 1; i < n; ++i) {
      if (i == 3) continue;
      const auto& v = vs.reg(i, 3);
      ASSERT_TRUE(v) << "observer " << observer << " verifier " << i;
      EXPECT_FALSE(v->ok) << "observer " << observer << " verifier " << i;
      EXPECT_EQ(v->nok_index, 2u) << "observer " << observer << " verifier " << i;
      EXPECT_EQ(v->nok_value, Qs[2].eval(alpha(3), alpha(i)))
          << "observer " << observer << " verifier " << i;
    }
  }
}

TEST(Wps, MultiLaneNokNamesLeastFailingLane) {
  // A ΠWPS verdict compares P3's points with the payload the verifier sent
  // P3, without evaluating its rows again.
  expect_nok_names_least_failing_lane<WpsRun>();
}

/// Passive corruption that records every message sent to one party: that
/// party's whole view of a run, in send order.
class ViewRecorder : public PassiveAdversary {
 public:
  struct Entry {
    Tick at;
    int from;
    std::string route;
    int type;
    Bytes body;
    bool operator==(const Entry&) const = default;
  };
  explicit ViewRecorder(int party) : party_(party) { corrupt(party); }
  std::optional<Tick> delay_override(const Msg& m) override {
    if (m.to == party_) view.push_back({m.sent_at, m.from, route_name(m), m.type, m.body.bytes()});
    return std::nullopt;
  }
  std::vector<Entry> view;

 private:
  int party_;
};

TEST(Wps, PrivacyDealerCommunicationIndependentOfSecret) {
  // ts-privacy (Thm 4.8): an honest dealer's sharings of s and s' that agree
  // on the corrupt party c's row give c byte-identical views. F' = F +
  // (s' − s)·Z with Z(x, y) = (1 − x/α_c)(1 − y/α_c): Z is symmetric, of
  // degree ts = 1 in each variable, Z(0, 0) = 1, and Z vanishes on c's row.
  const int n = 4, ts = 1, ta = 0, c = 2;
  Rng rng(5);
  const Fp s(7), s2(1000);
  const auto F = SymBivariate::random_embedding(ts, Poly::random_with_secret(ts, s, rng), rng);
  const Fp ac_inv = alpha(c).inv();
  const Poly z_row({Fp(1), -ac_inv});  // 1 − x/α_c
  std::vector<Fp> ys;
  std::vector<Poly> rows;
  for (int j = 0; j <= ts; ++j) {
    ys.push_back(alpha(j));
    rows.push_back(F.row(alpha(j)) + z_row.scaled((s2 - s) * z_row.eval(alpha(j))));
  }
  const auto F2 = SymBivariate::from_rows(ts, ys, rows);
  ASSERT_EQ(F2.eval(Fp(0), Fp(0)), s2);

  auto run = [&](const SymBivariate& Q) {
    auto rec = std::make_shared<ViewRecorder>(c);
    auto w = make_world(n, ts, ta, NetMode::kSynchronous, rec, 11);
    WpsRun wps(w, /*dealer=*/0, /*L=*/1, /*base=*/0);
    w.party(0).at(0, [&] { wps.inst[0]->deal_bivariate({Q}); });
    w.sim->run();
    std::vector<Fp> shares;
    for (int i = 0; i < n; ++i) {
      if (i == c) continue;
      EXPECT_TRUE(wps.inst[static_cast<std::size_t>(i)]->has_output()) << i;
      if (wps.inst[static_cast<std::size_t>(i)]->has_output())
        shares.push_back(wps.inst[static_cast<std::size_t>(i)]->shares()[0]);
    }
    return std::pair{rec->view, shares};
  };
  const auto [view1, shares1] = run(F);
  const auto [view2, shares2] = run(F2);
  EXPECT_FALSE(view1.empty());
  EXPECT_TRUE(view1 == view2) << "corrupt party's view depends on the secret";
  // Not vacuous: the honest parties' wps-shares do depend on the secret.
  for (std::size_t k = 0; k < shares1.size(); ++k) EXPECT_NE(shares1[k], shares2[k]) << k;
}

TEST(Wps, StandaloneRidesOnePlane) {
  // A bare ΠWPS has one wiring, the same as a ΠVSS child's: its four
  // broadcast layers — the n² ok grid, the wef, the ΠBA input bits and the
  // ★₂ — ride four groups of ONE bank, which the instance builds itself
  // without a parent plane. So: one Acast state, under the Wps's own plane,
  // and one run-wide SBA schedule per layer start time (four), and no other
  // bank.
  const int n = 4, ts = 1, ta = 0, L = 1;
  auto w = make_world(n, ts, ta, NetMode::kSynchronous);
  WpsRun run(w, 0, L, 0);
  Rng rng(3);
  auto qs = random_inputs(L, ts, rng);
  w.party(0).at(0, [&] { run.inst[0]->deal(qs); });
  w.sim->run();
  const BankCount all = count_banks(*w.sim), plane = count_banks(*w.sim, "wps/plane/");
  EXPECT_EQ(plane.acast, 1);
  EXPECT_EQ(all.sba, 4);
  EXPECT_EQ(all.acast - plane.acast, 0);  // no stray bank
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->has_output()) << i;
    EXPECT_EQ(run.inst[static_cast<std::size_t>(i)]->shares()[0], qs[0].eval(alpha(i)));
  }
}

// ------------------------------------------------------------------ ΠVSS --

struct VssRun {
  std::vector<std::unique_ptr<Vss>> inst;
  std::vector<std::optional<Tick>> out_time;

  VssRun(test::World& w, int dealer, int L, Tick base) {
    inst.resize(static_cast<std::size_t>(w.n()));
    out_time.resize(static_cast<std::size_t>(w.n()));
    for (int i = 0; i < w.n(); ++i) {
      if (!w.runs_code(i)) continue;
      auto* world = &w;
      auto& slot = out_time[static_cast<std::size_t>(i)];
      inst[static_cast<std::size_t>(i)] = std::make_unique<Vss>(
          w.party(i), "vss", dealer, L, w.ctx, base,
          [&slot, world](const std::vector<Fp>&) { slot = world->sim->now(); });
    }
  }
};

TEST(Vss, SyncHonestDealerCorrectnessByTvss) {
  // Thm 4.16 ts-correctness: shares by T_VSS.
  const int n = 4, ts = 1, ta = 0, L = 2;
  auto w = make_world(n, ts, ta, NetMode::kSynchronous, test::crash({2}));
  VssRun run(w, 0, L, 0);
  Rng rng(7);
  auto qs = random_inputs(L, ts, rng);
  w.party(0).at(0, [&] { run.inst[0]->deal(qs); });
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    if (!w.honest(i)) continue;
    ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->has_output()) << i;
    for (int l = 0; l < L; ++l)
      EXPECT_EQ(run.inst[static_cast<std::size_t>(i)]->shares()[static_cast<std::size_t>(l)],
                qs[static_cast<std::size_t>(l)].eval(alpha(i)));
    EXPECT_LE(*run.out_time[static_cast<std::size_t>(i)], w.ctx.T.t_vss);
  }
}

TEST(Vss, OneSchedulePlanePerSharing) {
  // Transport shape of the schedule plane: every broadcast/BA layer of one
  // sharing — the (n+1)·n² ok grids, the n+1 wef and ★₂ broadcasts, the
  // (n+1)·n ΠBA input bits — rides ONE shared Acast state and exactly SEVEN
  // run-wide SBA schedules (one per distinct layer start time, independent
  // of n).
  // One independent bank per group (tests/reference/legacy_vssplanes.hpp)
  // would register 4n+4 of each. Only the per-child ΠABAs remain outside
  // the plane.
  const int n = 4, ts = 1, ta = 0, L = 1;
  auto w = make_world(n, ts, ta, NetMode::kSynchronous);
  VssRun run(w, 0, L, 0);
  Rng rng(3);
  auto qs = random_inputs(L, ts, rng);
  w.party(0).at(0, [&] { run.inst[0]->deal(qs); });
  w.sim->run();
  const BankCount plane = count_banks(*w.sim, "/plane/");
  EXPECT_EQ(plane.acast, 1);
  EXPECT_EQ(count_banks(*w.sim).sba, 7);
  // No Vss sub-instance may own a private wef/star2/ok/BA-input bank.
  EXPECT_EQ(count_banks(*w.sim, "vss/").acast - plane.acast, 0);
  for (int i = 0; i < n; ++i) ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->has_output());
  // Cross-party decode-cache accounting (src/bcast/bank_shared.*): every
  // lookup is counted once, so these pin where the banks count a hit or miss.
  EXPECT_EQ(w.sim->decode_cache_stats().hits.load(), 1235u);
  EXPECT_EQ(w.sim->decode_cache_stats().misses.load(), 151u);
}

TEST(Vss, AsyncHonestDealerEventualCorrectness) {
  const int n = 5, ts = 1, ta = 1, L = 1;
  // Decode-cache hits/misses per seed: divergent async delivery splits the
  // cohorts, so the miss share is far above the synchronous one. Batches
  // that name the same slots in a different order share bytes, since the
  // wire sorts every slot set.
  const std::uint64_t cache_hits[] = {1217, 1298, 1283};
  const std::uint64_t cache_misses[] = {938, 1027, 1019};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto w = make_world(n, ts, ta, NetMode::kAsynchronous, test::crash({3}), seed);
    VssRun run(w, 0, L, 0);
    Rng rng(seed + 10);
    auto qs = random_inputs(L, ts, rng);
    w.party(0).at(0, [&] { run.inst[0]->deal(qs); });
    w.sim->run();
    for (int i = 0; i < n; ++i) {
      if (!w.honest(i)) continue;
      ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->has_output()) << "seed " << seed;
      EXPECT_EQ(run.inst[static_cast<std::size_t>(i)]->shares()[0], qs[0].eval(alpha(i)));
    }
    EXPECT_EQ(w.sim->decode_cache_stats().hits.load(), cache_hits[seed - 1]) << "seed " << seed;
    EXPECT_EQ(w.sim->decode_cache_stats().misses.load(), cache_misses[seed - 1])
        << "seed " << seed;
  }
}

TEST(Vss, SyncStrongCommitmentInconsistentDealer) {
  // Corrupt dealer sends P3 a row off the bivariate polynomial. Strong
  // commitment (Thm 4.16): whatever happens, if any honest party outputs,
  // ALL honest parties output shares of a single ts-degree polynomial.
  const int n = 4, ts = 1, ta = 0, L = 1;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto w = make_world(n, ts, ta, NetMode::kSynchronous, test::passive({0}), seed);
    VssRun run(w, 0, L, 0);
    Rng rng(seed + 20);
    Poly q = Poly::random(ts, rng);
    auto Q = SymBivariate::random_embedding(ts, q, rng);
    std::vector<std::vector<Poly>> rows(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) rows[static_cast<std::size_t>(i)] = {Q.row(alpha(i))};
    // Corrupt P3's row.
    rows[3][0] = rows[3][0] + Poly(std::vector<Fp>{Fp(1)});
    w.party(0).at(0, [&] { run.inst[0]->deal_rows_custom({Q}, rows); });
    w.sim->run();
    // Which honest parties produced output?
    std::vector<std::pair<Fp, Fp>> pts;  // (α_i, share)
    for (int i = 1; i < n; ++i)
      if (run.inst[static_cast<std::size_t>(i)]->has_output())
        pts.emplace_back(alpha(i), run.inst[static_cast<std::size_t>(i)]->shares()[0]);
    if (pts.empty()) continue;  // "no honest party computes output" branch
    // All-or-nothing: strong commitment demands every honest party outputs.
    EXPECT_EQ(pts.size(), 3u) << "seed " << seed;
    // All shares lie on ONE degree-<=ts polynomial: with ts=1 and 3 points,
    // interpolate from 2 and check the third.
    Poly fit = Poly::interpolate({pts[0].first, pts[1].first}, {pts[0].second, pts[1].second});
    EXPECT_EQ(fit.eval(pts[2].first), pts[2].second) << "seed " << seed;
  }
}

TEST(Vss, MultiLaneNokNamesLeastFailingLane) {
  // A ΠVSS verdict evaluates the verifier's rows at α_3.
  expect_nok_names_least_failing_lane<VssRun>();
}

TEST(Vss, AsyncStrongCommitmentCorruptDealer) {
  const int n = 5, ts = 1, ta = 1, L = 1;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto w = make_world(n, ts, ta, NetMode::kAsynchronous, test::passive({1}), seed);
    VssRun run(w, 1, L, 0);
    Rng rng(seed + 30);
    Poly q = Poly::random(ts, rng);
    auto Q = SymBivariate::random_embedding(ts, q, rng);
    std::vector<std::vector<Poly>> rows(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) rows[static_cast<std::size_t>(i)] = {Q.row(alpha(i))};
    rows[2][0] = rows[2][0] + Poly(std::vector<Fp>{Fp(5)});  // tamper P2
    w.party(1).at(0, [&] { run.inst[1]->deal_rows_custom({Q}, rows); });
    w.sim->run();
    std::vector<std::pair<Fp, Fp>> pts;
    for (int i = 0; i < n; ++i) {
      if (!w.honest(i)) continue;
      if (run.inst[static_cast<std::size_t>(i)]->has_output())
        pts.emplace_back(alpha(i), run.inst[static_cast<std::size_t>(i)]->shares()[0]);
    }
    if (pts.empty()) continue;
    EXPECT_EQ(pts.size(), 4u) << "seed " << seed;  // all honest, eventually
    Poly fit = Poly::interpolate({pts[0].first, pts[1].first}, {pts[0].second, pts[1].second});
    for (std::size_t k = 2; k < pts.size(); ++k)
      EXPECT_EQ(fit.eval(pts[k].first), pts[k].second) << "seed " << seed;
  }
}

TEST(Vss, LateDealerStillSharesEventually) {
  // A dealer that starts dealing long after the schedule: regular windows
  // missed, fallback paths deliver. (Strong commitment without deadlines.)
  const int n = 4, ts = 1, ta = 0, L = 1;
  auto w = make_world(n, ts, ta, NetMode::kSynchronous, test::passive({0}), 4);
  VssRun run(w, 0, L, 0);
  Rng rng(44);
  Poly q = Poly::random(ts, rng);
  w.party(0).at(10 * w.ctx.delta, [&] { run.inst[0]->deal({q}); });
  w.sim->run();
  int outputs = 0;
  for (int i = 1; i < n; ++i)
    if (run.inst[static_cast<std::size_t>(i)]->has_output()) {
      ++outputs;
      EXPECT_EQ(run.inst[static_cast<std::size_t>(i)]->shares()[0], q.eval(alpha(i)));
    }
  // All-or-nothing among honest parties.
  EXPECT_TRUE(outputs == 0 || outputs == 3) << outputs;
}

// ------------------------------------------ acceptance check & W pruning --
//
// find_wef / accept_wef over crafted regular-mode verdict tables, n = 7,
// ts = 2 (so n−ts = 5 and an (n,ts)-star needs |E| >= 3, |F| >= 5).

constexpr int kN = 7, kTs = 2;

wire::Verdict nok_verdict(std::uint32_t index, Fp value) {
  wire::Verdict v;
  v.ok = false;
  v.nok_index = index;
  v.nok_value = value;
  return v;
}

/// Every ordered pair (i, j) of distinct parties with edge(i, j) records OK;
/// the other pairs record nothing.
template <typename Edge>
VerdictState table(Edge edge) {
  VerdictState vs(kN);
  for (int i = 0; i < kN; ++i)
    for (int j = 0; j < kN; ++j)
      if (i != j && edge(i, j)) vs.record(i, j, wire::Verdict{}, /*fallback=*/false);
  return vs;
}

VerdictState complete_table() {
  return table([](int, int) { return true; });
}

wire::StarMsg star(std::vector<int> W, std::vector<int> E, std::vector<int> F) {
  return {std::move(W), std::move(E), std::move(F)};
}

TEST(StarRules, AcceptsAValidStar) {
  EXPECT_TRUE(accept_wef(complete_table(), star({0, 1, 2, 3, 4, 5, 6}, {0, 1, 2}, {0, 1, 2, 3, 4}),
                         kTs));
}

TEST(StarRules, RejectsConflictingNokPairInsideW) {
  // P0 and P1 NOK each other on index 0 with different values; every other
  // pair is consistent, so degrees and the star hold.
  auto pair01 = [](int i, int j) { return !((i == 0 && j == 1) || (i == 1 && j == 0)); };
  VerdictState vs = table(pair01);
  vs.record(0, 1, nok_verdict(0, Fp(5)), false);
  vs.record(1, 0, nok_verdict(0, Fp(6)), false);
  const auto s = star({0, 1, 2, 3, 4, 5, 6}, {2, 3, 4}, {0, 2, 3, 4, 5});
  EXPECT_FALSE(accept_wef(vs, s, kTs));
  // Same pair, same claimed value: not a conflict, accepted.
  VerdictState agree = table(pair01);
  agree.record(0, 1, nok_verdict(0, Fp(5)), false);
  agree.record(1, 0, nok_verdict(0, Fp(5)), false);
  EXPECT_TRUE(accept_wef(agree, s, kTs));
}

TEST(StarRules, RejectsLowDegreeInsideW) {
  // P0..P5 are a clique; P6 is consistent with P0, P1, P2 and P5 only. Its
  // overall degree is 4 + 1 (self) = n−ts, but W leaves out P5, so inside
  // W it has 3 + 1 < n−ts partners.
  auto edge = [](int i, int j) {
    if (i == 6 || j == 6) {
      const int other = i == 6 ? j : i;
      return other == 0 || other == 1 || other == 2 || other == 5;
    }
    return true;
  };
  const VerdictState vs = table(edge);
  EXPECT_FALSE(accept_wef(vs, star({0, 1, 2, 3, 4, 6}, {0, 1, 2}, {0, 1, 2, 3, 4}), kTs));
  // The same star without P6 in W is accepted.
  EXPECT_TRUE(accept_wef(vs, star({0, 1, 2, 3, 4}, {0, 1, 2}, {0, 1, 2, 3, 4}), kTs));
}

TEST(StarRules, RejectsANonStar) {
  // Complete graph, W = everyone, but |E| = 2 < n−2ts.
  EXPECT_FALSE(accept_wef(complete_table(), star({0, 1, 2, 3, 4, 5, 6}, {0, 1}, {0, 1, 2, 3, 4}),
                          kTs));
}

TEST(StarRules, RejectsSmallWAndStarOutsideW) {
  // |W| < n−ts and E/F outside W are rejected. Both rules are implied by
  // the others for any decodable (duplicate-free) W: a member's degree
  // inside W is at most |W|, and the star is checked on the graph induced
  // by W, where a party outside W has no edges.
  const VerdictState vs = complete_table();
  EXPECT_FALSE(accept_wef(vs, star({0, 1, 2, 3}, {0, 1, 2}, {0, 1, 2, 3}), kTs));
  EXPECT_FALSE(accept_wef(vs, star({0, 1, 2, 3, 4}, {0, 1, 2}, {0, 1, 2, 3, 5}), kTs));
  EXPECT_FALSE(accept_wef(vs, star({0, 1, 2, 3, 4}, {0, 1, 5}, {0, 1, 2, 3, 4, 5}), kTs));
}

TEST(StarRules, DealerPrunesPartyWhoseNokClaimsAWrongValue) {
  // P6 NOKs P5 (so the pair has no edge) and is consistent with everyone
  // else: degree 5 + 1 >= n−ts. If its claimed value is the dealer's
  // Q(α_5, α_6), P6 stays in W; if it lies, the dealer drops all of P6's
  // edges and W shrinks to the other six.
  Rng rng(17);
  const Poly q = Poly::random(kTs, rng);
  const std::vector<SymBivariate> Qs{SymBivariate::random_embedding(kTs, q, rng)};
  auto edge = [](int i, int j) { return !((i == 6 && j == 5) || (i == 5 && j == 6)); };
  const Fp truth = Qs[0].eval(alpha(5), alpha(6));

  VerdictState honest = table(edge);
  honest.record(6, 5, nok_verdict(0, truth), false);
  auto wef = find_wef(honest, Qs, kTs);
  ASSERT_TRUE(wef);
  EXPECT_EQ(wef->W, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));

  VerdictState liar = table(edge);
  liar.record(6, 5, nok_verdict(0, truth + Fp(1)), false);
  wef = find_wef(liar, Qs, kTs);
  ASSERT_TRUE(wef);
  EXPECT_EQ(wef->W, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(accept_wef(liar, *wef, kTs));

  VerdictState bad_index = table(edge);
  bad_index.record(6, 5, nok_verdict(1, truth), false);  // L = 1: index 1 does not exist
  wef = find_wef(bad_index, Qs, kTs);
  ASSERT_TRUE(wef);
  EXPECT_EQ(wef->W, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace bobw
