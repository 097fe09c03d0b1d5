// End-to-end tests for ΠCirEval (Theorem 7.1) through the public runner API,
// plus the Circuit IR itself and the sync-only baseline failure mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "src/core/runner.hpp"
#include "src/mpc/baseline.hpp"
#include "tests/harness.hpp"

namespace bobw {
namespace {

/// The inputs f is evaluated on: party j's input if j is in the agreed CS,
/// else the default 0.
std::vector<Fp> cs_inputs(const MpcResult& res, const std::vector<Fp>& inputs) {
  std::vector<Fp> eff(inputs.size(), Fp(0));
  for (int j : res.input_cs) eff[static_cast<std::size_t>(j)] = inputs[static_cast<std::size_t>(j)];
  return eff;
}

TEST(Circuit, BuilderAndPlainEval) {
  Circuit c(4);
  int x0 = c.input(0), x1 = c.input(1), x2 = c.input(2), x3 = c.input(3);
  int s = c.add(x0, x1);
  int t = c.sub(x2, x3);
  int u = c.mul_const(s, Fp(3));
  int v = c.add_const(t, Fp(10));
  c.set_output(c.mul(u, v));
  // (x0+x1)*3 * (x2-x3+10)
  EXPECT_EQ(c.eval_plain({Fp(1), Fp(2), Fp(9), Fp(4)}), Fp(9 * 15));
  EXPECT_EQ(c.mult_count(), 1);
  EXPECT_EQ(c.mult_depth(), 1);
  EXPECT_EQ(c.input_wire(2), x2);
}

TEST(Circuit, DepthAndCountAccounting) {
  auto c = circuits::mult_chain(4, 5);
  EXPECT_EQ(c.mult_count(), 5);
  EXPECT_EQ(c.mult_depth(), 5);
  auto s = circuits::sum_of_squares(4);
  EXPECT_EQ(s.mult_count(), 4);
  EXPECT_EQ(s.mult_depth(), 1);
  EXPECT_EQ(circuits::sum_all(5).mult_count(), 0);
}

TEST(Circuit, RejectsMalformedConstruction) {
  Circuit c(2);
  EXPECT_THROW(c.input(5), std::invalid_argument);
  int w = c.input(0);
  EXPECT_THROW(c.input(0), std::invalid_argument);  // duplicate input wire
  EXPECT_THROW(c.add(w, 99), std::invalid_argument);
  EXPECT_THROW(c.set_output(42), std::invalid_argument);
}

TEST(CirEval, SyncAllHonestComputesF) {
  // n=4, ts=1, ta=0, no faults: output = f over ALL inputs.
  auto cir = circuits::pairwise_sums_product(4);
  std::vector<Fp> inputs{Fp(3), Fp(5), Fp(7), Fp(11)};
  MpcConfig cfg;
  cfg.seed = 21;
  auto res = run_mpc(cir, inputs, cfg);
  Fp expect = cir.eval_plain(inputs);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(res.outputs[static_cast<std::size_t>(i)]) << i;
    EXPECT_EQ(*res.outputs[static_cast<std::size_t>(i)], expect);
  }
  EXPECT_EQ(res.input_cs.size(), 4u);
}

TEST(CirEval, SyncWithCrashFaultHonestInputsIncluded) {
  // Thm 7.1 (sync): every honest party is in CS — the crashed party's input
  // defaults to 0.
  auto cir = circuits::sum_all(4);
  std::vector<Fp> inputs{Fp(1), Fp(2), Fp(3), Fp(100)};
  MpcConfig cfg;
  cfg.corrupt = {3};
  cfg.seed = 22;
  auto res = run_mpc(cir, inputs, cfg);
  Fp expect = cir.eval_plain({Fp(1), Fp(2), Fp(3), Fp(0)});  // x3 -> 0
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(res.outputs[static_cast<std::size_t>(i)]) << i;
    EXPECT_EQ(*res.outputs[static_cast<std::size_t>(i)], expect);
  }
  for (int h = 0; h < 3; ++h)
    EXPECT_NE(std::find(res.input_cs.begin(), res.input_cs.end(), h), res.input_cs.end());
}

TEST(CirEval, SyncMultiplicationWithFault) {
  auto cir = circuits::sum_of_squares(4);
  std::vector<Fp> inputs{Fp(2), Fp(3), Fp(4), Fp(5)};
  MpcConfig cfg;
  cfg.corrupt = {1};
  cfg.seed = 23;
  auto res = run_mpc(cir, inputs, cfg);
  Fp expect = cir.eval_plain({Fp(2), Fp(0), Fp(4), Fp(5)});
  EXPECT_TRUE(res.all_honest_agree(cfg.corrupt));
  ASSERT_TRUE(res.outputs[0]);
  EXPECT_EQ(*res.outputs[0], expect);
}

TEST(CirEval, AsyncComputesFWithPossiblyDroppedInput) {
  // Async, ta=1 crash fault: CS of size >= n−ts; honest inputs may be
  // dropped (at most ts of them) — verify agreement & that the output
  // matches f over the reported CS.
  const int n = 5;
  auto cir = circuits::sum_all(n);
  std::vector<Fp> inputs{Fp(1), Fp(2), Fp(3), Fp(4), Fp(5)};
  MpcConfig cfg;
  cfg.n = n;
  cfg.ts = 1;
  cfg.ta = 1;
  cfg.mode = NetMode::kAsynchronous;
  cfg.corrupt = {4};
  cfg.seed = 24;
  auto res = run_mpc(cir, inputs, cfg);
  EXPECT_TRUE(res.all_honest_agree(cfg.corrupt));
  // Expected: sum over CS members' inputs.
  EXPECT_EQ(*res.outputs[0], cir.eval_plain(cs_inputs(res, inputs)));
  EXPECT_GE(static_cast<int>(res.input_cs.size()), n - cfg.ts);
}

TEST(CirEval, AsyncWithMultiplications) {
  // Async correctness does not depend on how the actual delays compare to
  // Δ: besides n = 5 at the default band, n = 4 computes f with delays up
  // to Δ/100, Δ/10, Δ, 4Δ and 16Δ (finishing at 112/112/116/128/288 Δ).
  auto run = [](int n, int ta, std::vector<Fp> inputs, Tick async_max, std::uint64_t seed) {
    SCOPED_TRACE(testing::Message() << "n " << n << " async_max " << async_max);
    auto cir = circuits::pairwise_sums_product(n);
    MpcConfig cfg;
    cfg.n = n;
    cfg.ts = 1;
    cfg.ta = ta;
    cfg.mode = NetMode::kAsynchronous;
    cfg.async_max = async_max;
    cfg.seed = seed;
    auto res = run_mpc(cir, inputs, cfg);
    EXPECT_TRUE(res.all_honest_agree({}));
    EXPECT_EQ(res.outputs[0], cir.eval_plain(cs_inputs(res, inputs)));
  };
  run(5, 1, {Fp(2), Fp(4), Fp(6), Fp(8), Fp(10)}, MpcConfig{}.async_max, 25);
  for (Tick async_max : {10ULL, 100ULL, 1000ULL, 4000ULL, 16000ULL})
    run(4, 0, {Fp(1), Fp(2), Fp(3), Fp(4)}, async_max, 2 + async_max);
}

TEST(CirEval, SyncDeadlineLinearInNPlusDepth) {
  // Thm 7.1 gives a (c1·n + D_M + c2)·Δ bound; with our substituted
  // constants the exact value differs, but the *structure* must hold:
  // every party finishes by T_TripGen + (D_M + 4)Δ with every input in CS,
  // each extra multiplication layer costs at most Δ more, and the width of
  // a layer costs bits, not rounds.
  const MpcConfig defaults;
  const Timing T = Timing::compute(defaults.ts, defaults.delta);
  auto finish = [&](const Circuit& cir, const std::vector<Fp>& inputs, std::uint64_t seed) {
    SCOPED_TRACE(testing::Message() << "D_M " << cir.mult_depth() << " c_M " << cir.mult_count());
    MpcConfig cfg;
    cfg.seed = seed;
    auto res = run_mpc(cir, inputs, cfg);
    EXPECT_TRUE(res.all_honest_agree({}));
    EXPECT_EQ(res.outputs[0], cir.eval_plain(inputs));
    EXPECT_EQ(res.input_cs.size(), inputs.size());
    const Tick last = *std::max_element(res.finish_time.begin(), res.finish_time.end());
    EXPECT_LE(last, T.t_tripgen + static_cast<Tick>(cir.mult_depth() + 4) * cfg.delta);
    return last;
  };
  finish(circuits::mult_chain(4, 3), {Fp(1), Fp(1), Fp(1), Fp(1)}, 26);

  // D_M ∈ {1, 2, 4, 8} finish at 118/119/121/125 Δ.
  const std::vector<Fp> inputs{Fp(2), Fp(3), Fp(4), Fp(5)};
  const Tick depth1 = finish(circuits::mult_chain(4, 1), inputs, 6);
  for (int depth : {2, 4, 8})
    EXPECT_LE(finish(circuits::mult_chain(4, depth), inputs, 5 + static_cast<std::uint64_t>(depth)),
              depth1 + static_cast<Tick>(depth - 1) * defaults.delta)
        << "D_M " << depth;

  // One layer of c_M ∈ {2, 8, 32} multiplications finishes on one tick.
  std::optional<Tick> one_layer;
  for (int width : {2, 8, 32}) {
    Circuit c(4);
    int s = c.add(c.add(c.input(0), c.input(1)), c.add(c.input(2), c.input(3)));
    int acc = c.mul(s, s);
    for (int k = 1; k < width; ++k) acc = c.add(acc, c.mul(s, s));
    c.set_output(acc);
    const Tick t = finish(c, {Fp(1), Fp(1), Fp(1), Fp(1)}, 40 + static_cast<std::uint64_t>(width));
    if (one_layer) { EXPECT_EQ(t, *one_layer) << "c_M " << width; }
    one_layer = t;
  }
}

TEST(CirEval, ConfigValidation) {
  Circuit cir = circuits::sum_all(4);
  MpcConfig cfg;
  cfg.ts = 1;
  cfg.ta = 2;  // ta > ts
  EXPECT_THROW(run_mpc(cir, {Fp(0), Fp(0), Fp(0), Fp(0)}, cfg), std::invalid_argument);
  MpcConfig cfg2;
  cfg2.n = 4;
  cfg2.ts = 1;
  cfg2.ta = 1;  // 3*1+1 = 4, not < n
  EXPECT_THROW(run_mpc(cir, {Fp(0), Fp(0), Fp(0), Fp(0)}, cfg2), std::invalid_argument);
  MpcConfig cfg3;
  cfg3.corrupt = {0, 1};  // exceeds ts=1
  EXPECT_THROW(run_mpc(cir, {Fp(0), Fp(0), Fp(0), Fp(0)}, cfg3), std::invalid_argument);
  for (int bad : {4, -1}) {  // within the threshold, but no such party
    MpcConfig cfg4;
    cfg4.corrupt = {bad};
    EXPECT_THROW(run_mpc(cir, {Fp(0), Fp(0), Fp(0), Fp(0)}, cfg4), std::invalid_argument)
        << "corrupt id " << bad;
  }
}

TEST(CirEval, MultiOutputCircuits) {
  // Extension beyond the paper's f: F^n -> F — several public outputs open
  // in one batch; the termination gadget votes on the full vector.
  const int n = 4;
  Circuit cir(n);
  int a = cir.input(0), b = cir.input(1), c = cir.input(2), d = cir.input(3);
  int s = cir.add(cir.add(a, b), cir.add(c, d));
  cir.set_output(s);                 // Σx
  cir.add_output(cir.mul(s, s));     // (Σx)²
  cir.add_output(cir.mul(a, b));     // x0·x1
  std::vector<Fp> inputs{Fp(1), Fp(2), Fp(3), Fp(4)};
  MpcConfig cfg;
  cfg.seed = 31;
  auto res = run_mpc(cir, inputs, cfg);
  ASSERT_TRUE(res.all_honest_agree({}));
  auto expect = cir.eval_outputs(inputs);
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(res.output_vectors[static_cast<std::size_t>(i)]);
    EXPECT_EQ(*res.output_vectors[static_cast<std::size_t>(i)], expect);
  }
  EXPECT_EQ(expect[0], Fp(10));
  EXPECT_EQ(expect[1], Fp(100));
  EXPECT_EQ(expect[2], Fp(2));
}

TEST(CirEval, MultiOutputWithFaultAsync) {
  const int n = 5;
  Circuit cir(n);
  int acc = cir.input(0);
  for (int p = 1; p < n; ++p) acc = cir.add(acc, cir.input(p));
  cir.set_output(acc);
  cir.add_output(cir.mul(acc, acc));
  std::vector<Fp> inputs{Fp(1), Fp(2), Fp(3), Fp(4), Fp(5)};
  MpcConfig cfg;
  cfg.n = n;
  cfg.ts = 1;
  cfg.ta = 1;
  cfg.mode = NetMode::kAsynchronous;
  cfg.corrupt = {2};
  cfg.seed = 32;
  auto res = run_mpc(cir, inputs, cfg);
  ASSERT_TRUE(res.all_honest_agree(cfg.corrupt));
  EXPECT_EQ(*res.output_vectors[0], cir.eval_outputs(cs_inputs(res, inputs)));
}

TEST(Baseline, SyncShareWorksInSyncFailsInAsync) {
  // The §1 motivation: a timeout-based synchronous protocol is correct in a
  // synchronous network but breaks under asynchrony — at n = 4, t = 1 and
  // in the n = 8, t = 2 example, one crashed party each.
  auto run_baseline = [](int n, int t, NetMode mode, std::uint64_t seed) {
    auto w = test::make_world(n, t, 0, mode, test::crash({n - 1}), seed);
    std::vector<std::unique_ptr<SyncShareBaseline>> inst(static_cast<std::size_t>(n));
    std::vector<std::optional<std::optional<Fp>>> got(static_cast<std::size_t>(n));
    for (int i = 0; i < n - 1; ++i) {
      auto& slot = got[static_cast<std::size_t>(i)];
      inst[static_cast<std::size_t>(i)] = std::make_unique<SyncShareBaseline>(
          w.party(i), "base", 0, t, 0, [&slot](const std::optional<Fp>& v) { slot = v; });
    }
    inst[0]->deal(Fp(4242));
    w.sim->run();
    int wrong_or_missing = 0;
    for (int i = 0; i < n - 1; ++i) {
      const auto& v = got[static_cast<std::size_t>(i)];
      if (!v || !*v || **v != Fp(4242)) ++wrong_or_missing;
    }
    return wrong_or_missing;
  };
  for (auto [n, t] : {std::pair{4, 1}, std::pair{8, 2}}) {
    EXPECT_EQ(run_baseline(n, t, NetMode::kSynchronous, 1), 0) << "n " << n;
    // Async: with delays beyond the timeout, at least one run misbehaves.
    int bad_runs = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
      if (run_baseline(n, t, NetMode::kAsynchronous, seed) > 0) ++bad_runs;
    EXPECT_GT(bad_runs, 0) << "n " << n;
  }
}

// The §1 example, n = 8: this protocol with ts = 2, ta = 1 is correct with
// 2 faults in sync and 1 in async; an asynchronous protocol run as BoBW
// (ts = ta) is correct with 1 fault in both networks but cannot be set to 2,
// since ts = ta = 2 breaks 3ts + ta < n. The sync-only baseline is the
// Baseline test above. Each row is its own test case, so the four n = 8
// runs spread over ctest jobs.
struct ResilienceRow {
  const char* name;
  int ts, ta;
  NetMode mode;
  std::set<int> corrupt;
  std::uint64_t seed;
};

// Names each row's ctest case (the default printout is the raw bytes).
void PrintTo(const ResilienceRow& r, std::ostream* os) { *os << r.name; }

class CirEvalResilienceN8 : public ::testing::TestWithParam<ResilienceRow> {};

TEST_P(CirEvalResilienceN8, HonestPartiesAgreeOnF) {
  const ResilienceRow& row = GetParam();
  const int n = 8;
  auto cir = circuits::pairwise_sums_product(n);
  std::vector<Fp> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(Fp(static_cast<std::uint64_t>(i + 1)));
  MpcConfig cfg;
  cfg.n = n;
  cfg.ts = row.ts;
  cfg.ta = row.ta;
  cfg.mode = row.mode;
  cfg.corrupt = row.corrupt;
  cfg.seed = row.seed;
  auto res = run_mpc(cir, inputs, cfg);
  EXPECT_TRUE(res.all_honest_agree(cfg.corrupt));
  EXPECT_EQ(res.outputs[0], cir.eval_plain(cs_inputs(res, inputs)));
}

INSTANTIATE_TEST_SUITE_P(
    Rows, CirEvalResilienceN8,
    ::testing::Values(ResilienceRow{"ts2_ta1_sync_crash2", 2, 1, NetMode::kSynchronous, {2, 5}, 1},
                      ResilienceRow{"ts2_ta1_async_crash1", 2, 1, NetMode::kAsynchronous, {3}, 2},
                      ResilienceRow{"ts1_ta1_sync_crash1", 1, 1, NetMode::kSynchronous, {6}, 3},
                      ResilienceRow{"ts1_ta1_async_crash1", 1, 1, NetMode::kAsynchronous, {6}, 4}));

TEST(CirEval, ResilienceMatrixN8) {
  // The matrix's missing cell: ts = ta = 2 is rejected at n = 8. The
  // runnable rows are CirEvalResilienceN8 above.
  MpcConfig two_async;
  two_async.n = 8;
  two_async.ts = 2;
  two_async.ta = 2;
  EXPECT_THROW(two_async.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace bobw
