#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <set>
#include <string>

#include "src/ba/aba.hpp"
#include "src/ba/ba.hpp"
#include "src/bcast/bc_bank.hpp"
#include "tests/harness.hpp"

namespace bobw {

// The printed parameter names the ctest id: BothNetworks/AbaModeSweep.X/Sync
// and .../Async (gtest_discover_tests names a numbered parameter by its
// printed value; a named one would keep gtest's "# GetParam() = ..." tail).
void PrintTo(NetMode mode, std::ostream* os) {
  *os << (mode == NetMode::kSynchronous ? "Sync" : "Async");
}

namespace {

using test::make_world;

// ---------------------------------------------------------------- ΠABA ----

/// One one-slot ΠABA plane per party on the route "aba", starting at tick 0;
/// the slot's coin key is the route's path hash.
struct AbaRun {
  std::vector<std::unique_ptr<AbaBank>> inst;
  std::vector<std::optional<bool>> decided;
  std::vector<Tick> decide_time;

  AbaRun(test::World& w, int t) {
    const int n = w.n();
    inst.resize(static_cast<std::size_t>(n));
    decided.resize(static_cast<std::size_t>(n));
    decide_time.assign(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      if (!w.runs_code(i)) continue;
      auto* world = &w;
      int idx = i;
      auto& bank = inst[static_cast<std::size_t>(i)];
      bank = std::make_unique<AbaBank>(w.party(i), "aba", t, *w.coin, 0);
      bank->enroll(bank->route(), w.sim->routes().path_hash(bank->route()),
                   [this, idx, world](bool b) {
                     decided[static_cast<std::size_t>(idx)] = b;
                     decide_time[static_cast<std::size_t>(idx)] = world->sim->now();
                   });
    }
  }

  void start_all(test::World& w, const std::vector<bool>& inputs, Tick at = 0) {
    for (int i = 0; i < w.n(); ++i) {
      if (!inst[static_cast<std::size_t>(i)]) continue;
      auto* I = inst[static_cast<std::size_t>(i)].get();
      bool b = inputs[static_cast<std::size_t>(i)];
      w.party(i).at(at, [I, b] { I->start(0, b); });
    }
  }
};

/// Every honest party decided, and all decided the same bit.
void expect_honest_agree(const test::World& w, const AbaRun& run, const std::string& what) {
  std::optional<bool> agreed;
  for (int i = 0; i < w.n(); ++i) {
    if (!w.honest(i)) continue;
    const auto& d = run.decided[static_cast<std::size_t>(i)];
    ASSERT_TRUE(d) << what << " party " << i;
    if (agreed) {
      EXPECT_EQ(*agreed, *d) << what << " party " << i;
    }
    agreed = d;
  }
}

class AbaModeSweep : public ::testing::TestWithParam<NetMode> {};

TEST_P(AbaModeSweep, ValidityUnanimous) {
  for (bool bit : {false, true}) {
    auto w = make_world(4, 1, 1, GetParam(), test::crash({3}), bit ? 7 : 8);
    AbaRun run(w, 1);
    run.start_all(w, std::vector<bool>(4, bit));
    w.sim->run();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(run.decided[static_cast<std::size_t>(i)]) << "bit " << bit;
      EXPECT_EQ(*run.decided[static_cast<std::size_t>(i)], bit);
    }
  }
}

TEST_P(AbaModeSweep, ConsistencyMixedInputs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto w = make_world(7, 2, 1, GetParam(), test::crash({2, 6}), seed);
    AbaRun run(w, 2);
    std::vector<bool> inputs{true, false, true, false, true, false, true};
    run.start_all(w, inputs);
    w.sim->run();
    expect_honest_agree(w, run, "seed " + std::to_string(seed));
  }
}

TEST_P(AbaModeSweep, ConsistencyMixedInputsN130) {
  // n = 130 > PartySet::kInlineParties, so every EST/AUX/DECIDED tally
  // lives in its heap block. t = 43 parties crash; the rest start with
  // mixed inputs.
  const int n = 130, t = 43;
  auto adv = std::make_shared<CrashAdversary>();
  for (int c = 0; c < t; ++c) adv->corrupt(3 * c);
  auto w = make_world(n, t, 0, GetParam(), adv, 11);
  AbaRun run(w, t);
  std::vector<bool> inputs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) inputs[static_cast<std::size_t>(i)] = i % 5 < 2;
  run.start_all(w, inputs);
  w.sim->run();
  expect_honest_agree(w, run, "n 130");
}

INSTANTIATE_TEST_SUITE_P(BothNetworks, AbaModeSweep,
                         ::testing::Values(NetMode::kSynchronous, NetMode::kAsynchronous));

TEST(Aba, SyncUnanimousDecidesWithinTaba) {
  // Lemma 3.3: unanimous inputs -> guaranteed liveness within T_ABA = 6Δ.
  auto w = make_world(4, 1, 1, NetMode::kSynchronous);
  AbaRun run(w, 1);
  run.start_all(w, std::vector<bool>(4, true));
  w.sim->run();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(run.decided[static_cast<std::size_t>(i)]);
    EXPECT_LE(run.decide_time[static_cast<std::size_t>(i)], w.ctx.T.t_aba);
  }
}

TEST(Aba, ExecutionQuiescesAfterDecision) {
  auto w = make_world(4, 1, 1, NetMode::kAsynchronous, nullptr, 5);
  AbaRun run(w, 1);
  run.start_all(w, {true, false, false, true});
  std::uint64_t events = w.sim->run();
  EXPECT_LT(events, 1'000'000u);  // queue drained — no infinite round churn
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(run.decided[static_cast<std::size_t>(i)]);
}

/// Byzantine ΠABA attacker: every EST/AUX it sends carries, per slot, the
/// flipped bit with probability 1/2, so it speaks for both bits.
class AbaDoubleTalker : public Adversary {
 public:
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng& rng) override {
    std::vector<abawire::Group> out;
    for (auto& g : abawire::decode(m.body, bcwire::kMaxSlots))
      for (std::uint32_t s : g.slots) {
        const bool flip = g.type != AbaBank::kDecided && rng.next_bool();
        out.push_back(abawire::Group{g.type, g.round, g.value != flip, {s}});
      }
    m.body = Payload(abawire::encode(std::move(out)));
    return true;
  }
};

TEST(Aba, SafetyUnderActiveAttack) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto adv = std::make_shared<AbaDoubleTalker>();
    adv->corrupt(1);
    auto w = make_world(4, 1, 1, NetMode::kAsynchronous, adv, seed);
    AbaRun run(w, 1);
    run.start_all(w, {true, true, false, false});
    w.sim->run();
    std::optional<bool> agreed;
    for (int i = 0; i < 4; ++i) {
      if (!w.honest(i)) continue;
      ASSERT_TRUE(run.decided[static_cast<std::size_t>(i)]) << "seed " << seed;
      if (agreed) { EXPECT_EQ(*agreed, *run.decided[static_cast<std::size_t>(i)]); }
      agreed = run.decided[static_cast<std::size_t>(i)];
    }
  }
}

// ----------------------------------------------------------------- ΠBA ----

struct BaRun {
  std::vector<std::unique_ptr<Ba>> inst;
  std::vector<std::optional<bool>> decided;
  std::vector<Tick> decide_time;

  BaRun(test::World& w, Tick start) {
    const int n = w.n();
    inst.resize(static_cast<std::size_t>(n));
    decided.resize(static_cast<std::size_t>(n));
    decide_time.assign(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      if (!w.runs_code(i)) continue;
      auto* world = &w;
      int idx = i;
      inst[static_cast<std::size_t>(i)] = std::make_unique<Ba>(
          w.party(i), "ba", w.ctx, start, [this, idx, world](bool b) {
            decided[static_cast<std::size_t>(idx)] = b;
            decide_time[static_cast<std::size_t>(idx)] = world->sim->now();
          });
    }
  }
};

/// Runs ΠBA with party i's input `input(i)` and checks that every honest
/// party decides, all on one bit, on the honest parties' bit when they are
/// unanimous and, in sync, by T_BA (Thm 3.6).
void expect_ba_agrees(int n, int ts, int ta, NetMode mode, std::shared_ptr<Adversary> adv,
                      std::uint64_t seed, const std::function<bool(int)>& input) {
  SCOPED_TRACE(testing::Message() << "n " << n << " seed " << seed);
  auto w = make_world(n, ts, ta, mode, std::move(adv), seed);
  BaRun run(w, 0);
  std::set<bool> honest_inputs;
  for (int i = 0; i < n; ++i) {
    if (run.inst[static_cast<std::size_t>(i)]) run.inst[static_cast<std::size_t>(i)]->set_input(input(i));
    if (w.honest(i)) honest_inputs.insert(input(i));
  }
  w.sim->run();
  std::set<bool> decisions;
  for (int i = 0; i < n; ++i) {
    if (!w.honest(i)) continue;
    ASSERT_TRUE(run.decided[static_cast<std::size_t>(i)]) << "party " << i;
    decisions.insert(*run.decided[static_cast<std::size_t>(i)]);
    if (mode == NetMode::kSynchronous) {
      EXPECT_LE(run.decide_time[static_cast<std::size_t>(i)], w.ctx.T.t_ba) << "party " << i;
    }
  }
  EXPECT_EQ(decisions.size(), 1u);
  if (honest_inputs.size() == 1) { EXPECT_EQ(decisions, honest_inputs); }
}

bool all_true(int) { return true; }
bool even_true(int i) { return i % 2 == 0; }

TEST(Ba, SyncValidityAndDeadline) {
  // Thm 3.6: in sync, ΠBA is a t-perfectly-secure SBA deciding by T_BA —
  // with a crash at n = 4, and fault-free at n = 3ts+1 ∈ {4, 7, 10, 13},
  // where T_BA = T_BC + T_ABA grows with ts (decisions at 11/14/17/20 Δ
  // against 15/18/21/24 Δ).
  for (bool bit : {false, true})
    expect_ba_agrees(4, 1, 1, NetMode::kSynchronous, test::crash({2}), 42,
                     [bit](int) { return bit; });
  for (int n : {4, 7, 10, 13}) {
    expect_ba_agrees(n, (n - 1) / 3, 0, NetMode::kSynchronous, nullptr, 1, all_true);
    expect_ba_agrees(n, (n - 1) / 3, 0, NetMode::kSynchronous, nullptr, 2, even_true);
  }
}

TEST(Ba, SyncConsistencyMixedInputs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    expect_ba_agrees(4, 1, 1, NetMode::kSynchronous, test::crash({3}), seed, even_true);
}

TEST(Ba, AsyncValidityAndConsistency) {
  // Almost-sure liveness: every honest party decides, at a latency set by
  // the actual delays rather than by T_BA.
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    expect_ba_agrees(5, 1, 1, NetMode::kAsynchronous, test::crash({4}), seed, all_true);
  for (int n : {4, 7, 10, 13}) {
    expect_ba_agrees(n, (n - 1) / 3, 0, NetMode::kAsynchronous, nullptr, 3, all_true);
    expect_ba_agrees(n, (n - 1) / 3, 0, NetMode::kAsynchronous, nullptr, 4, even_true);
  }
}

TEST(Ba, LateInputStillDecides) {
  // ΠACS joins some BA instances with input 0 long after the schedule.
  auto w = make_world(4, 1, 1, NetMode::kSynchronous);
  BaRun run(w, 0);
  for (int i = 0; i < 3; ++i) run.inst[static_cast<std::size_t>(i)]->set_input(true);
  // Party 3 supplies its input late.
  w.party(3).at(w.ctx.T.t_bc + 3 * w.ctx.delta,
                [&] { run.inst[3]->set_input(false); });
  w.sim->run();
  std::optional<bool> agreed;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(run.decided[static_cast<std::size_t>(i)]);
    if (agreed) { EXPECT_EQ(*agreed, *run.decided[static_cast<std::size_t>(i)]); }
    agreed = run.decided[static_cast<std::size_t>(i)];
  }
}

}  // namespace
}  // namespace bobw
