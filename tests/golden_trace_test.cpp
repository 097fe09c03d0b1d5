// Golden-trace pins for the simulator message plane.
//
// The PR 4 refactor (interned routes, shared payloads, typed delivery lane)
// had to preserve the full trace bit-for-bit. The PR 5 broadcast bank
// changes the message flow BY DESIGN (n² ok-verdict ΠBC instances collapse
// into shared coalesced Acast batches and one SBA vector per round), and the
// VSS schedule plane collapses further (every broadcast/BA layer of a
// sharing rides one bank: one Acast window, seven SBA schedules —
// tests/reference/legacy_vssplanes.hpp keeps the one-bank-per-group
// reference), and every bank of a run starting together rides one run-wide
// SBA schedule per start tick, so the communication/event counts below are
// re-pinned on that transport. The bank names its slots by sets in
// bcwire's compact code (src/bcast/bc_bank.hpp), so only the bit counts
// below moved when that code replaced 4-byte slot ids; messages, events,
// outputs and ticks did not. What must NOT move versus the frozen per-pair path
// (tests/reference/legacy_bcgrid.hpp, captured by the PR 4 pins):
//   * every party's output and input_cs, in every scenario;
//   * synchronous finish times and end time — the bank flushes at exactly
//     the Δ-boundaries where the per-pair path generated its traffic, so the
//     round-crisp schedule is tick-identical (the sync values below are
//     byte-for-byte the PR 4 per-pair values);
//   * async finish times stay within the same protocol deadlines (exact
//     ticks shift: fewer messages consume a different delay-RNG stream).
// The per-slot decision equivalence itself is pinned by tests/bc_bank_test.
//
// The same file carries the message-plane semantics tests the refactor must
// preserve: payload aliasing under send_all, delivery-before-timer
// tie-breaking at round boundaries, and the --delta < sync_min_delay
// config-mapping clamp.
#include <gtest/gtest.h>

#include <memory>

#include "src/bcast/bc_bank.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/sim/instance.hpp"
#include "tests/harness.hpp"

namespace bobw {
namespace {

using test::make_world;

struct Golden {
  const char* tag;
  MpcConfig cfg;
  Circuit cir;
  std::vector<std::optional<std::uint64_t>> outputs;  // nullopt = never finished
  std::vector<Tick> finish_time;
  std::vector<int> input_cs;
  std::uint64_t honest_bits, honest_msgs, events;
  Tick end_time;
};

void expect_golden(const Golden& g) {
  // Every pin must hold at every thread count: the window executor's whole
  // contract is a bit-identical trace (min_batch=1 forces the parallel path
  // onto these small-n runs; async configs draw their jitter in the merge
  // replay and run the executor too). threads=1 is the plain sequential
  // engine.
  for (const int threads : {1, 2, 8}) {
    MpcConfig cfg = g.cfg;
    cfg.threads = threads;
    cfg.min_batch = 1;
    std::vector<Fp> inputs;
    for (int i = 0; i < cfg.n; ++i) inputs.push_back(Fp(static_cast<std::uint64_t>(3 * i + 2)));
    auto res = run_mpc(g.cir, inputs, cfg);
    for (int i = 0; i < cfg.n; ++i) {
      const auto& out = res.outputs[static_cast<std::size_t>(i)];
      const auto& want = g.outputs[static_cast<std::size_t>(i)];
      ASSERT_EQ(out.has_value(), want.has_value())
          << g.tag << " party " << i << " threads " << threads;
      if (want) {
        EXPECT_EQ(out->value(), *want) << g.tag << " party " << i << " threads " << threads;
      }
      EXPECT_EQ(res.finish_time[static_cast<std::size_t>(i)],
                g.finish_time[static_cast<std::size_t>(i)])
          << g.tag << " party " << i << " threads " << threads;
    }
    EXPECT_EQ(res.input_cs, g.input_cs) << g.tag << " threads " << threads;
    EXPECT_EQ(res.honest_bits, g.honest_bits) << g.tag << " threads " << threads;
    EXPECT_EQ(res.honest_msgs, g.honest_msgs) << g.tag << " threads " << threads;
    EXPECT_EQ(res.events, g.events) << g.tag << " threads " << threads;
    EXPECT_EQ(res.end_time, g.end_time) << g.tag << " threads " << threads;
    EXPECT_FALSE(res.truncated) << g.tag << " threads " << threads;
  }
}

TEST(GoldenTrace, SumAllN4SyncSeed1) {
  Golden g{"sum_all n4 sync seed1",
           [] {
             MpcConfig c;
             c.n = 4;
             c.ts = 1;
             c.ta = 0;
             c.seed = 1;
             return c;
           }(),
           circuits::sum_all(4),
           {26, 26, 26, 26},
           {117000, 117000, 117000, 117000},
           {0, 1, 2, 3},
           4831488,
           23664,
           32000,
           117000};
  expect_golden(g);
}

TEST(GoldenTrace, PairwiseN4SyncCrash3Seed7) {
  Golden g{"pairwise n4 sync crash3 seed7",
           [] {
             MpcConfig c;
             c.n = 4;
             c.ts = 1;
             c.ta = 0;
             c.seed = 7;
             c.corrupt = {3};
             return c;
           }(),
           circuits::pairwise_sums_product(4),
           {50, 50, 50, std::nullopt},
           {122000, 122000, 122000, 0},
           {0, 1, 2},
           3064768,
           15364,
           20482,
           122000};
  expect_golden(g);
}

TEST(GoldenTrace, SumAllN5AsyncCrash2Seed3) {
  Golden g{"sum_all n5 async crash2 seed3",
           [] {
             MpcConfig c;
             c.n = 5;
             c.ts = 1;
             c.ta = 1;
             c.mode = NetMode::kAsynchronous;
             c.seed = 3;
             c.corrupt = {2};
             return c;
           }(),
           circuits::sum_all(5),
           {32, 32, std::nullopt, 32, 32},
           {134804, 135761, 0, 135519, 136080},
           {0, 1, 3, 4},
           12629560,
           59495,
           75653,
           137879};
  expect_golden(g);
}

TEST(GoldenTrace, DeterministicAcrossRepeatedRuns) {
  auto run = [] {
    MpcConfig c;
    c.n = 4;
    c.ts = 1;
    c.ta = 0;
    c.seed = 11;
    return run_mpc(circuits::sum_of_squares(4), {Fp(1), Fp(2), Fp(3), Fp(4)}, c);
  };
  auto a = run(), b = run();
  EXPECT_EQ(a.honest_bits, b.honest_bits);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.finish_time, b.finish_time);
  for (std::size_t i = 0; i < a.outputs.size(); ++i)
    EXPECT_EQ(a.outputs[i].has_value(), b.outputs[i].has_value());
}

// ---- payload aliasing -----------------------------------------------------

class RecorderInst : public Instance {
 public:
  RecorderInst(Party& p, std::string id) : Instance(p, std::move(id)) {}
  void on_message(const Msg& m) override { received.push_back(m); }
  std::vector<Msg> received;
};

TEST(PayloadAliasing, MutatingSourceAfterSendAllLeavesInFlightCopiesIntact) {
  auto w = make_world(4, 1, 0, NetMode::kSynchronous);
  std::vector<std::unique_ptr<RecorderInst>> inst;
  for (int i = 0; i < 4; ++i)
    inst.push_back(std::make_unique<RecorderInst>(w.party(i), "echo"));
  auto body = std::make_shared<Bytes>(Bytes{1, 2, 3, 4});
  w.party(0).at(0, [&w, body] {
    w.party(0).send_all("echo", 0, *body);
    (*body)[0] = 0xEE;  // caller reuses its buffer — must not reach the wire
    (*body)[3] = 0xEE;
  });
  w.sim->run();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(inst[static_cast<std::size_t>(i)]->received.size(), 1u) << i;
    EXPECT_EQ(inst[static_cast<std::size_t>(i)]->received[0].body, (Bytes{1, 2, 3, 4})) << i;
  }
}

/// Corrupt sender's send_all shares one payload across n recipients; the
/// adversary mutates it for even-numbered recipients only. COW must keep the
/// odd recipients' copies pristine.
class EvenTargetGarbler : public Adversary {
 public:
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng&) override {
    if (!m.body.empty() && m.to % 2 == 0) m.body.mutable_bytes()[0] ^= 0xFF;
    return true;
  }
};

TEST(PayloadAliasing, AdversarialMutationDetachesFromSharedPayload) {
  auto adv = std::make_shared<EvenTargetGarbler>();
  adv->corrupt(1);
  auto w = make_world(4, 1, 0, NetMode::kSynchronous, adv);
  std::vector<std::unique_ptr<RecorderInst>> inst;
  for (int i = 0; i < 4; ++i)
    inst.push_back(std::make_unique<RecorderInst>(w.party(i), "echo"));
  w.party(1).at(0, [&w] { w.party(1).send_all("echo", 0, Bytes{0x10, 0x20}); });
  w.sim->run();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(inst[static_cast<std::size_t>(i)]->received.size(), 1u) << i;
    const Bytes want = i % 2 == 0 ? Bytes{0xEF, 0x20} : Bytes{0x10, 0x20};
    EXPECT_EQ(inst[static_cast<std::size_t>(i)]->received[0].body, want) << i;
  }
}

TEST(PayloadAliasing, ReceiverSideViewIsStableAcrossLaterSends) {
  // A recorded Msg keeps its payload alive and unchanged even after the
  // sender's instance re-broadcasts (shares) the same payload.
  auto w = make_world(4, 1, 0, NetMode::kSynchronous);
  RecorderInst a(w.party(0), "echo");
  RecorderInst b(w.party(1), "echo");
  w.party(1).at(0, [&w] { w.party(1).send(0, "echo", 1, Bytes{7, 8, 9}); });
  w.sim->run();
  ASSERT_EQ(a.received.size(), 1u);
  Msg copy = a.received[0];        // refcount bump, no byte copy
  copy.body.mutable_bytes()[1] = 0x55;             // COW detach
  EXPECT_EQ(a.received[0].body, (Bytes{7, 8, 9}));
  EXPECT_EQ(copy.body, (Bytes{7, 0x55, 9}));
}

// ---- delivery-before-timer ordering --------------------------------------

TEST(DeliveryOrdering, DeliveryBeatsTimerAtSameTick) {
  // A message sent at t=0 with the round-crisp synchronous delay arrives at
  // exactly Δ; a protocol deadline at Δ must observe it (paper round
  // structure: "messages sent Δ ago are visible"). The typed delivery lane
  // must preserve the kDelivery < kTimer tie-break against closure timers.
  auto w = make_world(4, 1, 0, NetMode::kSynchronous);
  RecorderInst a(w.party(0), "echo");
  std::vector<int> order;
  w.party(1).at(0, [&w] { w.party(1).send(0, "echo", 0, Bytes{1}); });
  w.party(0).at(w.ctx.delta, [&] { order.push_back(static_cast<int>(a.received.size())); });
  w.sim->run();
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 1);  // the delivery ran first within the same tick
}

TEST(DeliveryOrdering, SameTickSamePriFifoBySequence) {
  // Two messages scheduled for the same tick arrive in post order; a timer
  // scheduled between the two posts still runs after both (lower pri).
  EventQueue q;
  q.on_delivery([](Msg&&) {});
  std::vector<int> order;
  q.at(10, EventQueue::kTimer, [&] { order.push_back(2); });
  q.at(10, EventQueue::kDelivery, [&] { order.push_back(0); });
  q.at(10, EventQueue::kTimer, [&] { order.push_back(3); });
  q.at(10, EventQueue::kDelivery, [&] { order.push_back(1); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// ---- --delta below the sync_min_delay default -----------------------------

TEST(DeltaClamp, RunMpcAcceptsDeltaBelowDefaultSyncMinDelay) {
  // Regression for the ROADMAP known issue: --delta 100 used to abort with
  // "sync_min_delay > delta" because the runner never scaled the
  // sync_min_delay = 1000 default down. The mapping layer now clamps.
  MpcConfig cfg;
  cfg.n = 4;
  cfg.ts = 1;
  cfg.ta = 0;
  cfg.delta = 100;
  cfg.seed = 5;
  auto res = run_mpc(circuits::sum_all(4), {Fp(1), Fp(2), Fp(3), Fp(4)}, cfg);
  EXPECT_TRUE(res.all_honest_agree({}));
  ASSERT_TRUE(res.outputs[0]);
  EXPECT_EQ(res.outputs[0]->value(), 10u);
  // Finish times scale with Δ: the whole run ends in multiples of 100 ticks.
  EXPECT_GT(res.end_time, 0u);
  EXPECT_LT(res.end_time, 117000u);  // strictly faster than the Δ=1000 trace
}

TEST(DeltaClamp, ValidateStillRejectsExplicitlyInvertedRanges) {
  NetConfig bad;
  bad.delta = 100;  // explicit sync_min_delay left at 1000 — hand-built
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.sync_min_delay = 100;
  EXPECT_NO_THROW(bad.validate());
}

// ---- fuzz-scenario pins: one fixed seed per network profile ---------------
//
// The scenario fuzzer's seed->scenario expansion and the runs it drives are
// part of the golden surface: `fuzz_test --fuzz_seed=N` repro lines must
// keep meaning the same run across refactors. One cheap seed per NetProfile
// pins the expanded description AND the run's result digest. If expansion
// draw order changes deliberately, re-pin here (and expect every archived
// repro seed to change meaning).

struct FuzzGolden {
  std::uint64_t seed;
  const char* describe;
  const char* summary;
};

TEST(GoldenFuzzScenarios, OnePinnedSeedPerNetProfile) {
  const FuzzGolden pins[] = {
      // kSyncCrisp: broadcast bank at n = 12 with a silent corrupt party.
      {9,
       "fuzz_seed=9 kind=bc net=sync-crisp n=12 ts=2 ta=1 delta=1000 "
       "corrupt={2:silent} run_seed=6088031660477001152",
       "decided=121 end=12000"},
      // kSyncJitter: VSS at n = 7 with a garbling corrupt party — jittered
      // delivery inside [771, 1000] exercises sub-round arrival order.
      {16,
       "fuzz_seed=16 kind=vss net=sync-jitter n=7 ts=1 ta=0 delta=1000 "
       "sync_min=771 tamper=25% corrupt={2:garble@50} "
       "run_seed=6110061170797593481",
       "shares=6/6 end=78000"},
      // kAsync: VSS at n = 4 under partition-then-heal scheduling.
      {23,
       "fuzz_seed=23 kind=vss net=async n=4 ts=1 ta=0 delta=250 "
       "band=[1,2000] tamper=40% corrupt={} sched=partition:1011@heal1000 "
       "run_seed=173430206393098806",
       "shares=4/4 end=23718"},
  };
  for (const auto& pin : pins) {
    const Scenario s = expand_scenario(pin.seed);
    EXPECT_EQ(s.describe(), pin.describe) << "seed " << pin.seed;
    const ScenarioReport rep = run_scenario(s);
    EXPECT_TRUE(rep.violations.empty()) << "seed " << pin.seed;
    EXPECT_EQ(rep.summary, pin.summary) << "seed " << pin.seed;
  }
}

// ---- parallel window executor: determinism matrix -------------------------
//
// threads ∈ {1, 2, 8} × {sync-crisp, sync-jitter, async} × fixed fuzz seeds:
// the sharded executor must reproduce the sequential pins bit-for-bit
// (min_batch=1 forces every delivery-bearing window onto the parallel path;
// the async profile rides the executor too — jitter draws happen in the
// merge replay).
// The MpcConfig-level matrix lives in expect_golden above, which re-runs
// every golden trace at threads ∈ {1, 2, 8}.

TEST(ParallelDeterminism, FuzzScenarioPinsHoldAtEveryThreadCount) {
  const FuzzGolden pins[] = {
      {9, "", "decided=121 end=12000"},            // bc, sync-crisp, n=12
      {16, "", "shares=6/6 end=78000"},            // vss, sync-jitter, n=7
      {23, "", "shares=4/4 end=23718"},            // vss, async (executor)
  };
  for (const auto& pin : pins) {
    const Scenario s = expand_scenario(pin.seed);
    for (const int threads : {1, 2, 8}) {
      const ScenarioReport rep = run_scenario(s, threads, /*min_batch=*/1);
      EXPECT_TRUE(rep.violations.empty()) << "seed " << pin.seed << " threads " << threads;
      EXPECT_EQ(rep.summary, pin.summary) << "seed " << pin.seed << " threads " << threads;
    }
  }
}

TEST(ParallelDeterminism, SyncJitterMpcBitIdenticalAcrossThreadCounts) {
  // Jittered synchronous delivery (sub-round arrival order, per-message RNG
  // draws) is the hardest case for the merge phase: every delay draw must
  // land in the canonical position. Compare full results field-by-field.
  auto run = [](int threads) {
    MpcConfig c;
    c.n = 5;
    c.ts = 1;
    c.ta = 0;
    c.seed = 21;
    c.sync_min = 300;  // uniform delays in [300, 1000]
    c.threads = threads;
    c.min_batch = 1;
    return run_mpc(circuits::sum_of_squares(5), {Fp(1), Fp(2), Fp(3), Fp(4), Fp(5)}, c);
  };
  const MpcResult base = run(1);
  ASSERT_TRUE(base.all_honest_agree({}));
  for (const int threads : {2, 8}) {
    const MpcResult res = run(threads);
    for (std::size_t i = 0; i < base.outputs.size(); ++i) {
      ASSERT_EQ(res.outputs[i].has_value(), base.outputs[i].has_value()) << threads;
      if (base.outputs[i]) {
        EXPECT_EQ(res.outputs[i]->value(), base.outputs[i]->value()) << threads;
      }
    }
    EXPECT_EQ(res.finish_time, base.finish_time) << threads;
    EXPECT_EQ(res.input_cs, base.input_cs) << threads;
    EXPECT_EQ(res.honest_bits, base.honest_bits) << threads;
    EXPECT_EQ(res.honest_msgs, base.honest_msgs) << threads;
    EXPECT_EQ(res.events, base.events) << threads;
    EXPECT_EQ(res.end_time, base.end_time) << threads;
  }
}

TEST(ParallelDeterminism, UnownedClosureOnDeliveryTickMatchesSequential) {
  // An ad-hoc queue closure (EventQueue::kNoOwner) cannot be sharded by
  // party, so the executor runs its whole tick on the sequential engine. It
  // fires here on the n² echo tick of a two-slot ΠBC and starts slot 1's
  // sender there, so the rest of the run depends on it; every observable
  // must match threads = 1.
  struct Out {
    Tick end = 0;
    std::uint64_t events = 0, msgs = 0, bits = 0, seen_msgs = 0;
    std::vector<std::optional<Bytes>> outputs;
  };
  const int n = 7;
  auto run = [](int threads) {
    auto w = make_world(n, 2, 0, NetMode::kSynchronous);
    w.sim->set_threads(threads, /*min_batch=*/1);
    std::vector<std::unique_ptr<BcBank>> inst;
    for (int i = 0; i < n; ++i)
      inst.push_back(std::make_unique<BcBank>(w.party(i), "bc", std::vector<int>{0, 1}, w.ctx,
                                              0, nullptr));
    Out o;
    w.party(0).at(0, [&inst] { inst[0]->broadcast(0, Bytes{0x11}); });
    w.sim->queue().at(2 * w.ctx.delta, [&] {
      o.seen_msgs = w.sim->metrics().total_msgs();
      inst[1]->broadcast(1, Bytes{0x22});
    });
    o.events = w.sim->run();
    o.end = w.sim->now();
    o.msgs = w.sim->metrics().total_msgs();
    o.bits = w.sim->metrics().honest_bits();
    for (const auto& b : inst)
      for (int s = 0; s < 2; ++s) o.outputs.push_back(b->output(s));
    return o;
  };
  const Out base = run(1);
  for (std::size_t i = 0; i < base.outputs.size(); ++i) {
    ASSERT_TRUE(base.outputs[i]) << i;
    EXPECT_EQ(*base.outputs[i], (Bytes{static_cast<std::uint8_t>(i % 2 ? 0x22 : 0x11)})) << i;
  }
  const Out par = run(8);
  EXPECT_EQ(par.seen_msgs, base.seen_msgs);
  EXPECT_EQ(par.events, base.events);
  EXPECT_EQ(par.end, base.end);
  EXPECT_EQ(par.msgs, base.msgs);
  EXPECT_EQ(par.bits, base.bits);
  EXPECT_EQ(par.outputs, base.outputs);
}

// ---- payload COW across executor threads ----------------------------------

/// Receives a send_all fan-out whose Payload is shared across all n
/// recipients, and mutates a private copy from inside the handler — i.e.
/// concurrent COW detaches against one shared buffer when the window
/// executor runs recipients on different threads.
class CowStressInst : public Instance {
 public:
  CowStressInst(Party& p, std::string id, int me) : Instance(p, std::move(id)), me_(me) {}
  void on_message(const Msg& m) override {
    original = m.body.bytes();  // concurrent const read of the shared buffer
    Msg local = m;              // refcount bump (atomic control block)
    local.body.mutable_bytes()[0] = static_cast<std::uint8_t>(me_);  // detach
    mutated = local.body.bytes();
  }
  int me_;
  Bytes original, mutated;
};

TEST(ParallelDeterminism, CrossThreadCowDetachKeepsSiblingsPristine) {
  auto w = make_world(8, 2, 0, NetMode::kSynchronous);
  w.sim->set_threads(8, /*min_batch=*/1);
  std::vector<std::unique_ptr<CowStressInst>> inst;
  for (int i = 0; i < 8; ++i)
    inst.push_back(std::make_unique<CowStressInst>(w.party(i), "cow", i));
  w.party(3).at(0, [&w] { w.party(3).send_all("cow", 0, Bytes{0x42, 0x07, 0x99}); });
  w.sim->run();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(inst[static_cast<std::size_t>(i)]->original, (Bytes{0x42, 0x07, 0x99})) << i;
    EXPECT_EQ(inst[static_cast<std::size_t>(i)]->mutated,
              (Bytes{static_cast<std::uint8_t>(i), 0x07, 0x99}))
        << i;
  }
}

// ---- truncation flag ------------------------------------------------------

TEST(Truncation, BudgetStopIsFlaggedNotSilent) {
  // A run stopped by max_events must be distinguishable from quiescence —
  // at every thread count, and with the same event count and traffic (the
  // executor's budget check runs the windows near the stop sequentially).
  for (const int threads : {1, 2, 8}) {
    MpcConfig cfg;
    cfg.n = 4;
    cfg.ts = 1;
    cfg.ta = 0;
    cfg.seed = 1;
    cfg.max_events = 5000;  // far below the ~93k the run needs
    cfg.threads = threads;
    cfg.min_batch = 1;
    auto res = run_mpc(circuits::sum_all(4), {Fp(2), Fp(5), Fp(8), Fp(11)}, cfg);
    EXPECT_TRUE(res.truncated) << threads;
    EXPECT_EQ(res.events, 5000u) << threads;  // stops on exactly the budget
    EXPECT_EQ(res.honest_msgs, 2816u) << threads;
    EXPECT_EQ(res.honest_bits, 994816u) << threads;
    EXPECT_EQ(res.end_time, Tick{5000}) << threads;
    EXPECT_FALSE(res.outputs[0].has_value()) << threads;
  }
}

TEST(Truncation, QuiescentRunIsNotFlagged) {
  MpcConfig cfg;
  cfg.n = 4;
  cfg.ts = 1;
  cfg.ta = 0;
  cfg.seed = 1;
  auto res = run_mpc(circuits::sum_all(4), {Fp(2), Fp(5), Fp(8), Fp(11)}, cfg);
  EXPECT_FALSE(res.truncated);
  EXPECT_TRUE(res.all_honest_agree({}));
}

}  // namespace
}  // namespace bobw
