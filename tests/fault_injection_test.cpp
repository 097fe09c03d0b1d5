// Active Byzantine behaviours at every protocol layer, run against the full
// MPC stack. The invariant under test is always the same pair from
// Theorem 7.1: honest agreement and correctness w.r.t. the CS inputs.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/bcast/bc_bank.hpp"
#include "src/core/runner.hpp"
#include "src/mpc/cir_eval.hpp"
#include "src/sim/adversary_zoo.hpp"
#include "src/vss/wire.hpp"
#include "tests/harness.hpp"

namespace bobw {
namespace {

/// Runs the stack with a given adversary and checks the Thm 7.1 invariants.
void expect_invariants(std::shared_ptr<Adversary> adv, NetMode mode, std::uint64_t seed,
                       int n = 4, int ts = 1, int ta = 0) {
  Circuit cir = circuits::pairwise_sums_product(n);
  std::vector<Fp> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(Fp(static_cast<std::uint64_t>(2 * i + 1)));
  MpcConfig cfg;
  cfg.n = n;
  cfg.ts = ts;
  cfg.ta = ta;
  cfg.mode = mode;
  cfg.adversary = std::move(adv);
  cfg.seed = seed;
  auto res = run_mpc(cir, inputs, cfg);
  std::set<int> corrupt = cfg.adversary ? cfg.adversary->corrupt_set() : std::set<int>{};
  ASSERT_TRUE(res.all_honest_agree(corrupt)) << "seed " << seed;
  std::vector<Fp> eff(inputs.size(), Fp(0));
  for (int j : res.input_cs) eff[static_cast<std::size_t>(j)] = inputs[static_cast<std::size_t>(j)];
  int honest = 0;
  while (corrupt.count(honest)) ++honest;
  EXPECT_EQ(*res.outputs[static_cast<std::size_t>(honest)], cir.eval_plain(eff)) << "seed " << seed;
}

// The generic attack strategies (garble/drop/equivocate/lag/targeted-delay)
// are ZooAdversary plans from src/sim/adversary_zoo.hpp — shared with the
// scenario fuzzer; this suite drives them against the full MPC stack and
// keeps only the protocol-aware adversaries (ReadyLiar, NokSpammer) local.

/// A ZooAdversary whose one corrupt party runs `plan`.
std::shared_ptr<Adversary> zoo_party(int party, zoo::PartyPlan plan) {
  return std::make_shared<zoo::ZooAdversary>(std::map<int, zoo::PartyPlan>{{party, plan}});
}

TEST(FaultInjection, RandomByteGarblingSync) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto adv = zoo_party(2, {zoo::Mal::kGarble, 50, 0});
    expect_invariants(adv, NetMode::kSynchronous, seed);
  }
}

TEST(FaultInjection, RandomByteGarblingAsync) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    auto adv = zoo_party(1, {zoo::Mal::kGarble, 50, 0});
    expect_invariants(adv, NetMode::kAsynchronous, seed, 5, 1, 1);
  }
}

TEST(FaultInjection, SelectiveMessageDropping) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto adv = zoo_party(3, {zoo::Mal::kDrop, 60, 0});
    expect_invariants(adv, NetMode::kSynchronous, seed);
  }
}

TEST(FaultInjection, GenericEquivocation) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    // The lowest id takes many dealer/king/sender roles.
    auto adv = zoo_party(0, {zoo::Mal::kEquivocate, 50, 0});
    expect_invariants(adv, NetMode::kSynchronous, seed);
  }
}

TEST(FaultInjection, LaggardPartyAsync) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    auto adv = zoo_party(2, {zoo::Mal::kLag, 50, 50'000});
    expect_invariants(adv, NetMode::kAsynchronous, seed, 5, 1, 1);
  }
}

TEST(FaultInjection, StarvedHonestVictimAsync) {
  // No corrupt party at all — only adversarial scheduling. Everybody (the
  // victim included) must still terminate with the right output.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    zoo::SchedPlan sched;
    sched.victim = 1;
    sched.victim_lag = 30'000;
    auto adv = std::make_shared<zoo::ZooAdversary>(std::map<int, zoo::PartyPlan>{}, sched);
    expect_invariants(adv, NetMode::kAsynchronous, seed, 5, 1, 1);
  }
}

/// Lies in the termination phase: floods ready messages with a wrong output.
class ReadyLiar : public Adversary {
 public:
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng&) override {
    if (route_name(m) == "mpc" && m.type == CirEval::kReady && m.body.size() >= 8)
      m.body.mutable_bytes()[0] ^= 0xFF;  // corrupt the claimed output value
    return true;
  }
};

TEST(FaultInjection, TerminationGadgetResistsWrongReady) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto adv = std::make_shared<ReadyLiar>();
    adv->corrupt(1);
    expect_invariants(adv, NetMode::kSynchronous, seed);
  }
}

/// NOK-spammer: turns every OK verdict broadcast into a bogus NOK.
class NokSpammer : public Adversary {
 public:
  explicit NokSpammer(int n) : ok_slots_(static_cast<std::uint32_t>((n + 1) * n * n)) {}
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng& rng) override {
    // Verdicts ride the ACast bank of a sharing's schedule plane
    // (".../plane/acast"), whose first (n+1)·n² slots are the n child ok
    // grids and the dealer's (src/vss/plane.hpp). An OK verdict is the INIT
    // value {1}; re-send those slots' OKs as NOKs with a random value.
    if (m.type != AcastBank::kBatch || !route_name(m).ends_with("/plane/acast")) return true;
    std::vector<bcwire::AcastGroup> out;
    bool changed = false;
    for (auto& g : bcwire::decode_acast_batch(m.body, bcwire::kMaxSlots)) {
      if (g.type == AcastBank::kInit && g.value == Bytes{1}) {
        auto grid_end = std::stable_partition(g.slots.begin(), g.slots.end(),
                                              [this](std::uint32_t s) { return s < ok_slots_; });
        if (grid_end != g.slots.begin()) {
          wire::Verdict v;
          v.ok = false;
          v.nok_value = Fp(rng.next_u64() % Fp::kP);
          out.push_back({AcastBank::kInit, wire::encode_verdict(v), {g.slots.begin(), grid_end}});
          g.slots.erase(g.slots.begin(), grid_end);
          changed = true;
        }
      }
      if (!g.slots.empty()) out.push_back(std::move(g));
    }
    if (!changed) return true;
    m.body = bcwire::encode_acast_batch(out);
    ++rewritten_;
    return true;
  }
  int rewritten() const { return rewritten_; }

 private:
  std::uint32_t ok_slots_;
  int rewritten_ = 0;
};

TEST(FaultInjection, NokSpammerCannotBreakSharing) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    auto adv = std::make_shared<NokSpammer>(4);
    adv->corrupt(2);
    expect_invariants(adv, NetMode::kSynchronous, seed);
    // The spammer must actually have lied, or the invariants say nothing.
    EXPECT_GT(adv->rewritten(), 0) << "seed " << seed;
  }
}

// ---- composite zoo strategies against the full stack ----------------------

TEST(FaultInjection, PartitionThenHealAsync) {
  // Split {0,1,2} | {3,4} for the first 8Δ, then heal. Asynchronous model:
  // the scheduler may hold honest traffic arbitrarily (but finitely) long.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    zoo::SchedPlan sched;
    sched.side_of = {0, 0, 0, 1, 1};
    sched.heal_at = 8000;
    auto adv = std::make_shared<zoo::ZooAdversary>(
        std::map<int, zoo::PartyPlan>{{1, {zoo::Mal::kGarble, 30, 0}}}, sched);
    expect_invariants(adv, NetMode::kAsynchronous, seed, 5, 1, 1);
  }
}

TEST(FaultInjection, MobileCorruptionRotatesWithinBudget) {
  // Corrupt union {2, 3}, one actively-misbehaving party per Δ-epoch.
  // Threshold accounting is against the union (a static adversary can
  // simulate any union-bounded mobile one), so the run uses n = 7, ts = 2:
  // the union fills the budget while the active window rotates inside it.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    auto adv = std::make_shared<zoo::ZooAdversary>(
        std::map<int, zoo::PartyPlan>{{2, {zoo::Mal::kGarble, 50, 0}},
                                      {3, {zoo::Mal::kDrop, 40, 0}}},
        zoo::SchedPlan{}, zoo::MobilePlan{1000, 1});
    expect_invariants(adv, NetMode::kSynchronous, seed, 7, 2, 0);
  }
}

}  // namespace
}  // namespace bobw
