#include <gtest/gtest.h>

#include "tests/harness.hpp"
#include "tests/reference/acast.hpp"

namespace bobw {
namespace {

using test::make_world;

struct AcastRun {
  std::vector<std::unique_ptr<Acast>> inst;
  std::vector<std::optional<Tick>> out_time;

  AcastRun(test::World& w, int sender, int t) {
    inst.resize(static_cast<std::size_t>(w.n()));
    out_time.resize(static_cast<std::size_t>(w.n()));
    for (int i = 0; i < w.n(); ++i) {
      if (!w.runs_code(i)) continue;
      auto& slot = out_time[static_cast<std::size_t>(i)];
      auto& party = w.party(i);
      inst[static_cast<std::size_t>(i)] = std::make_unique<Acast>(
          party, "acast", sender, t, [&slot, &party](const Bytes&) { slot = party.now(); });
    }
  }
};

TEST(Acast, HonestSenderSynchronousWithin3Delta) {
  // Lemma 2.4: honest S in a synchronous network -> all honest output m by 3Δ.
  auto w = make_world(4, 1, 0, NetMode::kSynchronous, test::crash({3}));
  AcastRun run(w, /*sender=*/0, /*t=*/1);
  Bytes m{1, 2, 3};
  w.party(0).at(0, [&] { run.inst[0]->start(m); });
  w.sim->run();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->output()) << i;
    EXPECT_EQ(*run.inst[static_cast<std::size_t>(i)]->output(), m);
    EXPECT_LE(*run.out_time[static_cast<std::size_t>(i)], 3 * w.ctx.delta);
  }
}

TEST(Acast, HonestSenderAsynchronousEventual) {
  auto w = make_world(7, 2, 1, NetMode::kAsynchronous, test::crash({5, 6}));
  AcastRun run(w, 0, 2);
  Bytes m{9};
  w.party(0).at(0, [&] { run.inst[0]->start(m); });
  w.sim->run();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->output()) << i;
    EXPECT_EQ(*run.inst[static_cast<std::size_t>(i)]->output(), m);
  }
}

TEST(Acast, SilentSenderNoLiveness) {
  auto w = make_world(4, 1, 0, NetMode::kSynchronous, test::crash({0}));
  AcastRun run(w, 0, 1);
  w.sim->run();
  for (int i = 1; i < 4; ++i) EXPECT_FALSE(run.inst[static_cast<std::size_t>(i)]->output());
}

/// Corrupt sender sends INIT with different first bytes to different parties.
class EquivocatingSender : public Adversary {
 public:
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng&) override {
    if (m.type == Acast::kInit && !m.body.empty())
      m.body.mutable_bytes()[0] = static_cast<std::uint8_t>(m.to);
    return true;
  }
};

TEST(Acast, EquivocatingSenderConsistency) {
  // t-consistency: honest parties never output *different* values, whatever
  // the equivocation pattern; with a split vote they may output nothing.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto adv = std::make_shared<EquivocatingSender>();
    adv->corrupt(0);
    auto w = make_world(4, 1, 0, NetMode::kAsynchronous, adv, seed);
    AcastRun run(w, 0, 1);
    w.party(0).at(0, [&] { run.inst[0]->start({0x77}); });
    w.sim->run();
    std::optional<Bytes> seen;
    for (int i = 1; i < 4; ++i) {
      const auto& out = run.inst[static_cast<std::size_t>(i)]->output();
      if (!out) continue;
      if (seen) { EXPECT_EQ(*seen, *out) << "seed " << seed; }
      seen = out;
    }
  }
}

TEST(Acast, CorruptSenderAllOrNothingEventually) {
  // If one honest party outputs m*, every honest party eventually outputs m*
  // (consistency, asynchronous). Use a sender that equivocates to only one
  // recipient — thresholds still force a single value through.
  class OneOffSender : public Adversary {
   public:
    bool participates(int) const override { return true; }
    bool filter_outgoing(Msg& m, Rng&) override {
      if (m.type == Acast::kInit && m.to == 1 && !m.body.empty()) m.body.mutable_bytes()[0] ^= 0xFF;
      return true;
    }
  };
  auto adv = std::make_shared<OneOffSender>();
  adv->corrupt(0);
  auto w = make_world(4, 1, 0, NetMode::kAsynchronous, adv, 3);
  AcastRun run(w, 0, 1);
  w.party(0).at(0, [&] { run.inst[0]->start({0x10}); });
  w.sim->run();
  int outputs = 0;
  std::optional<Bytes> seen;
  for (int i = 1; i < 4; ++i) {
    const auto& out = run.inst[static_cast<std::size_t>(i)]->output();
    if (!out) continue;
    ++outputs;
    if (seen) { EXPECT_EQ(*seen, *out); }
    seen = out;
  }
  if (outputs > 0) { EXPECT_EQ(outputs, 3); }
}

TEST(Acast, CommunicationIsQuadraticInN) {
  // Lemma 2.4: O(n^2 ℓ) bits. Measure bits for n and 2n and check the ratio
  // is ~4 (ℓ fixed and dominant).
  auto measure = [](int n) {
    auto w = make_world(n, (n - 1) / 3, 0, NetMode::kSynchronous);
    AcastRun run(w, 0, (n - 1) / 3);
    Bytes m(256, 0xAB);
    w.party(0).at(0, [&] { run.inst[0]->start(m); });
    w.sim->run();
    return static_cast<double>(w.sim->metrics().honest_bits());
  };
  double b4 = measure(4), b8 = measure(8);
  EXPECT_GT(b8 / b4, 2.5);
  EXPECT_LT(b8 / b4, 6.5);
}

}  // namespace
}  // namespace bobw
