#include <gtest/gtest.h>

#include "src/common/codec.hpp"
#include "tests/harness.hpp"
#include "tests/reference/phase_king.hpp"

namespace bobw {
namespace {

using test::make_world;

struct PkRun {
  std::vector<std::unique_ptr<PhaseKing>> inst;

  PkRun(test::World& w, int t, Tick start, const std::vector<Bytes>& inputs) {
    inst.resize(static_cast<std::size_t>(w.n()));
    for (int i = 0; i < w.n(); ++i) {
      if (!w.runs_code(i)) continue;
      Bytes in = inputs[static_cast<std::size_t>(i)];
      inst[static_cast<std::size_t>(i)] = std::make_unique<PhaseKing>(
          w.party(i), "pk", t, start, [in] { return in; }, nullptr);
    }
  }
};

TEST(PhaseKing, ValidityUnanimousInputs) {
  const int n = 4, t = 1;
  auto w = make_world(n, t, 0, NetMode::kSynchronous, test::crash({2}));
  std::vector<Bytes> inputs(n, Bytes{0xAA, 0xBB});
  PkRun run(w, t, 0, inputs);
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    if (!w.honest(i)) continue;
    ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->output()) << i;
    EXPECT_EQ(*run.inst[static_cast<std::size_t>(i)]->output(), (Bytes{0xAA, 0xBB}));
  }
  // Deadline: output exactly at T_BGP = 3(t+1)Δ.
  EXPECT_LE(w.sim->now(), PhaseKing::duration(t, w.ctx.delta) + w.ctx.delta);
}

TEST(PhaseKing, AgreementMixedInputs) {
  const int n = 7, t = 2;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto w = make_world(n, t, 0, NetMode::kSynchronous, test::crash({1, 4}), seed);
    std::vector<Bytes> inputs(n);
    for (int i = 0; i < n; ++i) inputs[static_cast<std::size_t>(i)] = Bytes{static_cast<std::uint8_t>(i % 3)};
    PkRun run(w, t, 0, inputs);
    w.sim->run();
    std::optional<Bytes> agreed;
    for (int i = 0; i < n; ++i) {
      if (!w.honest(i)) continue;
      ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->output()) << i;
      if (agreed) { EXPECT_EQ(*agreed, *run.inst[static_cast<std::size_t>(i)]->output()); }
      agreed = run.inst[static_cast<std::size_t>(i)]->output();
    }
  }
}

/// Byzantine party that lies in every round: flips VOTE/KING payload values.
class LyingVoter : public Adversary {
 public:
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng& rng) override {
    // Garble the value inside the phase encoding (last bytes).
    if (!m.body.empty()) m.body.mutable_bytes().back() ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    return true;
  }
};

TEST(PhaseKing, AgreementUnderActiveLies) {
  const int n = 7, t = 2;
  auto adv = std::make_shared<LyingVoter>();
  adv->corrupt(0);  // party 0 is king of phase 1 — a lying king
  adv->corrupt(5);
  auto w = make_world(n, t, 0, NetMode::kSynchronous, adv, 77);
  std::vector<Bytes> inputs(n);
  for (int i = 0; i < n; ++i) inputs[static_cast<std::size_t>(i)] = Bytes{static_cast<std::uint8_t>(i & 1)};
  PkRun run(w, t, 0, inputs);
  w.sim->run();
  std::optional<Bytes> agreed;
  for (int i = 0; i < n; ++i) {
    if (!w.honest(i)) continue;
    ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->output());
    if (agreed) { EXPECT_EQ(*agreed, *run.inst[static_cast<std::size_t>(i)]->output()); }
    agreed = run.inst[static_cast<std::size_t>(i)]->output();
  }
}

TEST(PhaseKing, ValidityUnderActiveLiesUnanimousHonest) {
  const int n = 7, t = 2;
  auto adv = std::make_shared<LyingVoter>();
  adv->corrupt(2);
  adv->corrupt(6);
  auto w = make_world(n, t, 0, NetMode::kSynchronous, adv, 88);
  std::vector<Bytes> inputs(n, Bytes{0x42});
  PkRun run(w, t, 0, inputs);
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    if (!w.honest(i)) continue;
    ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->output());
    EXPECT_EQ(*run.inst[static_cast<std::size_t>(i)]->output(), (Bytes{0x42}));
  }
}

/// Corrupt non-king that retypes each VOTE2 as a well-formed KING for the
/// same phase, carrying a different value to every recipient. The forged
/// KING arrives a round before the real king's, so only the receivers'
/// king-sender check keeps it out of the tally.
class ForgedKing : public Adversary {
 public:
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng&) override {
    if (m.type != PhaseKing::kVote2) return true;
    Reader r(m.body);
    const std::uint32_t k = r.u32();
    Writer w;
    w.u32(k);
    w.bytes(Bytes{static_cast<std::uint8_t>(0xE0 + m.to)});
    m.type = PhaseKing::kKing;
    m.body = w.take();
    return true;
  }
};

TEST(PhaseKing, AgreementWhenNonKingForgesKingMessages) {
  // n = 4, t = 1: the kings are P0 and P1, so P3 is never king. Mixed
  // inputs keep every honest party unlocked, so each phase's outcome is
  // whatever KING value it accepted.
  const int n = 4, t = 1;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto adv = std::make_shared<ForgedKing>();
    adv->corrupt(3);
    auto w = make_world(n, t, 0, NetMode::kSynchronous, adv, seed);
    const std::vector<Bytes> inputs{Bytes{0x00}, Bytes{0x01}, Bytes{0x00}, Bytes{0x01}};
    PkRun run(w, t, 0, inputs);
    w.sim->run();
    std::optional<Bytes> agreed;
    for (int i = 0; i < n; ++i) {
      if (!w.honest(i)) continue;
      const auto& out = run.inst[static_cast<std::size_t>(i)]->output();
      ASSERT_TRUE(out) << i;
      if (agreed) {
        EXPECT_EQ(*agreed, *out) << "seed " << seed;
      }
      agreed = out;
    }
  }
}

TEST(PhaseKing, AsyncStillProducesSomeOutputAtDeadline) {
  // Lemma 3.2 (async): every honest party has *an* output by the local
  // deadline — no agreement promised.
  const int n = 4, t = 1;
  auto w = make_world(n, t, 0, NetMode::kAsynchronous);
  std::vector<Bytes> inputs(n, Bytes{0x01});
  PkRun run(w, t, 0, inputs);
  w.sim->run();
  for (int i = 0; i < n; ++i) ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->output());
}

TEST(PhaseKing, LateStartTimeHonored) {
  const int n = 4, t = 1;
  auto w = make_world(n, t, 0, NetMode::kSynchronous);
  std::vector<Bytes> inputs(n, Bytes{0x07});
  const Tick start = 5000;
  PkRun run(w, t, start, inputs);
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->output());
    EXPECT_EQ(*run.inst[static_cast<std::size_t>(i)]->output(), (Bytes{0x07}));
  }
  EXPECT_GE(w.sim->now(), start + PhaseKing::duration(t, w.ctx.delta));
}

}  // namespace
}  // namespace bobw
