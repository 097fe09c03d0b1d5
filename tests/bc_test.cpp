#include <gtest/gtest.h>

#include "src/bcast/bc_bank.hpp"
#include "tests/harness.hpp"

namespace bobw {
namespace {

using test::make_world;

struct BcRun {
  std::vector<std::unique_ptr<BcBank>> inst;
  std::vector<std::optional<std::optional<Bytes>>> regular;  // outer: decided?
  std::vector<std::optional<Bytes>> fallback;
  std::vector<Tick> regular_time;

  BcRun(test::World& w, int sender, Tick start) {
    const int n = w.n();
    inst.resize(static_cast<std::size_t>(n));
    regular.resize(static_cast<std::size_t>(n));
    fallback.resize(static_cast<std::size_t>(n));
    regular_time.assign(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      if (!w.runs_code(i)) continue;
      auto* world = &w;
      int idx = i;
      inst[static_cast<std::size_t>(i)] = std::make_unique<BcBank>(
          w.party(i), "bc", std::vector<int>{sender}, w.ctx, start,
          [this, idx, world](int /*slot*/, const std::optional<Bytes>& v, bool fb) {
            if (fb) {
              fallback[static_cast<std::size_t>(idx)] = v;
            } else {
              regular[static_cast<std::size_t>(idx)] = v;
              regular_time[static_cast<std::size_t>(idx)] = world->sim->now();
            }
          });
    }
  }
};

TEST(Bc, SyncHonestSenderValidityAtTbc) {
  // Thm 3.5 (sync, honest S): every honest party outputs m at T_BC through
  // regular mode.
  const int n = 4, ts = 1;
  auto w = make_world(n, ts, 0, NetMode::kSynchronous, test::crash({3}));
  BcRun run(w, 0, 0);
  Bytes m{0xCA, 0xFE};
  w.party(0).at(0, [&] { run.inst[0]->broadcast(0, m); });
  w.sim->run();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(run.regular[static_cast<std::size_t>(i)]) << i;
    ASSERT_TRUE(*run.regular[static_cast<std::size_t>(i)]) << i;
    EXPECT_EQ(**run.regular[static_cast<std::size_t>(i)], m);
    EXPECT_EQ(run.regular_time[static_cast<std::size_t>(i)], w.ctx.T.t_bc);
  }
}

TEST(Bc, SyncSilentSenderLivenessBot) {
  // Liveness: even with a silent corrupt sender everyone outputs (⊥) at T_BC.
  const int n = 4, ts = 1;
  auto w = make_world(n, ts, 0, NetMode::kSynchronous, test::crash({0}));
  BcRun run(w, 0, 0);
  w.sim->run();
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(run.regular[static_cast<std::size_t>(i)]);
    EXPECT_FALSE(*run.regular[static_cast<std::size_t>(i)]);  // ⊥
  }
}

/// Sender Acasts late — after the regular window — exercising fallback mode.
TEST(Bc, SyncLateSenderFallbackConsistency) {
  const int n = 4, ts = 1;
  auto w = make_world(n, ts, 0, NetMode::kSynchronous, test::passive({0}));
  BcRun run(w, 0, 0);
  Bytes m{0x55};
  // Corrupt (but code-running) sender starts way past T_BC.
  w.party(0).at(w.ctx.T.t_bc + 5 * w.ctx.delta, [&] { run.inst[0]->broadcast(0, m); });
  w.sim->run();
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(run.regular[static_cast<std::size_t>(i)]);
    EXPECT_FALSE(*run.regular[static_cast<std::size_t>(i)]);  // regular ⊥
    ASSERT_TRUE(run.fallback[static_cast<std::size_t>(i)]) << i;
    EXPECT_EQ(*run.fallback[static_cast<std::size_t>(i)], m);
    EXPECT_EQ(*run.inst[static_cast<std::size_t>(i)]->output(0), m);
  }
}

TEST(Bc, AsyncWeakValidityNeverWrongValue) {
  // Thm 3.5 (async, honest S): regular output is m or ⊥, never anything else;
  // fallback validity: ⊥ parties eventually switch to m.
  const int n = 4, ts = 1;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto w = make_world(n, ts, 0, NetMode::kAsynchronous, nullptr, seed);
    BcRun run(w, 0, 0);
    Bytes m{0x31, 0x32};
    w.party(0).at(0, [&] { run.inst[0]->broadcast(0, m); });
    w.sim->run();
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(run.regular[static_cast<std::size_t>(i)]);
      if (*run.regular[static_cast<std::size_t>(i)]) {
        EXPECT_EQ(**run.regular[static_cast<std::size_t>(i)], m) << "seed " << seed;
      }
      // Fallback validity — final output is always m.
      ASSERT_TRUE(run.inst[static_cast<std::size_t>(i)]->output(0));
      EXPECT_EQ(*run.inst[static_cast<std::size_t>(i)]->output(0), m);
    }
  }
}

TEST(Bc, SyncConsistencyCorruptEquivocatingSender) {
  // Thm 3.5 (sync, corrupt S): all honest parties output the SAME value at
  // T_BC through regular mode. The INIT now travels as a (type, value) group
  // inside a coalesced AcastBank batch; the equivocator decodes the batch and
  // garbles the INIT group's value per recipient.
  class Equivocator : public Adversary {
   public:
    bool participates(int) const override { return true; }
    bool filter_outgoing(Msg& m, Rng&) override {
      if (m.type != AcastBank::kBatch || route_name(m) != "bc/acast") return true;
      auto groups = bcwire::decode_acast_batch(m.body);
      bool changed = false;
      for (auto& g : groups) {
        if (g.type != AcastBank::kInit || g.value.empty()) continue;
        g.value[0] = static_cast<std::uint8_t>(m.to & 1);
        changed = true;
      }
      if (changed) m.body = bcwire::encode_acast_batch(groups);
      return true;
    }
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto adv = std::make_shared<Equivocator>();
    adv->corrupt(0);
    const int n = 4, ts = 1;
    auto w = make_world(n, ts, 0, NetMode::kSynchronous, adv, seed);
    BcRun run(w, 0, 0);
    w.party(0).at(0, [&] { run.inst[0]->broadcast(0, {0x00, 0x99}); });
    w.sim->run();
    std::optional<std::optional<Bytes>> agreed;
    for (int i = 1; i < n; ++i) {
      ASSERT_TRUE(run.regular[static_cast<std::size_t>(i)]);
      if (agreed) { EXPECT_EQ(*agreed, *run.regular[static_cast<std::size_t>(i)]) << "seed " << seed; }
      agreed = *run.regular[static_cast<std::size_t>(i)];
    }
  }
}

TEST(Bc, AsyncFallbackConsistencyCorruptSender) {
  // Thm 3.5 (async, corrupt S): if any honest party outputs m* (any mode),
  // every honest party eventually outputs m*.
  class OneRecipientEquivocator : public Adversary {
   public:
    bool participates(int) const override { return true; }
    bool filter_outgoing(Msg& m, Rng&) override {
      if (m.to != 2 || m.type != AcastBank::kBatch || route_name(m) != "bc/acast") return true;
      auto groups = bcwire::decode_acast_batch(m.body);
      bool changed = false;
      for (auto& g : groups) {
        if (g.type != AcastBank::kInit || g.value.empty()) continue;
        g.value[0] ^= 0x80;
        changed = true;
      }
      if (changed) m.body = bcwire::encode_acast_batch(groups);
      return true;
    }
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto adv = std::make_shared<OneRecipientEquivocator>();
    adv->corrupt(0);
    const int n = 4, ts = 1;
    auto w = make_world(n, ts, 0, NetMode::kAsynchronous, adv, seed);
    BcRun run(w, 0, 0);
    w.party(0).at(0, [&] { run.inst[0]->broadcast(0, {0x07, 0x08}); });
    w.sim->run();
    std::optional<Bytes> final_val;
    int with_output = 0;
    for (int i = 1; i < n; ++i) {
      const auto& out = run.inst[static_cast<std::size_t>(i)]->output(0);
      if (!out) continue;
      ++with_output;
      if (final_val) { EXPECT_EQ(*final_val, *out) << "seed " << seed; }
      final_val = *out;
    }
    if (with_output > 0) { EXPECT_EQ(with_output, n - 1) << "seed " << seed; }
  }
}

TEST(Bc, SyncConsistencyWhenNonKingForgesKingVectors) {
  // n = 4, ts = 1: the SBA kings are P0 and P1. Corrupt P3 is the sender and
  // never king. It starts one Δ late, so the Acast delivers m at T0+4Δ to
  // everyone — after the SBA read its inputs at T0+3Δ. Every SBA input is
  // ⊥, nobody locks, and each phase's outcome is the KING vector a party
  // accepted. P3 retypes each VOTE2 as a well-formed KING for the same
  // phase that is wrap(m) for P0 and ⊥ for everyone else; it arrives a
  // round before the real king's, so only the king-sender check keeps P0's
  // regular output from being m while the others' is ⊥.
  const Bytes m{0x3C, 0x3D};
  class ForgedKing : public Adversary {
   public:
    explicit ForgedKing(Bytes m) : m_(std::move(m)) {}
    bool participates(int) const override { return true; }
    bool filter_outgoing(Msg& msg, Rng&) override {
      // Any SBA schedule, by its layer segment: the bank's slot rides the
      // run-wide schedule of its start tick (plane/sba:T).
      const std::string& name = route_name(msg);
      if (msg.type != SbaBank::kVote2 || name.compare(name.rfind('/') + 1, 3, "sba") != 0)
        return true;
      auto vote = bcwire::decode_sba(msg.body);
      if (!vote) return true;
      ++forged_;
      bcwire::SbaMsg king;
      king.k = vote->k;
      if (msg.to == 0) {
        king.def = Bytes{0x01};  // the SBA encoding of value m: 0x01 || m
        king.def.insert(king.def.end(), m_.begin(), m_.end());
      }
      msg.type = SbaBank::kKing;
      msg.body = bcwire::encode_sba(king);
      return true;
    }
    int forged() const { return forged_; }

   private:
    Bytes m_;
    int forged_ = 0;
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto adv = std::make_shared<ForgedKing>(m);
    adv->corrupt(3);
    const int n = 4, ts = 1;
    auto w = make_world(n, ts, 0, NetMode::kSynchronous, adv, seed);
    BcRun run(w, 3, 0);
    w.party(3).at(w.ctx.delta, [&] { run.inst[3]->broadcast(0, m); });
    w.sim->run();
    EXPECT_GT(adv->forged(), 0) << "seed " << seed;  // the attack ran
    std::optional<std::optional<Bytes>> agreed;
    for (int i = 0; i < 3; ++i) {
      const auto& regular = run.regular[static_cast<std::size_t>(i)];
      ASSERT_TRUE(regular) << i;
      if (agreed) {
        EXPECT_EQ(*agreed, *regular) << "seed " << seed;
      }
      agreed = *regular;
    }
  }
}

TEST(Bc, StartTimeOffsetShiftsDeadline) {
  const int n = 4, ts = 1;
  auto w = make_world(n, ts, 0, NetMode::kSynchronous);
  const Tick start = 7000;
  BcRun run(w, 2, start);
  w.party(2).at(start, [&] { run.inst[2]->broadcast(0, {0x11}); });
  w.sim->run();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(run.regular[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(*run.regular[static_cast<std::size_t>(i)]);
    EXPECT_EQ(run.regular_time[static_cast<std::size_t>(i)], start + w.ctx.T.t_bc);
  }
}

}  // namespace
}  // namespace bobw
