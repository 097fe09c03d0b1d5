// Differential suite for the slot-multiplexed broadcast bank.
//
// BcBank must preserve each slot's ΠBC decision logic bit-for-bit while
// multiplexing the transport. In the round-crisp synchronous network the
// bank's Δ-boundary flushes land on exactly the ticks where the per-pair
// path generated its traffic and the delay is the constant Δ (no RNG draw),
// so a BcBank run must match K independent per-pair Bc instances
// (tests/reference/legacy_bcgrid.hpp — the frozen pre-bank composition)
// EXACTLY: per-slot regular outputs, regular decision ticks, fallback
// switches and final outputs, under honest, crash, Byzantine-sender and
// staggered-start scenarios. In the asynchronous network the delay-RNG
// streams diverge by construction (fewer messages), so the differential
// drops to the protocol guarantees both planes must satisfy: weak validity
// per slot and identical final values for honest senders.
#include <gtest/gtest.h>

#include "src/bcast/bc_bank.hpp"
#include "src/sim/adversary_zoo.hpp"
#include "tests/harness.hpp"
#include "tests/reference/legacy_bcgrid.hpp"
#include "tests/reference/legacy_vssplanes.hpp"

namespace bobw {
namespace {

using test::make_world;

constexpr Tick kNever = ~Tick{0};

struct SlotRecord {
  std::optional<std::optional<Bytes>> regular;  // outer: decided?
  Tick regular_time = kNever;
  std::optional<Bytes> fallback;
  Tick fallback_time = kNever;
  std::optional<Bytes> final_out;
};

/// Per-party records of a K-slot run, bank- or grid-backed.
struct Records {
  std::vector<std::vector<SlotRecord>> r;  // [party][slot]
  Records(int n, int K)
      : r(static_cast<std::size_t>(n), std::vector<SlotRecord>(static_cast<std::size_t>(K))) {}
  SlotRecord& at(int p, int s) {
    return r[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)];
  }
};

struct BankRun {
  std::vector<std::unique_ptr<BcBank>> inst;  // per party
  Records rec;

  /// `build_now` false: the caller builds each party's bank with build().
  BankRun(test::World& w, const std::vector<int>& senders, Tick start, std::string route = "g",
          bool build_now = true)
      : rec(w.n(), static_cast<int>(senders.size())),
        senders_(senders),
        start_(start),
        route_(std::move(route)) {
    inst.resize(static_cast<std::size_t>(w.n()));
    if (build_now)
      for (int i = 0; i < w.n(); ++i) build(w, i);
  }

  void build(test::World& w, int i) {
    if (!w.runs_code(i)) return;
    auto* world = &w;
    auto* recs = &rec;
    inst[static_cast<std::size_t>(i)] = std::make_unique<BcBank>(
        w.party(i), route_, senders_, w.ctx, start_,
        [recs, world, i](int slot, const std::optional<Bytes>& v, bool fb) {
          SlotRecord& sr = recs->at(i, slot);
          if (fb) {
            sr.fallback = v;
            sr.fallback_time = world->sim->now();
          } else {
            sr.regular = v;
            sr.regular_time = world->sim->now();
          }
        });
  }

  void capture_finals(test::World& w, int K) {
    for (int i = 0; i < w.n(); ++i) {
      if (!inst[static_cast<std::size_t>(i)]) continue;
      for (int s = 0; s < K; ++s)
        rec.at(i, s).final_out = inst[static_cast<std::size_t>(i)]->output(s);
    }
  }

 private:
  std::vector<int> senders_;
  Tick start_;
  std::string route_;
};

struct GridRun {
  // inst[party][slot]
  std::vector<std::vector<std::unique_ptr<legacybc::Bc>>> inst;
  Records rec;

  GridRun(test::World& w, const std::vector<int>& senders, Tick start)
      : rec(w.n(), static_cast<int>(senders.size())) {
    const int K = static_cast<int>(senders.size());
    inst.resize(static_cast<std::size_t>(w.n()));
    for (int i = 0; i < w.n(); ++i) {
      if (!w.runs_code(i)) continue;
      inst[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(K));
      for (int s = 0; s < K; ++s) {
        auto* world = &w;
        auto* recs = &rec;
        int p = i, slot = s;
        inst[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)] =
            std::make_unique<legacybc::Bc>(
                w.party(i), "g:" + std::to_string(s), senders[static_cast<std::size_t>(s)],
                w.ctx, start,
                [recs, world, p, slot](const std::optional<Bytes>& v, bool fb) {
                  SlotRecord& sr = recs->at(p, slot);
                  if (fb) {
                    sr.fallback = v;
                    sr.fallback_time = world->sim->now();
                  } else {
                    sr.regular = v;
                    sr.regular_time = world->sim->now();
                  }
                });
      }
    }
  }

  void capture_finals(test::World& w, int K) {
    for (int i = 0; i < w.n(); ++i) {
      if (inst[static_cast<std::size_t>(i)].empty()) continue;
      for (int s = 0; s < K; ++s)
        rec.at(i, s).final_out = inst[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)]->output();
    }
  }
};

/// Slot value a test sender broadcasts: distinct per slot, >= 2 bytes.
Bytes slot_value(int slot) {
  return Bytes{static_cast<std::uint8_t>(0xA0 + slot), static_cast<std::uint8_t>(slot * 7 + 1)};
}

void expect_identical(const Records& bank, const Records& grid, int n, int K,
                      const char* tag) {
  for (int p = 0; p < n; ++p)
    for (int s = 0; s < K; ++s) {
      const SlotRecord& b = bank.r[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)];
      const SlotRecord& g = grid.r[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)];
      ASSERT_EQ(b.regular.has_value(), g.regular.has_value())
          << tag << " party " << p << " slot " << s;
      if (b.regular) {
        EXPECT_EQ(*b.regular, *g.regular) << tag << " party " << p << " slot " << s;
        EXPECT_EQ(b.regular_time, g.regular_time) << tag << " party " << p << " slot " << s;
      }
      EXPECT_EQ(b.fallback, g.fallback) << tag << " party " << p << " slot " << s;
      if (b.fallback) {
        EXPECT_EQ(b.fallback_time, g.fallback_time) << tag << " party " << p << " slot " << s;
      }
      EXPECT_EQ(b.final_out, g.final_out) << tag << " party " << p << " slot " << s;
    }
}

/// The n²-slot ok-grid shape: slot i*n+j has sender i.
std::vector<int> grid_senders(int n) {
  std::vector<int> s(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) s[static_cast<std::size_t>(i * n + j)] = i;
  return s;
}

// ---- sync: exact equality against the frozen per-pair grid ----------------

TEST(BcBank, SyncOkGridExactlyMatchesPerPairGrid) {
  const int n = 4, ts = 1, K = n * n;
  auto senders = grid_senders(n);

  auto wb = make_world(n, ts, 0, NetMode::kSynchronous);
  BankRun bank(wb, senders, 0);
  for (int i = 0; i < n; ++i)
    wb.party(i).at(0, [&bank, i, n] {
      for (int j = 0; j < n; ++j) bank.inst[static_cast<std::size_t>(i)]->broadcast(i * n + j, slot_value(i * n + j));
    });
  wb.sim->run();
  bank.capture_finals(wb, K);
  const auto bank_msgs = wb.sim->metrics().honest_msgs();

  auto wg = make_world(n, ts, 0, NetMode::kSynchronous);
  GridRun grid(wg, senders, 0);
  for (int i = 0; i < n; ++i)
    wg.party(i).at(0, [&grid, i, n] {
      for (int j = 0; j < n; ++j)
        grid.inst[static_cast<std::size_t>(i)][static_cast<std::size_t>(i * n + j)]->broadcast(
            slot_value(i * n + j));
    });
  wg.sim->run();
  grid.capture_finals(wg, K);
  const auto grid_msgs = wg.sim->metrics().honest_msgs();

  expect_identical(bank.rec, grid.rec, n, K, "sync grid");
  // Every slot decided its sender's value through regular mode at T_BC.
  for (int p = 0; p < n; ++p)
    for (int s = 0; s < K; ++s) {
      ASSERT_TRUE(bank.rec.at(p, s).regular);
      ASSERT_TRUE(*bank.rec.at(p, s).regular);
      EXPECT_EQ(**bank.rec.at(p, s).regular, slot_value(s));
      EXPECT_EQ(bank.rec.at(p, s).regular_time, wb.ctx.T.t_bc);
    }
  // The transport multiplexing is the point: >= 5x fewer honest messages.
  EXPECT_GE(grid_msgs, 5 * bank_msgs) << "grid " << grid_msgs << " bank " << bank_msgs;
}

TEST(BcBank, SyncSlotsStartedInDifferentWindowsExactMatch) {
  // Slots enter the bank in different Δ-windows: in-window staggered starts,
  // one slot past the regular deadline (fallback path) and one never-started
  // slot (⊥, no fallback).
  const int n = 4, ts = 1;
  const std::vector<int> senders{0, 1, 2, 3, 0, 1};
  const int K = static_cast<int>(senders.size());

  auto run_broadcasts = [&](auto broadcast, test::World& w) {
    for (int s = 0; s < K - 1; ++s) {
      const int snd = senders[static_cast<std::size_t>(s)];
      const Tick when = s == 4 ? w.ctx.T.t_bc + 2 * w.ctx.delta
                               : static_cast<Tick>(s % 3) * w.ctx.delta;
      w.party(snd).at(when, [broadcast, s] { broadcast(s); });
    }
    // slot K-1 never broadcast.
  };

  auto wb = make_world(n, ts, 0, NetMode::kSynchronous);
  BankRun bank(wb, senders, 0);
  run_broadcasts(
      [&bank, &senders](int s) {
        bank.inst[static_cast<std::size_t>(senders[static_cast<std::size_t>(s)])]->broadcast(
            s, slot_value(s));
      },
      wb);
  wb.sim->run();
  bank.capture_finals(wb, K);

  auto wg = make_world(n, ts, 0, NetMode::kSynchronous);
  GridRun grid(wg, senders, 0);
  run_broadcasts(
      [&grid, &senders](int s) {
        grid.inst[static_cast<std::size_t>(senders[static_cast<std::size_t>(s)])]
                 [static_cast<std::size_t>(s)]
                     ->broadcast(slot_value(s));
      },
      wg);
  wg.sim->run();
  grid.capture_finals(wg, K);

  expect_identical(bank.rec, grid.rec, n, K, "staggered");
  // Late slot 4: regular ⊥ everywhere, later fallback to the value.
  for (int p = 0; p < n; ++p) {
    ASSERT_TRUE(bank.rec.at(p, 4).regular);
    EXPECT_FALSE(*bank.rec.at(p, 4).regular);
    ASSERT_TRUE(bank.rec.at(p, 4).fallback);
    EXPECT_EQ(*bank.rec.at(p, 4).fallback, slot_value(4));
  }
  // Never-started slot 5: ⊥ regular, no fallback.
  for (int p = 0; p < n; ++p) {
    ASSERT_TRUE(bank.rec.at(p, 5).regular);
    EXPECT_FALSE(*bank.rec.at(p, 5).regular);
    EXPECT_FALSE(bank.rec.at(p, 5).fallback);
  }
}

TEST(BcBank, SyncCrashSendersExactMatch) {
  const int n = 4, ts = 1, K = n * n;
  auto senders = grid_senders(n);

  auto broadcast_all = [&](auto broadcast, test::World& w) {
    for (int i = 0; i < n; ++i) {
      if (!w.runs_code(i)) continue;
      w.party(i).at(0, [broadcast, i, n] {
        for (int j = 0; j < n; ++j) broadcast(i, i * n + j);
      });
    }
  };

  auto wb = make_world(n, ts, 0, NetMode::kSynchronous, test::crash({1}));
  BankRun bank(wb, senders, 0);
  broadcast_all(
      [&bank](int i, int s) { bank.inst[static_cast<std::size_t>(i)]->broadcast(s, slot_value(s)); },
      wb);
  wb.sim->run();
  bank.capture_finals(wb, K);

  auto wg = make_world(n, ts, 0, NetMode::kSynchronous, test::crash({1}));
  GridRun grid(wg, senders, 0);
  broadcast_all(
      [&grid](int i, int s) {
        grid.inst[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)]->broadcast(slot_value(s));
      },
      wg);
  wg.sim->run();
  grid.capture_finals(wg, K);

  // Crashed party 1 records nothing; compare the running parties only.
  for (int p = 0; p < n; ++p) {
    if (p == 1) continue;
    for (int s = 0; s < K; ++s) {
      const SlotRecord& b = bank.rec.at(p, s);
      ASSERT_TRUE(b.regular) << p << " " << s;
      if (s / n == 1) {
        EXPECT_FALSE(*b.regular) << p << " " << s;  // crashed sender's slots: ⊥
      } else {
        ASSERT_TRUE(*b.regular) << p << " " << s;
        EXPECT_EQ(**b.regular, slot_value(s));
      }
      EXPECT_EQ(b.regular, grid.rec.at(p, s).regular) << p << " " << s;
      EXPECT_EQ(b.regular_time, grid.rec.at(p, s).regular_time) << p << " " << s;
      EXPECT_EQ(b.fallback, grid.rec.at(p, s).fallback) << p << " " << s;
      EXPECT_EQ(b.final_out, grid.rec.at(p, s).final_out) << p << " " << s;
    }
  }
}

// ---- sync: Byzantine equivocating sender, same effective garbling ---------

/// Garbles the per-pair plane: INIT bodies on "/acast" routes get their first
/// byte replaced by the recipient's parity.
class GridEquivocator : public Adversary {
 public:
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng&) override {
    const std::string& r = route_name(m);
    if (m.type == Acast::kInit && !m.body.empty() && r.ends_with("/acast"))
      m.body.mutable_bytes()[0] = static_cast<std::uint8_t>(m.to & 1);
    return true;
  }
};

/// The same per-slot garbling on the banked plane: INIT groups inside a
/// coalesced batch get their value's first byte replaced identically.
class BankEquivocator : public Adversary {
 public:
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng&) override {
    const std::string& r = route_name(m);
    if (m.type != AcastBank::kBatch || !r.ends_with("/acast")) return true;
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

TEST(BcBank, SyncByzantineEquivocatingSenderExactMatch) {
  const int n = 4, ts = 1, K = n * n;
  auto senders = grid_senders(n);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto badv = std::make_shared<BankEquivocator>();
    badv->corrupt(0);
    auto wb = make_world(n, ts, 0, NetMode::kSynchronous, badv, seed);
    BankRun bank(wb, senders, 0);
    for (int i = 0; i < n; ++i)
      wb.party(i).at(0, [&bank, i, n] {
        for (int j = 0; j < n; ++j) bank.inst[static_cast<std::size_t>(i)]->broadcast(i * n + j, slot_value(i * n + j));
      });
    wb.sim->run();
    bank.capture_finals(wb, K);

    auto gadv = std::make_shared<GridEquivocator>();
    gadv->corrupt(0);
    auto wg = make_world(n, ts, 0, NetMode::kSynchronous, gadv, seed);
    GridRun grid(wg, senders, 0);
    for (int i = 0; i < n; ++i)
      wg.party(i).at(0, [&grid, i, n] {
        for (int j = 0; j < n; ++j)
          grid.inst[static_cast<std::size_t>(i)][static_cast<std::size_t>(i * n + j)]->broadcast(
              slot_value(i * n + j));
      });
    wg.sim->run();
    grid.capture_finals(wg, K);

    expect_identical(bank.rec, grid.rec, n, K, "byzantine");
    // Consistency within the banked plane: honest parties agree per slot.
    for (int s = 0; s < K; ++s)
      for (int p = 2; p < n; ++p) {
        ASSERT_TRUE(bank.rec.at(p, s).regular) << "seed " << seed;
        EXPECT_EQ(*bank.rec.at(1, s).regular, *bank.rec.at(p, s).regular)
            << "seed " << seed << " slot " << s;
      }
  }
}

// ---- garbled slot entries inside a coalesced batch ------------------------

/// Corrupts exactly one slot's INIT entry inside the sender's batches —
/// points its slot list out of range — leaving the sibling entries intact.
class SlotEntryGarbler : public Adversary {
 public:
  explicit SlotEntryGarbler(std::uint32_t victim_slot) : victim_(victim_slot) {}
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng&) override {
    if (m.type != AcastBank::kBatch) return true;
    auto groups = bcwire::decode_acast_batch(m.body);
    bool changed = false;
    for (auto& g : groups)
      for (auto& s : g.slots)
        if (g.type == AcastBank::kInit && s == victim_) {
          s = 0xFFFF;  // out-of-range slot id: the entry is dropped, the rest stand
          changed = true;
        }
    if (changed) m.body = bcwire::encode_acast_batch(groups);
    return true;
  }

 private:
  std::uint32_t victim_;
};

TEST(BcBank, GarbledSlotEntryInsideBatchLeavesSiblingSlotsIntact) {
  // Corrupt party 1 garbles the INIT entry of its own slot 1*n+2 inside the
  // same coalesced batch that carries its other INITs. The garbled slot must
  // come out ⊥ (consistently), every other slot — including party 1's other
  // slots, coalesced in the same wire message — exactly as in a clean run.
  const int n = 4, ts = 1, K = n * n;
  const std::uint32_t victim = 1u * n + 2u;
  auto senders = grid_senders(n);
  auto adv = std::make_shared<SlotEntryGarbler>(victim);
  adv->corrupt(1);
  auto w = make_world(n, ts, 0, NetMode::kSynchronous, adv);
  BankRun bank(w, senders, 0);
  for (int i = 0; i < n; ++i)
    w.party(i).at(0, [&bank, i, n] {
      for (int j = 0; j < n; ++j) bank.inst[static_cast<std::size_t>(i)]->broadcast(i * n + j, slot_value(i * n + j));
    });
  w.sim->run();
  bank.capture_finals(w, K);

  for (int p = 0; p < n; ++p)
    for (int s = 0; s < K; ++s) {
      const SlotRecord& r = bank.rec.at(p, s);
      ASSERT_TRUE(r.regular) << p << " " << s;
      if (s == static_cast<int>(victim)) {
        EXPECT_FALSE(*r.regular) << p;  // INIT never valid anywhere
        EXPECT_FALSE(r.fallback) << p;
      } else {
        ASSERT_TRUE(*r.regular) << p << " " << s;
        EXPECT_EQ(**r.regular, slot_value(s));
        EXPECT_EQ(r.regular_time, w.ctx.T.t_bc);
      }
    }
}

TEST(BcBank, TruncatedBatchSalvagesWellFormedPrefixGroups) {
  // A batch whose tail is chopped mid-group still delivers the prefix
  // groups: the sender's first INIT slot decides, the truncated one is ⊥.
  class Truncator : public Adversary {
   public:
    bool participates(int) const override { return true; }
    bool filter_outgoing(Msg& m, Rng&) override {
      if (m.type != AcastBank::kBatch) return true;
      auto groups = bcwire::decode_acast_batch(m.body);
      if (groups.size() < 2 || groups[0].type != AcastBank::kInit) return true;
      Bytes& b = m.body.mutable_bytes();
      b.resize(b.size() - 2);  // chop into the last group's slot list
      return true;
    }
  };
  const int n = 4, ts = 1;
  const std::vector<int> senders{1, 1};  // two slots, both sender 1
  auto adv = std::make_shared<Truncator>();
  adv->corrupt(1);
  auto w = make_world(n, ts, 0, NetMode::kSynchronous, adv);
  BankRun bank(w, senders, 0);
  w.party(1).at(0, [&bank] {
    bank.inst[1]->broadcast(0, slot_value(0));
    bank.inst[1]->broadcast(1, slot_value(1));
  });
  w.sim->run();
  bank.capture_finals(w, 2);

  for (int p = 0; p < n; ++p) {
    ASSERT_TRUE(bank.rec.at(p, 0).regular) << p;
    ASSERT_TRUE(*bank.rec.at(p, 0).regular) << p;
    EXPECT_EQ(**bank.rec.at(p, 0).regular, slot_value(0));
    ASSERT_TRUE(bank.rec.at(p, 1).regular) << p;
    EXPECT_FALSE(*bank.rec.at(p, 1).regular) << p;  // truncated INIT never landed
  }
}

// ---- async: semantic differential -----------------------------------------

TEST(BcBank, AsyncHonestSendersMatchPerPairGuarantees) {
  // Async delays draw different RNG streams on the two planes, so exact tick
  // equality is out of reach by construction; both planes must still deliver
  // the paper guarantees per slot: regular output is the sender's value or ⊥
  // (weak validity), the final output is always the sender's value.
  const int n = 4, ts = 1;
  const std::vector<int> senders{0, 1, 2, 3, 0, 2};
  const int K = static_cast<int>(senders.size());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto wb = make_world(n, ts, 0, NetMode::kAsynchronous, nullptr, seed);
    BankRun bank(wb, senders, 0);
    for (int s = 0; s < K; ++s) {
      const int snd = senders[static_cast<std::size_t>(s)];
      wb.party(snd).at(0, [&bank, snd, s] {
        bank.inst[static_cast<std::size_t>(snd)]->broadcast(s, slot_value(s));
      });
    }
    wb.sim->run();
    bank.capture_finals(wb, K);

    auto wg = make_world(n, ts, 0, NetMode::kAsynchronous, nullptr, seed);
    GridRun grid(wg, senders, 0);
    for (int s = 0; s < K; ++s) {
      const int snd = senders[static_cast<std::size_t>(s)];
      wg.party(snd).at(0, [&grid, snd, s] {
        grid.inst[static_cast<std::size_t>(snd)][static_cast<std::size_t>(s)]->broadcast(
            slot_value(s));
      });
    }
    wg.sim->run();
    grid.capture_finals(wg, K);

    for (int p = 0; p < n; ++p)
      for (int s = 0; s < K; ++s) {
        for (const Records* rec : {&bank.rec, &grid.rec}) {
          const SlotRecord& r = rec->r[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)];
          ASSERT_TRUE(r.regular) << "seed " << seed;
          if (*r.regular) {
            EXPECT_EQ(**r.regular, slot_value(s)) << "seed " << seed;
          }
          ASSERT_TRUE(r.final_out) << "seed " << seed << " party " << p << " slot " << s;
          EXPECT_EQ(*r.final_out, slot_value(s)) << "seed " << seed;
        }
      }
  }
}

// ---- a lone ΠBC: one group, K = 1 ----------------------------------------

TEST(BcBank, K1WrapperMatchesPerPairBcExactly) {
  const int n = 4, ts = 1;
  for (bool late : {false, true}) {
    auto wb = make_world(n, ts, 0, NetMode::kSynchronous);
    Records brec(n, 1);
    std::vector<std::unique_ptr<BcBank>> binst;
    for (int i = 0; i < n; ++i) {
      auto* world = &wb;
      auto* recs = &brec;
      int p = i;
      binst.push_back(std::make_unique<BcBank>(
          wb.party(i), "bc", std::vector<int>{2}, wb.ctx, 0,
          [recs, world, p](int /*slot*/, const std::optional<Bytes>& v, bool fb) {
            SlotRecord& sr = recs->at(p, 0);
            if (fb) {
              sr.fallback = v;
              sr.fallback_time = world->sim->now();
            } else {
              sr.regular = v;
              sr.regular_time = world->sim->now();
            }
          }));
    }
    const Tick when = late ? wb.ctx.T.t_bc + 3 * wb.ctx.delta : 0;
    wb.party(2).at(when, [&binst] { binst[2]->broadcast(0, {0x42, 0x43}); });
    wb.sim->run();
    for (int i = 0; i < n; ++i) brec.at(i, 0).final_out = binst[static_cast<std::size_t>(i)]->output(0);

    auto wg = make_world(n, ts, 0, NetMode::kSynchronous);
    Records grec(n, 1);
    std::vector<std::unique_ptr<legacybc::Bc>> ginst;
    for (int i = 0; i < n; ++i) {
      auto* world = &wg;
      auto* recs = &grec;
      int p = i;
      ginst.push_back(std::make_unique<legacybc::Bc>(
          wg.party(i), "bc", 2, wg.ctx, 0,
          [recs, world, p](const std::optional<Bytes>& v, bool fb) {
            SlotRecord& sr = recs->at(p, 0);
            if (fb) {
              sr.fallback = v;
              sr.fallback_time = world->sim->now();
            } else {
              sr.regular = v;
              sr.regular_time = world->sim->now();
            }
          }));
    }
    wg.party(2).at(when, [&ginst] { ginst[2]->broadcast({0x42, 0x43}); });
    wg.sim->run();
    for (int i = 0; i < n; ++i) grec.at(i, 0).final_out = ginst[static_cast<std::size_t>(i)]->output();

    expect_identical(brec, grec, n, 1, late ? "k1 late" : "k1");
  }
}

// ---- zoo schedulers: exact equality under adversarial scheduling ----------
//
// The differential needs identical *schedules* in both planes, not
// model-legal ones: the zoo schedulers' delay_override is a pure function of
// (from, to, sent_at) with no RNG draws, so in the round-crisp synchronous
// network even a schedule the synchronous model forbids (starving one victim
// past Δ, holding cross-partition traffic for several Δ) must leave the bank
// and the frozen per-pair grid tick-for-tick identical — including any
// fallback switches the skew provokes. Protocol guarantees are NOT asserted
// here; only plane equivalence.

/// Zoo scheduler plans with an empty corrupt set: every message to `victim`
/// pinned at `lag`, or cross-partition traffic held until `heal_at`.
std::shared_ptr<Adversary> targeted_delay(int victim, Tick lag) {
  zoo::SchedPlan sched;
  sched.victim = victim;
  sched.victim_lag = lag;
  return std::make_shared<zoo::ZooAdversary>(std::map<int, zoo::PartyPlan>{}, sched);
}

std::shared_ptr<Adversary> partition_heal(std::vector<std::uint8_t> side_of, Tick heal_at) {
  zoo::SchedPlan sched;
  sched.side_of = std::move(side_of);
  sched.heal_at = heal_at;
  return std::make_shared<zoo::ZooAdversary>(std::map<int, zoo::PartyPlan>{}, sched);
}

void run_zoo_differential(std::shared_ptr<Adversary> bank_adv,
                          std::shared_ptr<Adversary> grid_adv, const char* tag) {
  const int n = 4, ts = 1, K = n * n;
  auto senders = grid_senders(n);

  auto wb = make_world(n, ts, 0, NetMode::kSynchronous, std::move(bank_adv));
  BankRun bank(wb, senders, 0);
  for (int i = 0; i < n; ++i)
    wb.party(i).at(0, [&bank, i, n] {
      for (int j = 0; j < n; ++j)
        bank.inst[static_cast<std::size_t>(i)]->broadcast(i * n + j, slot_value(i * n + j));
    });
  wb.sim->run();
  bank.capture_finals(wb, K);

  auto wg = make_world(n, ts, 0, NetMode::kSynchronous, std::move(grid_adv));
  GridRun grid(wg, senders, 0);
  for (int i = 0; i < n; ++i)
    wg.party(i).at(0, [&grid, i, n] {
      for (int j = 0; j < n; ++j)
        grid.inst[static_cast<std::size_t>(i)][static_cast<std::size_t>(i * n + j)]->broadcast(
            slot_value(i * n + j));
    });
  wg.sim->run();
  grid.capture_finals(wg, K);

  expect_identical(bank.rec, grid.rec, n, K, tag);
}

TEST(BcBank, TargetedDelayExactlyMatchesPerPairGrid) {
  // Victim starved at 3Δ — every message to P2 lands two rounds late.
  run_zoo_differential(targeted_delay(2, 3000), targeted_delay(2, 3000), "targeted-delay");
}

TEST(BcBank, PartitionThenHealExactlyMatchesPerPairGrid) {
  // {0,1} | {2,3} for the first 6Δ, then whole again.
  const std::vector<std::uint8_t> sides{0, 0, 1, 1};
  run_zoo_differential(partition_heal(sides, 6000), partition_heal(sides, 6000),
                       "partition-heal");
}

// ---- schedule plane vs fully independent banks ----------------------------
//
// One ΠVSS sharing runs 4n+4 broadcast/BA groups (planelayout::
// sharing_plane_groups — the exact layout src/vss/vss.cpp builds): the n
// child-ΠWPS ok grids and the dealer ok grid, per-child and ΠVSS wef/★₂
// broadcasts, and the ΠBA input bits. The plane rides one Acast window and
// seven SBA schedules; the frozen reference
// (tests/reference/legacy_vssplanes.hpp) puts every group on its own bank —
// 4n+4 of each. The differential drives identical traffic across all layers
// through both wirings and demands per-(group, slot) records tick-for-tick
// identical: regular outputs, decision ticks, fallback switches, finals.

Tick vss_child_start(const Ctx& ctx, Tick base) { return base + 3 * ctx.delta; }
Tick vss_dealer_start(const Ctx& ctx, Tick base) { return base + ctx.delta + ctx.T.t_wps; }

/// Value a test sender broadcasts on plane (group, slot): distinct per pair.
Bytes plane_value(int group, int slot) {
  return Bytes{static_cast<std::uint8_t>(group), static_cast<std::uint8_t>(slot),
               static_cast<std::uint8_t>(group * 31 + slot * 7 + 1)};
}

/// Slot count of plane group g (see the layout table in src/vss/plane.hpp).
int plane_group_slots(int n, int g) {
  if (g <= n) return n * n;       // ok grids
  if (g <= 2 * n) return 1;       // child wefs
  if (g <= 3 * n) return n;       // child ΠBA inputs
  if (g <= 4 * n) return 1;       // child ★₂
  if (g == 4 * n + 2) return n;   // ΠVSS ΠBA inputs
  return 1;                       // ΠVSS wef / ★₂
}

/// Flattened index of plane (group, slot) into one Records row.
int plane_flat_index(int n, int g, int s) {
  if (g <= n) return g * n * n + s;
  int idx = (n + 1) * n * n;
  if (g <= 2 * n) return idx + (g - n - 1);
  idx += n;
  if (g <= 3 * n) return idx + (g - 2 * n - 1) * n + s;
  idx += n * n;
  if (g <= 4 * n) return idx + (g - 3 * n - 1);
  idx += n;
  if (g == 4 * n + 1) return idx;
  if (g == 4 * n + 2) return idx + 1 + s;
  return idx + 1 + n;
}

int plane_total_slots(int n) { return plane_flat_index(n, 4 * n + 3, 0) + 1; }

struct PlaneRun {
  std::vector<std::unique_ptr<BcBank>> inst;  // per party
  Records rec;

  PlaneRun(test::World& w, Tick vss_base) : rec(w.n(), plane_total_slots(w.n())) {
    const int n = w.n();
    inst.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (!w.runs_code(i)) continue;
      auto* world = &w;
      auto* recs = &rec;
      int p = i;
      inst[static_cast<std::size_t>(i)] = std::make_unique<BcBank>(
          w.party(i), "vss/plane",
          planelayout::sharing_plane_groups(
              n, /*dealer=*/0, vss_base, w.ctx,
              [recs, world, p, n](int g, int s, const std::optional<Bytes>& v, bool fb) {
                SlotRecord& sr = recs->at(p, plane_flat_index(n, g, s));
                if (fb) {
                  sr.fallback = v;
                  sr.fallback_time = world->sim->now();
                } else {
                  sr.regular = v;
                  sr.regular_time = world->sim->now();
                }
              }),
          w.ctx);
    }
  }

  void broadcast(int i, int g, int s, const Bytes& m) {
    inst[static_cast<std::size_t>(i)]->broadcast(g, s, m);
  }

  void capture_finals(test::World& w) {
    const int n = w.n();
    for (int i = 0; i < n; ++i) {
      if (!inst[static_cast<std::size_t>(i)]) continue;
      for (int g = 0; g < 4 * n + 4; ++g)
        for (int s = 0; s < plane_group_slots(n, g); ++s)
          rec.at(i, plane_flat_index(n, g, s)).final_out =
              inst[static_cast<std::size_t>(i)]->output(g, s);
    }
  }
};

struct LegacyPlanesRun {
  std::vector<std::unique_ptr<legacyvss::Planes>> inst;  // per party
  Records rec;

  LegacyPlanesRun(test::World& w, Tick vss_base) : rec(w.n(), plane_total_slots(w.n())) {
    const int n = w.n();
    inst.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (!w.runs_code(i)) continue;
      auto* world = &w;
      auto* recs = &rec;
      int p = i;
      inst[static_cast<std::size_t>(i)] = std::make_unique<legacyvss::Planes>(
          w.party(i), "vss", /*dealer=*/0, w.ctx, vss_base,
          [recs, world, p, n](int g, int s, const std::optional<Bytes>& v, bool fb) {
            SlotRecord& sr = recs->at(p, plane_flat_index(n, g, s));
            if (fb) {
              sr.fallback = v;
              sr.fallback_time = world->sim->now();
            } else {
              sr.regular = v;
              sr.regular_time = world->sim->now();
            }
          });
    }
  }

  void broadcast(int i, int g, int s, const Bytes& m) {
    inst[static_cast<std::size_t>(i)]->broadcast(g, s, m);
  }

  void capture_finals(test::World& w) {
    const int n = w.n();
    for (int i = 0; i < n; ++i) {
      if (!inst[static_cast<std::size_t>(i)]) continue;
      for (int g = 0; g < 4 * n + 4; ++g)
        for (int s = 0; s < plane_group_slots(n, g); ++s)
          rec.at(i, plane_flat_index(n, g, s)).final_out =
              inst[static_cast<std::size_t>(i)]->output(g, s);
    }
  }
};

/// Full honest traffic across every layer, at each layer's production start:
/// ok grids, per-child wef/★₂ stars, ΠBA input bits, and the dealer's ΠVSS
/// wef/★₂ — the shape one sharing produces when everything fires on schedule.
template <typename Run>
void drive_plane_traffic(test::World& w, Run& run, Tick vss_base) {
  const int n = w.n();
  const Ctx& ctx = w.ctx;
  const Tick child_ok = vss_child_start(ctx, vss_base);
  const Tick ok_start = vss_dealer_start(ctx, vss_base);  // = child ★₂ start
  const Tick accept_time = ok_start + 2 * ctx.T.t_bc;
  for (int i = 0; i < n; ++i) {
    if (!w.runs_code(i)) continue;
    w.party(i).at(child_ok, [&run, i, n] {
      for (int g = 0; g < n; ++g)
        for (int j = 0; j < n; ++j) run.broadcast(i, g, i * n + j, plane_value(g, i * n + j));
    });
    w.party(i).at(child_ok + ctx.T.t_bc, [&run, i, n] {
      run.broadcast(i, n + 1 + i, 0, plane_value(n + 1 + i, 0));
    });
    w.party(i).at(child_ok + 2 * ctx.T.t_bc, [&run, i, n] {
      for (int g = 0; g < n; ++g)
        run.broadcast(i, 2 * n + 1 + g, i, plane_value(2 * n + 1 + g, i));
    });
    w.party(i).at(ok_start, [&run, i, n] {
      for (int j = 0; j < n; ++j) run.broadcast(i, n, i * n + j, plane_value(n, i * n + j));
      run.broadcast(i, 3 * n + 1 + i, 0, plane_value(3 * n + 1 + i, 0));
    });
    if (i == 0) {  // the dealer's ΠVSS-level wef and ★₂
      w.party(i).at(ok_start + ctx.T.t_bc,
                    [&run, n] { run.broadcast(0, 4 * n + 1, 0, plane_value(4 * n + 1, 0)); });
      w.party(i).at(accept_time + ctx.T.t_ba,
                    [&run, n] { run.broadcast(0, 4 * n + 3, 0, plane_value(4 * n + 3, 0)); });
    }
    w.party(i).at(accept_time, [&run, i, n] {
      run.broadcast(i, 4 * n + 2, i, plane_value(4 * n + 2, i));
    });
  }
}

void run_plane_differential(std::shared_ptr<Adversary> plane_adv,
                            std::shared_ptr<Adversary> legacy_adv, const char* tag,
                            Tick vss_base = 0, std::uint64_t seed = 42) {
  const int n = 4, ts = 1;
  auto wp = make_world(n, ts, 0, NetMode::kSynchronous, std::move(plane_adv), seed);
  PlaneRun plane(wp, vss_base);
  drive_plane_traffic(wp, plane, vss_base);
  wp.sim->run();
  plane.capture_finals(wp);

  auto wl = make_world(n, ts, 0, NetMode::kSynchronous, std::move(legacy_adv), seed);
  LegacyPlanesRun legacy(wl, vss_base);
  drive_plane_traffic(wl, legacy, vss_base);
  wl.sim->run();
  legacy.capture_finals(wl);

  expect_identical(plane.rec, legacy.rec, n, plane_total_slots(n), tag);
}

TEST(VssSchedulePlane, CrispSyncExactlyMatchesPerChildWiring) {
  const int n = 4, ts = 1;
  auto wp = make_world(n, ts, 0, NetMode::kSynchronous);
  PlaneRun plane(wp, 0);
  drive_plane_traffic(wp, plane, 0);
  wp.sim->run();
  plane.capture_finals(wp);
  const auto plane_msgs = wp.sim->metrics().honest_msgs();
  const test::BankCount plane_banks = test::count_banks(*wp.sim);
  // The whole sharing rides ONE Acast window and one SBA schedule per
  // distinct layer start time — seven, independent of n.
  EXPECT_EQ(plane_banks.acast, 1);
  EXPECT_EQ(plane_banks.sba, 7);

  auto wl = make_world(n, ts, 0, NetMode::kSynchronous);
  LegacyPlanesRun legacy(wl, 0);
  drive_plane_traffic(wl, legacy, 0);
  wl.sim->run();
  legacy.capture_finals(wl);
  const auto legacy_msgs = wl.sim->metrics().honest_msgs();
  const test::BankCount legacy_banks = test::count_banks(*wl.sim);
  EXPECT_EQ(legacy_banks.acast, 4 * n + 4);
  EXPECT_EQ(legacy_banks.sba, 4 * n + 4);

  expect_identical(plane.rec, legacy.rec, n, plane_total_slots(n), "plane-crisp");
  EXPECT_GE(legacy_msgs, 2 * plane_msgs) << legacy_msgs << " vs " << plane_msgs;
}

TEST(VssSchedulePlane, StaggeredStartsAndLateExactMatch) {
  // In-window staggered ok verdicts, a never-started ok slot (⊥), party 1's
  // (W,E,F) past the wef regular deadline and party 3's dealer-grid row past
  // its deadline: both late arrivals must surface as fallback switches at
  // identical ticks in both wirings.
  const int n = 4, ts = 1;
  for (Tick vss_base : {Tick{0}, Tick{500}}) {
    auto drive = [&](auto& run, test::World& w) {
      const Ctx& ctx = w.ctx;
      const Tick child_ok = vss_child_start(ctx, vss_base);
      const Tick ok_start = vss_dealer_start(ctx, vss_base);
      const Tick accept_time = ok_start + 2 * ctx.T.t_bc;
      const Tick half = ctx.delta / 2;
      for (int i = 0; i < n; ++i) {
        const Tick when = child_ok + (i % 2 ? half : 0);
        w.party(i).at(when, [&run, i, n] {
          for (int g = 0; g < n; ++g)
            for (int j = 0; j < n; ++j) {
              if (g == 0 && i == 2 && j == 3) continue;  // never started -> ⊥
              run.broadcast(i, g, i * n + j, plane_value(g, i * n + j));
            }
        });
        const Tick wwhen =
            child_ok + ctx.T.t_bc + (i == 1 ? ctx.T.t_bc + 2 * ctx.delta : Tick{0});
        w.party(i).at(wwhen, [&run, i, n] {
          run.broadcast(i, n + 1 + i, 0, plane_value(n + 1 + i, 0));
        });
        w.party(i).at(child_ok + 2 * ctx.T.t_bc, [&run, i, n] {
          for (int g = 0; g < n; ++g)
            run.broadcast(i, 2 * n + 1 + g, i, plane_value(2 * n + 1 + g, i));
        });
        const Tick dwhen = i == 3 ? ok_start + ctx.T.t_bc + 2 * ctx.delta : ok_start;
        w.party(i).at(dwhen, [&run, i, n] {
          for (int j = 0; j < n; ++j) run.broadcast(i, n, i * n + j, plane_value(n, i * n + j));
        });
        w.party(i).at(ok_start, [&run, i, n] {
          run.broadcast(i, 3 * n + 1 + i, 0, plane_value(3 * n + 1 + i, 0));
        });
        if (i == 0) {
          w.party(i).at(ok_start + ctx.T.t_bc,
                        [&run, n] { run.broadcast(0, 4 * n + 1, 0, plane_value(4 * n + 1, 0)); });
          w.party(i).at(accept_time + ctx.T.t_ba,
                        [&run, n] { run.broadcast(0, 4 * n + 3, 0, plane_value(4 * n + 3, 0)); });
        }
        w.party(i).at(accept_time, [&run, i, n] {
          run.broadcast(i, 4 * n + 2, i, plane_value(4 * n + 2, i));
        });
      }
    };

    auto wp = make_world(n, ts, 0, NetMode::kSynchronous);
    PlaneRun plane(wp, vss_base);
    drive(plane, wp);
    wp.sim->run();
    plane.capture_finals(wp);

    auto wl = make_world(n, ts, 0, NetMode::kSynchronous);
    LegacyPlanesRun legacy(wl, vss_base);
    drive(legacy, wl);
    wl.sim->run();
    legacy.capture_finals(wl);

    expect_identical(plane.rec, legacy.rec, n, plane_total_slots(n), "plane-staggered");
    // Party 1's late wef really did fall back somewhere.
    bool wef_fb = false;
    for (int p = 0; p < n; ++p)
      if (plane.rec.at(p, plane_flat_index(n, n + 2, 0)).fallback) wef_fb = true;
    EXPECT_TRUE(wef_fb);
    // The never-started ok slot is ⊥ everywhere.
    for (int p = 0; p < n; ++p) {
      const SlotRecord& sr = plane.rec.at(p, plane_flat_index(n, 0, 2 * n + 3));
      ASSERT_TRUE(sr.regular);
      EXPECT_FALSE(*sr.regular);
      EXPECT_FALSE(sr.final_out);
    }
  }
}

TEST(VssSchedulePlane, CrashedPartyExactMatch) {
  // Party 1 crashes outright: its ok rows, wef, ★₂ and BA bits stay ⊥ in
  // every layer, all other slots decide normally — identically in both.
  run_plane_differential(test::crash({1}), test::crash({1}), "plane-crash");
}

TEST(VssSchedulePlane, ByzantineEquivocatorExactMatch) {
  // Both wirings are bank-backed end to end, so the same per-recipient INIT
  // garbling applies unchanged to either.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto padv = std::make_shared<BankEquivocator>();
    padv->corrupt(0);
    auto ladv = std::make_shared<BankEquivocator>();
    ladv->corrupt(0);
    run_plane_differential(std::move(padv), std::move(ladv), "plane-equivocator", 0, seed);
  }
}

TEST(VssSchedulePlane, ZooSchedulersExactMatch) {
  run_plane_differential(targeted_delay(2, 3000), targeted_delay(2, 3000),
                         "plane-targeted-delay");
  const std::vector<std::uint8_t> sides{0, 0, 1, 1};
  run_plane_differential(partition_heal(sides, 6000), partition_heal(sides, 6000),
                         "plane-partition");
}

// ---- run-wide SBA schedules -----------------------------------------------
//
// Every bank of a run whose SBA starts at the same tick seats its slots on
// the party's one schedule for that tick (SbaBank::at_tick). A slot's
// phase-king decision reads only its own column of the vote vectors, so
// sharing a schedule must leave every slot of every bank exactly as that
// bank decides it alone: same regular outputs, fallback switches and ticks.

/// Bank "a" has the n² ok-grid shape, bank "b" one slot per party. Every
/// sender broadcasts at the start except one slot per bank, whose sender
/// starts one Δ late: its Acast lands after the SBA read its input, so the
/// slot is ⊥ in regular mode and switches in fallback.
constexpr int kSharedN = 4;
const int kLateA = 1 * kSharedN + 2, kLateB = 2;

std::vector<int> b_senders() { return {0, 1, 2, 3}; }

struct BanksOutcome {
  Records a, b;
  int sba_schedules = 0;
};

/// Runs bank a and/or bank b, both starting at 0, on one Sim. Party i
/// builds b before a iff `b_first(i)`.
BanksOutcome run_banks(bool with_a, bool with_b, const std::function<bool(int)>& b_first,
                       std::shared_ptr<Adversary> adv = nullptr) {
  const int n = kSharedN;
  auto w = make_world(n, 1, 0, NetMode::kSynchronous, std::move(adv));
  BankRun a(w, grid_senders(n), 0, "a", false), b(w, b_senders(), 0, "b", false);
  for (int i = 0; i < n; ++i) {
    if (with_b && b_first(i)) b.build(w, i);
    if (with_a) a.build(w, i);
    if (with_b && !b_first(i)) b.build(w, i);
  }
  for (int i = 0; i < n; ++i) {
    if (with_a) {
      w.party(i).at(0, [&a, i, n] {
        for (int j = 0; j < n; ++j)
          if (i * n + j != kLateA)
            a.inst[static_cast<std::size_t>(i)]->broadcast(i * n + j, slot_value(i * n + j));
      });
      if (i * n <= kLateA && kLateA < (i + 1) * n)
        w.party(i).at(w.ctx.delta, [&a, i] {
          a.inst[static_cast<std::size_t>(i)]->broadcast(kLateA, slot_value(kLateA));
        });
    }
    if (with_b)
      w.party(i).at(i == kLateB ? w.ctx.delta : 0, [&b, i] {
        b.inst[static_cast<std::size_t>(i)]->broadcast(i, slot_value(40 + i));
      });
  }
  w.sim->run();
  a.capture_finals(w, n * n);
  b.capture_finals(w, n);
  return {a.rec, b.rec, test::count_banks(*w.sim).sba};
}

void expect_late_slot_fell_back(const Records& r, int slot, const char* tag) {
  for (int p = 0; p < kSharedN; ++p) {
    const SlotRecord& sr = r.r[static_cast<std::size_t>(p)][static_cast<std::size_t>(slot)];
    ASSERT_TRUE(sr.regular) << tag << " party " << p;
    EXPECT_FALSE(*sr.regular) << tag << " party " << p;
    EXPECT_TRUE(sr.fallback) << tag << " party " << p;
  }
}

TEST(SbaSchedule, UnrelatedBanksWithOneStartShareOneSchedule) {
  const int n = kSharedN;
  const auto never = [](int) { return false; };
  const BanksOutcome shared = run_banks(true, true, never);
  const BanksOutcome solo_a = run_banks(true, false, never);
  const BanksOutcome solo_b = run_banks(false, true, never);
  EXPECT_EQ(shared.sba_schedules, 1);
  EXPECT_EQ(solo_a.sba_schedules, 1);
  expect_identical(shared.a, solo_a.a, n, n * n, "shared-a");
  expect_identical(shared.b, solo_b.b, n, n, "shared-b");
  // Not vacuous: each bank has a ⊥-then-fallback slot next to regular ones.
  expect_late_slot_fell_back(shared.a, kLateA, "a");
  expect_late_slot_fell_back(shared.b, kLateB, "b");
  ASSERT_TRUE(shared.a.r[0][0].regular);
  EXPECT_EQ(*shared.a.r[0][0].regular, slot_value(0));
}

TEST(SbaSchedule, LayoutIgnoresConstructionOrder) {
  // Parties 0 and 2 build bank b first, parties 1 and 3 bank a first. The
  // schedule lays seats out by the banks' routes, so the K-slot vectors
  // still line up across parties and every slot decides as when alone.
  const int n = kSharedN;
  for (const auto& b_first : std::vector<std::function<bool(int)>>{
           [](int i) { return i % 2 == 0; }, [](int i) { return i % 2 == 1; }}) {
    const BanksOutcome shared = run_banks(true, true, b_first);
    const BanksOutcome solo_a = run_banks(true, false, b_first);
    const BanksOutcome solo_b = run_banks(false, true, b_first);
    EXPECT_EQ(shared.sba_schedules, 1);
    expect_identical(shared.a, solo_a.a, n, n * n, "reordered-a");
    expect_identical(shared.b, solo_b.b, n, n, "reordered-b");
  }
}

/// Corrupt party that attacks the shared schedule itself: every SBA vector
/// it sends to P0 claims one value of its own for every slot, the ones to
/// P1 are truncated (dropped wholesale), and P2 gets the honest vector.
class ScheduleEquivocator : public Adversary {
 public:
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng&) override {
    const std::string& r = route_name(m);
    if (r.compare(r.rfind('/') + 1, 3, "sba") != 0) return true;
    if (m.to == 0) {
      auto vote = bcwire::decode_sba(m.body);
      if (!vote) return true;
      vote->groups.clear();
      vote->def = Bytes{0x01, 0xEE};
      m.body = bcwire::encode_sba(*vote);
      ++rewritten_;
    } else if (m.to == 1) {
      const auto half = static_cast<std::ptrdiff_t>(m.body.size() / 2);
      m.body = Bytes(m.body.begin(), m.body.begin() + half);
      ++rewritten_;
    }
    return true;
  }
  int rewritten() const { return rewritten_; }

 private:
  int rewritten_ = 0;
};

TEST(SbaSchedule, CorruptPartyOnSharedScheduleChangesNoSlotOfTheOtherBank) {
  // The same attack runs against each bank alone and against both sharing
  // one schedule; per-slot independence means neither bank can tell.
  const int n = kSharedN;
  const auto never = [](int) { return false; };
  auto run = [&](bool with_a, bool with_b) {
    auto adv = std::make_shared<ScheduleEquivocator>();
    adv->corrupt(3);
    BanksOutcome o = run_banks(with_a, with_b, never, adv);
    EXPECT_GT(adv->rewritten(), 0);  // the attack ran
    return o;
  };
  const BanksOutcome shared = run(true, true);
  const BanksOutcome solo_a = run(true, false);
  const BanksOutcome solo_b = run(false, true);
  EXPECT_EQ(shared.sba_schedules, 1);
  expect_identical(shared.a, solo_a.a, n, n * n, "attacked-a");
  expect_identical(shared.b, solo_b.b, n, n, "attacked-b");
  expect_late_slot_fell_back(shared.a, kLateA, "attacked-a");
}

}  // namespace
}  // namespace bobw
