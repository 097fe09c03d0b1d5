// The ΠABA plane (src/ba/aba.hpp): its wire decoder under truncated, forged,
// random and mutated bytes; slot isolation under a corrupt party that
// equivocates on one slot; the key-order layout whatever order the ΠBAs are
// built in; and one plane per distinct ΠABA start tick in a full ΠCirEval
// run.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/ba/aba.hpp"
#include "src/ba/ba.hpp"
#include "src/bcast/bc_bank.hpp"
#include "src/mpc/cir_eval.hpp"
#include "tests/harness.hpp"

namespace bobw {
namespace {

using test::make_world;
using abawire::Group;

// ---------------------------------------------------------------- abawire ---

/// Groups in wire order: (type, round, value) ascending, DECIDED first.
std::vector<Group> sample_groups() {
  return {{AbaBank::kDecided, 1, true, {3}},
          {AbaBank::kEst, 1, false, {0, 1, 2, 5, 6, 7}},
          {AbaBank::kEst, 1, true, {4}},
          {AbaBank::kEst, 2, true, {0, 2, 4, 6}},
          {AbaBank::kAux, 1, false, {0, 1, 2}},
          {AbaBank::kAux, 300000, true, {7}}};
}

bool same(const Group& a, const Group& b) {
  return a.type == b.type && a.round == b.round && a.value == b.value && a.slots == b.slots;
}

/// What every decoded message must satisfy, whatever bytes it came from.
void expect_well_formed(const std::vector<Group>& gs, std::uint64_t K, const std::string& what) {
  for (std::size_t i = 0; i < gs.size(); ++i) {
    const Group& g = gs[i];
    EXPECT_LE(g.type, AbaBank::kAux) << what;
    EXPECT_GE(g.round, 1u) << what;
    EXPECT_LT(g.round, abawire::kMaxRound) << what;
    for (std::size_t s = 0; s < g.slots.size(); ++s) {
      EXPECT_LT(g.slots[s], K) << what;
      if (s > 0) { EXPECT_LT(g.slots[s - 1], g.slots[s]) << what; }
    }
    if (i > 0) {
      const Group& p = gs[i - 1];
      EXPECT_LT(std::make_tuple(p.type, p.round, p.value),
                std::make_tuple(g.type, g.round, g.value))
          << what;
    }
  }
}

TEST(AbaWire, EncodeIsCanonicalAndRoundTrips) {
  const std::vector<Group> groups = sample_groups();
  const Bytes want = abawire::encode(groups);
  // The same sends in reverse order, one slot per group, one of them twice:
  // the same bytes.
  std::vector<Group> scrambled;
  for (auto it = groups.rbegin(); it != groups.rend(); ++it)
    for (auto s = it->slots.rbegin(); s != it->slots.rend(); ++s)
      scrambled.push_back(Group{it->type, it->round, it->value, {*s}});
  scrambled.push_back(scrambled.front());
  EXPECT_EQ(abawire::encode(scrambled), want);
  const std::vector<Group> back = abawire::decode(want, 8);
  ASSERT_EQ(back.size(), groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) EXPECT_TRUE(same(back[i], groups[i])) << i;
}

TEST(AbaWire, TruncationAtEveryOffsetLeavesAPrefixOfGroups) {
  const std::vector<Group> groups = sample_groups();
  const Bytes full = abawire::encode(groups);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const Bytes part(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    std::vector<Group> got;
    ASSERT_NO_THROW(got = abawire::decode(part, 8)) << "cut " << cut;
    ASSERT_LT(got.size(), groups.size()) << "cut " << cut;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(same(got[i], groups[i])) << "cut " << cut << " group " << i;
  }
}

TEST(AbaWire, ForgedHugeRunIsClippedToK) {
  // One run of 2^32 − 1 slots from id 0, in the run form of bcwire's code.
  Writer w;
  w.u8(static_cast<std::uint8_t>(AbaBank::kEst << 1 | 1));
  w.var(1);
  w.u8(0);  // run form
  w.var(1);  // one run
  w.var(0);  // gap
  w.var(0xFFFFFFFEull);  // length − 1
  const std::vector<Group> got = abawire::decode(w.take(), 8);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].slots, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(AbaWire, ByzantineRoundsAndTypesAreDroppedAndRepeatsEndTheMessage) {
  auto put = [](Writer& w, int type, std::uint64_t round, bool value,
                std::vector<std::uint32_t> slots) {
    w.u8(static_cast<std::uint8_t>(type << 1 | (value ? 1 : 0)));
    w.var(round);
    bcwire::put_slot_set(w, slots);
  };
  Writer w;
  put(w, AbaBank::kEst, 0, false, {1});  // round 0: dropped
  put(w, AbaBank::kEst, 5, false, {2});
  put(w, AbaBank::kEst, abawire::kMaxRound - 1, false, {3});
  put(w, AbaBank::kEst, abawire::kMaxRound, false, {4});  // dropped
  put(w, AbaBank::kEst, std::uint64_t{1} << 40, true, {4});  // dropped
  put(w, 3, 1, false, {5});  // unknown type: dropped
  put(w, 3, 1, false, {6});  // repeated key: ends the message
  put(w, 4, 1, false, {7});
  const std::vector<Group> got = abawire::decode(w.take(), 8);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(same(got[0], Group{AbaBank::kEst, 5, false, {2}}));
  EXPECT_TRUE(same(got[1], Group{AbaBank::kEst, abawire::kMaxRound - 1, false, {3}}));

  // A key below its predecessor ends the message too.
  Writer v;
  put(v, AbaBank::kAux, 1, false, {0});
  put(v, AbaBank::kEst, 1, false, {1});
  put(v, AbaBank::kAux, 2, false, {2});
  const std::vector<Group> got2 = abawire::decode(v.take(), 8);
  ASSERT_EQ(got2.size(), 1u);
  EXPECT_TRUE(same(got2[0], Group{AbaBank::kAux, 1, false, {0}}));
}

TEST(AbaWire, RandomAndMutatedBytesNeverThrowAndDecodeWellFormed) {
  Rng rng(0xABA);
  const Bytes valid = abawire::encode(sample_groups());
  for (int trial = 0; trial < 4000; ++trial) {
    Bytes b;
    if (trial % 2 == 0) {
      b.resize(rng.next_below(48));
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_below(256));
    } else {
      b = valid;
      for (std::uint64_t k = rng.next_below(4) + 1; k > 0; --k) {
        const std::size_t at = rng.next_below(b.size() + 1);
        switch (rng.next_below(3)) {
          case 0:
            if (at < b.size()) b[at] = static_cast<std::uint8_t>(rng.next_below(256));
            break;
          case 1:
            b.insert(b.begin() + static_cast<std::ptrdiff_t>(at),
                     static_cast<std::uint8_t>(rng.next_below(256)));
            break;
          default:
            if (at < b.size()) b.erase(b.begin() + static_cast<std::ptrdiff_t>(at));
        }
      }
    }
    std::vector<Group> got;
    ASSERT_NO_THROW(got = abawire::decode(b, 8)) << "trial " << trial;
    expect_well_formed(got, 8, "trial " + std::to_string(trial));
  }
}

// ------------------------------------------------------------ plane runs ---

/// One K-slot plane per party on the route "aba", starting at tick 0. Slot k
/// is keyed by the interior route aba/s:k, whose path hash is its coin key.
struct PlaneRun {
  std::vector<std::unique_ptr<AbaBank>> bank;
  std::vector<std::vector<std::optional<bool>>> decided;  // [party][slot]
  std::vector<std::vector<Tick>> decide_time;

  PlaneRun(test::World& w, int t, int K, const std::function<bool(int party, int slot)>& input) {
    const auto n = static_cast<std::size_t>(w.n());
    bank.resize(n);
    decided.assign(n, std::vector<std::optional<bool>>(static_cast<std::size_t>(K)));
    decide_time.assign(n, std::vector<Tick>(static_cast<std::size_t>(K), 0));
    RouteTable& routes = w.sim->routes();
    for (int i = 0; i < w.n(); ++i) {
      if (!w.runs_code(i)) continue;
      auto& b = bank[static_cast<std::size_t>(i)];
      b = std::make_unique<AbaBank>(w.party(i), "aba", t, *w.coin, 0);
      for (int k = 0; k < K; ++k) {
        const RouteId key = routes.child(b->route(), "s", k);
        Sim* sim = w.sim.get();
        b->enroll(key, routes.path_hash(key), [this, i, k, sim](bool v) {
          decided[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] = v;
          decide_time[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] = sim->now();
        });
        AbaBank* B = b.get();
        const bool v = input(i, k);
        w.party(i).at(0, [B, k, v] { B->start(k, v); });
      }
    }
  }
};

/// Garbles a corrupt party's plane traffic: truncation at a random offset,
/// flipped, inserted or random bytes, a forged 2^32 − 1 run or a round id
/// past the bound; a message in four goes out untouched.
class BatchGarbler : public Adversary {
 public:
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng& rng) override {
    Bytes& b = m.body.mutable_bytes();
    switch (rng.next_below(8)) {
      case 0:
        b.resize(rng.next_below(b.size() + 1));
        break;
      case 1:
        if (!b.empty())
          b[rng.next_below(b.size())] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
        break;
      case 2:
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(rng.next_below(b.size() + 1)),
                 static_cast<std::uint8_t>(rng.next_below(256)));
        break;
      case 3:
        for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_below(256));
        break;
      case 4: {
        Writer w;
        w.u8(static_cast<std::uint8_t>(AbaBank::kEst << 1 | rng.next_below(2)));
        w.var(1);
        w.u8(0);
        w.var(1);
        w.var(0);
        w.var(0xFFFFFFFEull);
        b = w.take();
        break;
      }
      case 5: {
        std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5};
        Writer w;
        w.u8(static_cast<std::uint8_t>(AbaBank::kAux << 1 | rng.next_below(2)));
        w.var(abawire::kMaxRound + rng.next_below(1000));
        bcwire::put_slot_set(w, all);
        b = w.take();
        break;
      }
      default:
        break;
    }
    return true;
  }
};

TEST(AbaPlane, GarbledBatchesNeverChangeAnHonestDecisionAndTheRunQuiesces) {
  // Honest inputs are unanimous per slot (slot k: k odd), so validity fixes
  // every honest decision; the garbling party may only fail to change it.
  const int K = 6;
  for (NetMode mode : {NetMode::kSynchronous, NetMode::kAsynchronous}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      auto adv = std::make_shared<BatchGarbler>();
      adv->corrupt(3);
      auto w = make_world(4, 1, 1, mode, adv, seed);
      PlaneRun run(w, 1, K, [](int, int k) { return k % 2 == 1; });
      const std::uint64_t events = w.sim->run();
      EXPECT_LT(events, 200'000u) << "seed " << seed;
      EXPECT_FALSE(w.sim->truncated());
      for (int i = 0; i < 3; ++i)
        for (int k = 0; k < K; ++k) {
          const auto& d = run.decided[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
          ASSERT_TRUE(d) << "seed " << seed << " party " << i << " slot " << k;
          EXPECT_EQ(*d, k % 2 == 1) << "seed " << seed << " party " << i << " slot " << k;
        }
    }
  }
}

/// Runs the honest code but, when `attack` is set, equivocates on plane slot
/// `target` only: every EST/AUX it sends for that slot carries value
/// to % 2 for receiver `to`, and each of its messages naming the slot also
/// carries a DECIDED for to % 2. Its traffic for every other slot is the
/// honest one. In the asynchronous network the delay of a message is fixed
/// by (sender, receiver, send tick), so messages the attack adds or removes
/// move no other message.
class SlotEquivocator : public Adversary {
 public:
  SlotEquivocator(std::uint32_t target, bool attack, bool async)
      : target_(target), attack_(attack), async_(async) {}
  bool participates(int) const override { return true; }

  bool filter_outgoing(Msg& m, Rng&) override {
    if (!attack_) return true;
    std::vector<Group> out;
    bool named = false;
    for (Group& g : abawire::decode(m.body, bcwire::kMaxSlots)) {
      std::vector<std::uint32_t> rest;
      for (std::uint32_t s : g.slots)
        if (s != target_) rest.push_back(s);
      if (rest.size() != g.slots.size()) {
        named = true;
        if (g.type != AbaBank::kDecided) {
          out.push_back(Group{g.type, g.round, m.to % 2 == 1, {target_}});
          ++lies_;
        }
      }
      if (!rest.empty()) out.push_back(Group{g.type, g.round, g.value, std::move(rest)});
    }
    if (named) {
      out.push_back(Group{AbaBank::kDecided, 1, m.to % 2 == 1, {target_}});
      ++decided_lies_;
    }
    m.body = Payload(abawire::encode(std::move(out)));
    return true;
  }

  std::optional<Tick> delay_override(const Msg& m) override {
    if (!async_) return std::nullopt;
    const std::uint64_t h = mix64((static_cast<std::uint64_t>(m.from) << 48) ^
                                  (static_cast<std::uint64_t>(m.to) << 40) ^ m.sent_at);
    return 1 + h % 4000;  // U[1, 4Δ] at Δ = 1000
  }

  int lies() const { return lies_; }
  int decided_lies() const { return decided_lies_; }

 private:
  std::uint32_t target_;
  bool attack_, async_;
  int lies_ = 0, decided_lies_ = 0;
};

TEST(AbaPlane, EquivocationOnOneSlotLeavesEverySiblingSlotExactlyAsWithout) {
  const int K = 6;
  const std::uint32_t target = 2;
  // Mixed inputs on some slots, so sibling slots run more than one round.
  auto input = [](int i, int k) { return k < 3 ? i % 2 == 0 : k % 2 == 0; };
  for (NetMode mode : {NetMode::kSynchronous, NetMode::kAsynchronous}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << (mode == NetMode::kSynchronous ? "sync" : "async")
                                      << " seed " << seed);
      auto run = [&](bool attack, std::shared_ptr<SlotEquivocator>& adv) {
        adv = std::make_shared<SlotEquivocator>(target, attack, mode == NetMode::kAsynchronous);
        adv->corrupt(3);
        auto w = make_world(4, 1, 1, mode, adv, seed);
        auto r = std::make_unique<PlaneRun>(w, 1, K, input);
        w.sim->run();
        EXPECT_FALSE(w.sim->truncated());
        return std::make_pair(r->decided, r->decide_time);
      };
      std::shared_ptr<SlotEquivocator> clean, attacked;
      const auto base = run(false, clean);
      const auto hit = run(true, attacked);
      EXPECT_GT(attacked->lies(), 0);
      EXPECT_GT(attacked->decided_lies(), 0);
      std::optional<bool> target_value;
      for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t k = 0; k < K; ++k) {
          if (k == target) {
            // The attacked slot still agrees (safety, Lemma 3.3).
            ASSERT_TRUE(hit.first[i][k]) << "party " << i;
            if (target_value) { EXPECT_EQ(*hit.first[i][k], *target_value) << "party " << i; }
            target_value = hit.first[i][k];
            continue;
          }
          ASSERT_TRUE(base.first[i][k]) << "party " << i << " slot " << k;
          EXPECT_EQ(hit.first[i][k], base.first[i][k]) << "party " << i << " slot " << k;
          EXPECT_EQ(hit.second[i][k], base.second[i][k]) << "party " << i << " slot " << k;
        }
      }
    }
  }
}

// ----------------------------------------------------------------- layout ---

TEST(AbaPlane, HalfThePartiesBuildingTheirBasInReverseDecideIdentically) {
  // Every ΠBA of one start rides one plane. Parties 2 and 3 build theirs in
  // reverse order; the plane lays slots out by the ΠBA's route, so every
  // party still reads slot k as ΠBA k. Ba k's honest inputs are unanimous
  // (k even), so each ΠBA decides k even — and in sync at the same tick as
  // when every party builds in one order.
  const int n = 4, K = 6;
  using Outcome = std::vector<std::vector<std::pair<std::optional<bool>, Tick>>>;
  for (NetMode mode : {NetMode::kSynchronous, NetMode::kAsynchronous}) {
    auto run = [&](bool reverse_half) {
      auto w = make_world(n, 1, 0, mode, nullptr, 9);
      Outcome out(n, std::vector<std::pair<std::optional<bool>, Tick>>(K));
      std::vector<std::vector<std::unique_ptr<Ba>>> bas(n);
      const RouteId root = w.sim->routes().intern("vote");
      for (int i = 0; i < n; ++i) {
        bas[static_cast<std::size_t>(i)].resize(K);
        for (int step = 0; step < K; ++step) {
          const int k = reverse_half && i >= n / 2 ? K - 1 - step : step;
          Sim* sim = w.sim.get();
          auto& slot = out[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
          bas[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] = std::make_unique<Ba>(
              w.party(i), Addr(root, "ba", k), w.ctx, 0, [&slot, sim](bool b) {
                slot = {b, sim->now()};
              });
        }
        for (int k = 0; k < K; ++k)
          bas[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]->set_input(k % 2 == 0);
      }
      w.sim->run();
      EXPECT_EQ(test::count_banks(*w.sim).aba, 1);
      return out;
    };
    const Outcome forward = run(false), mixed = run(true);
    for (int i = 0; i < n; ++i)
      for (int k = 0; k < K; ++k) {
        const auto& f = forward[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
        const auto& m = mixed[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
        ASSERT_TRUE(m.first) << "party " << i << " ba " << k;
        EXPECT_EQ(*m.first, k % 2 == 0) << "party " << i << " ba " << k;
        EXPECT_EQ(m.first, f.first) << "party " << i << " ba " << k;
        if (mode == NetMode::kSynchronous) {
          EXPECT_EQ(m.second, f.second) << "party " << i << " ba " << k;
        }
      }
  }
}

// ------------------------------------------------- one plane per start tick ---

/// Records every ΠABA message: its route and (sender, send tick).
class AbaTap : public Adversary {
 public:
  std::optional<Tick> delay_override(const Msg& m) override {
    const std::string& name = route_name(m);
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, "/aba") == 0)
      ++sends[name][{m.from, m.sent_at}];
    return std::nullopt;
  }
  // route -> (sender, send tick) -> point-to-point messages
  std::map<std::string, std::map<std::pair<int, Tick>, int>> sends;
};

TEST(AbaPlane, OnePlanePerDistinctStartTickAndOneMessagePerPartyPerTick) {
  const int n = 4;
  auto tap = std::make_shared<AbaTap>();
  auto w = make_world(n, 1, 0, NetMode::kSynchronous, tap);
  const Circuit cir = circuits::pairwise_sums_product(n);
  std::vector<std::unique_ptr<CirEval>> evals;
  int outputs = 0;
  for (int i = 0; i < n; ++i)
    evals.push_back(std::make_unique<CirEval>(
        w.party(i), "mpc", cir, Fp(static_cast<std::uint64_t>(i + 1)), w.ctx, 0,
        [&outputs](const std::vector<Fp>&) { ++outputs; }));
  w.sim->run();
  ASSERT_EQ(outputs, n);
  // Every ΠABA rides a plane plane/at:T/aba; the run's ΠBAs start their
  // ΠABAs at four distinct ticks (input ΠACS, ΠTripSh's ΠVSS and ΠACS
  // layers, the preprocessing vote), so four planes.
  EXPECT_EQ(test::count_banks(*w.sim).aba, 4);
  ASSERT_EQ(tap->sends.size(), 4u);
  for (const auto& [route, by_tick] : tap->sends) {
    ASSERT_EQ(route.rfind("plane/at:", 0), 0u) << route;
    const Tick start = std::stoull(route.substr(9, route.find('/', 9) - 9));
    // The plane speaks first at its start tick T, and each party sends at
    // most one message per tick: one send_all to the n parties.
    EXPECT_EQ(by_tick.begin()->first.second, start) << route;
    for (const auto& [who, msgs] : by_tick) EXPECT_EQ(msgs, n) << route << " tick " << who.second;
  }
}

}  // namespace
}  // namespace bobw
