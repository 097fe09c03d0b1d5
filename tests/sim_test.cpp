#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "src/mpc/cir_eval.hpp"
#include "src/sim/instance.hpp"
#include "src/sim/network.hpp"
#include "tests/harness.hpp"

namespace bobw {
namespace {

using test::make_world;

TEST(EventQueue, OrdersByTimePriSeq) {
  EventQueue q;
  std::vector<int> order;
  q.at(10, EventQueue::kTimer, [&] { order.push_back(1); });
  q.at(10, EventQueue::kDelivery, [&] { order.push_back(0); });
  q.at(5, EventQueue::kTimer, [&] { order.push_back(2); });
  q.at(10, EventQueue::kTimer, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 3}));
  EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, NeverSchedulesIntoPast) {
  EventQueue q;
  Tick seen = 0;
  q.at(100, [&] {
    q.at(50, [&] { seen = q.now(); });  // clamped to now=100
  });
  q.run();
  EXPECT_EQ(seen, 100u);
}

TEST(EventQueue, RespectsMaxTime) {
  EventQueue q;
  int ran = 0;
  q.at(10, [&] { ++ran; });
  q.at(20, [&] { ++ran; });
  q.run(/*max_time=*/15);
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, FlushQueuedWhileTimersDrainRunsBeforeRemainingTimers) {
  EventQueue q;
  std::vector<int> order;
  q.at(10, EventQueue::kTimer, [&] {
    order.push_back(1);
    q.at(q.now(), EventQueue::kDelivery, [&] { order.push_back(2); });
  });
  q.at(10, EventQueue::kTimer, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TimerQueuedForNowRunsAfterTimersAlreadyAtThatTick) {
  EventQueue q;
  std::vector<int> order;
  q.at(10, [&] {
    order.push_back(1);
    q.at(q.now(), [&] { order.push_back(4); });
  });
  q.at(10, [&] { order.push_back(2); });
  q.at(10, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, DeliveriesAndFlushesInterleaveBySeq) {
  EventQueue q;
  std::vector<int> order;
  q.on_delivery([&](Msg&& m) { order.push_back(m.type); });
  auto post = [&](int id) {
    Msg m;
    m.type = id;
    q.post_delivery(10, std::move(m));
  };
  q.at(10, EventQueue::kTimer, [&] { order.push_back(4); });
  post(0);
  q.at(10, EventQueue::kDelivery, [&] { order.push_back(1); });
  post(2);
  q.at(10, EventQueue::kDelivery, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// A mixed workload at two ticks: deliveries, flushes and timers interleaved,
// some spawning same-tick work when they fire.
void fill_mixed(EventQueue& q, std::vector<int>& order) {
  q.on_delivery([&order](Msg&& m) { order.push_back(m.type); });
  for (int i = 0; i < 12; ++i) {
    const Tick t = i % 3 == 0 ? 20 : 10;
    switch (i % 4) {
      case 0: {
        Msg m;
        m.type = i;
        q.post_delivery(t, std::move(m));
        break;
      }
      case 1:
        q.at(t, EventQueue::kDelivery, [&order, i] { order.push_back(i); });
        break;
      default:
        q.at(t, EventQueue::kTimer, [&q, &order, i] {
          order.push_back(i);
          q.at(q.now(), EventQueue::kDelivery, [&order, i] { order.push_back(100 + i); });
        });
    }
  }
}

TEST(EventQueue, HarvestThenRestoreKeepsStepOrder) {
  EventQueue plain, handed_back;
  std::vector<int> want, got;
  fill_mixed(plain, want);
  fill_mixed(handed_back, got);
  plain.run();

  EventQueue::DueBatch batch;
  const Tick t = handed_back.next_time();
  handed_back.harvest(t, batch);
  EXPECT_EQ(batch.deliveries.size() + batch.timers.size(), 8u);
  EXPECT_EQ(handed_back.now(), t);
  handed_back.restore(std::move(batch));
  EXPECT_EQ(handed_back.pending(), 12u);
  handed_back.run();
  EXPECT_EQ(got, want);
  EXPECT_EQ(want.size(), 18u);
}

// Differential check against a reference that keeps every pending event in
// a plain vector and fires the least by (time, pri, seq). Each firing
// spawns children as a pure function of (seed, id, now), many at the
// current tick, so the two engines spawn identically exactly as long as
// they fire in the same order.
TEST(EventQueue, MatchesSortedReferenceOnRandomMix) {
  constexpr int kMaxIds = 4000;
  enum Kind { kPost, kFlush, kTimer };
  struct Spawn {
    Tick time;
    Kind kind;
  };
  auto children = [](std::uint64_t seed, int id, Tick now) {
    Rng r(mix64(seed * std::uint64_t{1000003} + static_cast<std::uint64_t>(id)));
    std::vector<Spawn> out(r.next_below(4));
    for (Spawn& s : out) {
      s.time = now + (r.next_bool() ? 0 : r.next_range(1, 5));
      s.kind = static_cast<Kind>(r.next_below(3));
    }
    return out;
  };
  auto roots = [](std::uint64_t seed) {
    Rng r(seed);
    std::vector<Spawn> out(40);
    for (Spawn& s : out) {
      s.time = r.next_below(16);
      s.kind = static_cast<Kind>(r.next_below(3));
    }
    return out;
  };

  auto run_queue = [&](std::uint64_t seed) {
    EventQueue q;
    std::vector<int> fired;
    int next_id = 0;
    std::function<void(const Spawn&)> add;
    auto fire = [&](int id) {
      fired.push_back(id);
      if (next_id < kMaxIds)
        for (const Spawn& s : children(seed, id, q.now())) add(s);
    };
    add = [&](const Spawn& s) {
      const int id = next_id++;
      if (s.kind == kPost) {
        Msg m;
        m.type = id;
        q.post_delivery(s.time, std::move(m));
      } else {
        q.at(s.time, s.kind == kFlush ? EventQueue::kDelivery : EventQueue::kTimer,
             [&fire, id] { fire(id); });
      }
    };
    q.on_delivery([&](Msg&& m) { fire(m.type); });
    for (const Spawn& s : roots(seed)) add(s);
    q.run();
    return fired;
  };

  auto run_reference = [&](std::uint64_t seed) {
    struct Rec {
      Tick time;
      int pri;
      std::uint64_t seq;
      int id;
    };
    std::vector<Rec> pending;
    std::vector<int> fired;
    std::uint64_t seq = 0;
    Tick now = 0;
    auto add = [&](const Spawn& s) {
      const int id = static_cast<int>(seq);
      pending.push_back(Rec{std::max(s.time, now), s.kind == kTimer ? 1 : 0, seq++, id});
    };
    for (const Spawn& s : roots(seed)) add(s);
    while (!pending.empty()) {
      std::sort(pending.begin(), pending.end(), [](const Rec& a, const Rec& b) {
        return std::tie(a.time, a.pri, a.seq) < std::tie(b.time, b.pri, b.seq);
      });
      const Rec r = pending.front();
      pending.erase(pending.begin());
      now = r.time;
      fired.push_back(r.id);
      if (static_cast<int>(seq) < kMaxIds)
        for (const Spawn& s : children(seed, r.id, now)) add(s);
    }
    return fired;
  };

  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 20261019ULL}) {
    const std::vector<int> want = run_reference(seed);
    EXPECT_GT(want.size(), 1000u) << seed;
    EXPECT_EQ(run_queue(seed), want) << seed;
  }
}

TEST(NetConfig, RejectsInvertedDelayRanges) {
  // Regression: inverted ranges used to silently feed next_range(lo, hi)
  // with lo > hi, producing out-of-range uniform draws.
  NetConfig ok;
  EXPECT_NO_THROW(ok.validate());
  EXPECT_NO_THROW(DelayModel(ok, 1));

  NetConfig bad_sync;
  bad_sync.delta = 1000;
  bad_sync.sync_min_delay = 1001;  // > delta
  EXPECT_THROW(bad_sync.validate(), std::invalid_argument);
  EXPECT_THROW(DelayModel(bad_sync, 1), std::invalid_argument);

  NetConfig bad_async;
  bad_async.mode = NetMode::kAsynchronous;
  bad_async.async_min = 4000;
  bad_async.async_max = 1;  // inverted
  EXPECT_THROW(bad_async.validate(), std::invalid_argument);
  EXPECT_THROW(DelayModel(bad_async, 1), std::invalid_argument);

  NetConfig zero_delta;
  zero_delta.delta = 0;  // breaks next_multiple round arithmetic
  zero_delta.sync_min_delay = 0;
  EXPECT_THROW(zero_delta.validate(), std::invalid_argument);

  // Degenerate-but-valid single-point ranges are accepted and constant.
  NetConfig point;
  point.mode = NetMode::kAsynchronous;
  point.async_min = 7;
  point.async_max = 7;
  EXPECT_NO_THROW(point.validate());
  DelayModel dm(point, 3);
  Msg m;
  EXPECT_EQ(dm.delay_for(m), 7u);
}

// Minimal echo instance for routing tests.
class EchoInst : public Instance {
 public:
  EchoInst(Party& p, std::string id) : Instance(p, std::move(id)) {}
  void on_message(const Msg& m) override { received.push_back(m); }
  std::vector<Msg> received;
};

TEST(Sim, SynchronousDeliveryWithinDelta) {
  auto w = make_world(4, 1, 0, NetMode::kSynchronous);
  EchoInst a(w.party(0), "echo");
  EchoInst b(w.party(1), "echo");
  Tick sent_at = 0;
  w.party(1).at(0, [&] { w.party(1).send(0, "echo", 3, {42}); });
  w.sim->run();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].type, 3);
  EXPECT_EQ(a.received[0].body, (Bytes{42}));
  EXPECT_LE(a.received[0].sent_at + w.ctx.delta, sent_at + w.ctx.delta + 1);
}

TEST(Sim, PendingMessagesFlushOnRegistration) {
  auto w = make_world(4, 1, 0, NetMode::kSynchronous);
  w.party(1).at(0, [&] { w.party(1).send(0, "late", 7, {9}); });
  // Instance registered long after delivery time.
  std::unique_ptr<EchoInst> inst;
  w.party(0).at(5000, [&] { inst = std::make_unique<EchoInst>(w.party(0), "late"); });
  w.sim->run();
  ASSERT_TRUE(inst);
  ASSERT_EQ(inst->received.size(), 1u);
  EXPECT_EQ(inst->received[0].body, (Bytes{9}));
}

TEST(Sim, HaltedPartyStopsProcessing) {
  auto w = make_world(4, 1, 0, NetMode::kSynchronous);
  EchoInst a(w.party(0), "echo");
  w.party(0).at(0, [&] { w.party(0).halt(); });
  w.party(1).at(10, [&] { w.party(1).send(0, "echo", 1, {}); });
  w.sim->run();
  EXPECT_TRUE(a.received.empty());
}

// A party that halts at tick Δ runs none of its later timers: not one
// queued behind the halting timer at Δ, not one it spawned at Δ before
// halting, not one at a later tick. Every tick carries deliveries, so with
// min_batch = 1 the window executor runs the timers at threads = 2.
TEST(Sim, HaltedPartyRunsNoLaterTimer) {
  for (int threads : {1, 2}) {
    auto w = make_world(4, 1, 0, NetMode::kSynchronous);
    w.sim->set_threads(threads, /*min_batch=*/1);
    std::vector<std::unique_ptr<EchoInst>> inst;
    for (int i = 0; i < 4; ++i) inst.push_back(std::make_unique<EchoInst>(w.party(i), "echo"));
    const Tick d = w.ctx.delta;
    std::vector<std::string> ran;
    for (int i = 0; i < 4; ++i)
      for (Tick t : {Tick{0}, d, 2 * d})
        w.party(i).at(t, [&w, i] { w.party(i).send_all("echo", 0, Bytes{1}); });
    Party& p0 = w.party(0);
    p0.at(d, [&] {
      ran.push_back("before halt");
      p0.at(p0.now(), [&] { ran.push_back("spawned at d"); });
      p0.at(3 * d, [&] { ran.push_back("spawned for 3d"); });
    });
    p0.at(d, [&] { p0.halt(); });
    p0.at(d, [&] { ran.push_back("queued at d"); });
    p0.at(2 * d, [&] { ran.push_back("at 2d"); });
    w.sim->run();
    EXPECT_EQ(ran, (std::vector<std::string>{"before halt"})) << "threads " << threads;
    EXPECT_TRUE(p0.halted());
    // Party 0 received round 0 before halting, nothing after it; party 1
    // received every round.
    EXPECT_EQ(inst[0]->received.size(), 4u) << "threads " << threads;
    EXPECT_EQ(inst[1]->received.size(), 11u) << "threads " << threads;
  }
}

TEST(Sim, MetricsCountHonestBitsOnly) {
  auto w = make_world(4, 1, 0, NetMode::kSynchronous, test::passive({3}));
  EchoInst a(w.party(0), "proto:x/sub");
  (void)a;
  w.party(1).at(0, [&] { w.party(1).send(0, "proto:x/sub", 0, Bytes(16, 0)); });
  w.party(3).at(0, [&] { w.party(3).send(0, "proto:x/sub", 0, Bytes(16, 0)); });
  w.sim->run();
  EXPECT_EQ(w.sim->metrics().honest_msgs(), 1u);
  EXPECT_EQ(w.sim->metrics().total_msgs(), 2u);
  EXPECT_EQ(w.sim->metrics().honest_bits(), (16u + 8u) * 8u);
  EXPECT_EQ(w.sim->metrics().honest_bits_by_label().at("proto:x"), (16u + 8u) * 8u);
}

TEST(Sim, AsyncDelaysCanExceedDelta) {
  auto w = make_world(4, 1, 0, NetMode::kAsynchronous);
  EchoInst a(w.party(0), "echo");
  const int kSends = 200;
  w.party(1).at(0, [&] {
    for (int i = 0; i < kSends; ++i) w.party(1).send(0, "echo", i, {});
  });
  w.sim->run();
  ASSERT_EQ(a.received.size(), static_cast<std::size_t>(kSends));
  bool any_late = false;
  // Every message is eventually delivered; some take longer than Δ.
  for (const auto& m : a.received) (void)m;
  // Reconstruct delays via arrival order isn't tracked per message; instead
  // check that total run time exceeded Δ (some delay > Δ).
  any_late = w.sim->now() > w.ctx.delta;
  EXPECT_TRUE(any_late);
}

TEST(Sim, CrashAdversaryDropsAllTraffic) {
  auto w = make_world(4, 1, 0, NetMode::kSynchronous, test::crash({2}));
  EXPECT_FALSE(w.runs_code(2));
  EXPECT_TRUE(w.runs_code(1));
  EXPECT_FALSE(w.honest(2));
}

// An adversary that mutates outgoing bodies of corrupt parties.
class FlipAdversary : public Adversary {
 public:
  bool participates(int) const override { return true; }
  bool filter_outgoing(Msg& m, Rng&) override {
    if (!m.body.empty()) m.body.mutable_bytes()[0] ^= 0xFF;
    return true;
  }
};

TEST(Sim, ActiveAdversaryMutatesTraffic) {
  auto adv = std::make_shared<FlipAdversary>();
  adv->corrupt(1);
  auto w = make_world(4, 1, 0, NetMode::kSynchronous, adv);
  EchoInst a(w.party(0), "echo");
  w.party(1).at(0, [&] { w.party(1).send(0, "echo", 0, {0x01}); });
  w.party(2).at(0, [&] { w.party(2).send(0, "echo", 0, {0x01}); });
  w.sim->run();
  ASSERT_EQ(a.received.size(), 2u);
  int mutated = 0;
  for (auto& m : a.received)
    if (m.body[0] == 0xFE) ++mutated;
  EXPECT_EQ(mutated, 1);
}

TEST(Sim, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto w = make_world(5, 1, 1, NetMode::kAsynchronous, nullptr, /*seed=*/99);
    EchoInst a(w.party(0), "echo");
    for (int p = 1; p < 5; ++p)
      w.party(p).at(0, [&w, p] { w.party(p).send(0, "echo", p, {static_cast<std::uint8_t>(p)}); });
    w.sim->run();
    std::vector<int> order;
    for (auto& m : a.received) order.push_back(m.from);
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- RouteTable: typed routes ----------------------------------------------

TEST(RouteTable, ChildrenExtendTheParentNameAndAreIdempotent) {
  RouteTable t;
  const RouteId root = t.intern("mpc");
  const RouteId prep = t.child(root, "prep");
  const RouteId tsh = t.child(prep, "tsh", 3);
  EXPECT_EQ(t.name(prep), "mpc/prep");
  EXPECT_EQ(t.name(tsh), "mpc/prep/tsh:3");
  EXPECT_EQ(t.child(prep, "tsh", 3), tsh);
  EXPECT_EQ(t.resolve(Addr(prep, "tsh", 3)), tsh);
  EXPECT_EQ(t.resolve("mpc"), root);
  EXPECT_NE(t.child(prep, "tsh"), tsh);
  EXPECT_NE(t.child(prep, "tsh", 4), tsh);
  EXPECT_EQ(t.size(), 5u);
  // A child inherits its root's label; a root's label ends at its first '/'.
  EXPECT_EQ(t.label_of(tsh), t.label_of(root));
  EXPECT_EQ(t.label_name(t.label_of(tsh)), "mpc");
  EXPECT_EQ(t.label_name(t.label_of(t.intern("proto:x/sub"))), "proto:x");
  for (RouteId r = 0; r < t.size(); ++r) EXPECT_EQ(t.path_hash(r), fnv1a(t.name(r))) << r;
}

TEST(RouteTable, EveryRouteOfACirEvalRunIsItsParentsChild) {
  const int n = 4;
  auto w = make_world(n, 1, 0, NetMode::kSynchronous);
  const Circuit cir = circuits::pairwise_sums_product(n);
  std::vector<std::unique_ptr<CirEval>> evals;
  int outputs = 0;
  for (int i = 0; i < n; ++i)
    evals.push_back(std::make_unique<CirEval>(
        w.party(i), "mpc", cir, Fp(static_cast<std::uint64_t>(i + 1)), w.ctx, 0,
        [&outputs](const std::vector<Fp>&) { ++outputs; }));
  w.sim->run();
  ASSERT_EQ(outputs, n);

  RouteTable& routes = w.sim->routes();
  const std::size_t size = routes.size();
  ASSERT_GT(size, 500u);
  std::unordered_map<std::string, RouteId> by_name;
  for (RouteId r = 0; r < size; ++r) by_name.emplace(routes.name(r), r);
  ASSERT_EQ(by_name.size(), size) << "two routes share a name";
  for (RouteId r = 0; r < size; ++r) {
    const std::string& name = routes.name(r);
    EXPECT_EQ(routes.path_hash(r), fnv1a(name)) << name;
    const std::size_t slash = name.rfind('/');
    if (slash == std::string::npos) {
      // The protocol tree, and the root of the run-wide SBA schedules.
      EXPECT_TRUE(name == "mpc" || name == "plane") << name;
      continue;
    }
    // name = parent + "/kind" or parent + "/kind:index", and the parent is
    // itself a route (an instance or an interior node).
    const auto parent = by_name.find(name.substr(0, slash));
    ASSERT_NE(parent, by_name.end()) << name;
    const std::string seg = name.substr(slash + 1);
    const std::size_t colon = seg.find(':');
    const int index = colon == std::string::npos ? -1 : std::stoi(seg.substr(colon + 1));
    EXPECT_EQ(routes.child(parent->second, seg.substr(0, colon), index), r) << name;
  }
  EXPECT_EQ(routes.size(), size);  // every lookup above found an existing route
}

TEST(RouteTable, ConcurrentChildGivesOneIdPerKey) {
  RouteTable t;
  const RouteId root = t.intern("race");
  constexpr int kThreads = 4, kKeys = 64;
  std::vector<std::vector<RouteId>> got(kThreads, std::vector<RouteId>(kKeys));
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th)
    threads.emplace_back([&t, &got, root, th] {
      // Every thread resolves every key, starting at a different offset, so
      // the threads race on first sight of overlapping keys.
      for (int k = 0; k < kKeys; ++k) {
        const int key = (k + 16 * th) % kKeys;
        got[static_cast<std::size_t>(th)][static_cast<std::size_t>(key)] =
            t.child(t.child(root, "a", key % 8), "b", key);
      }
    });
  for (auto& th : threads) th.join();
  for (int th = 1; th < kThreads; ++th) EXPECT_EQ(got[static_cast<std::size_t>(th)], got[0]);
  EXPECT_EQ(std::set<RouteId>(got[0].begin(), got[0].end()).size(), std::size_t{kKeys});
  EXPECT_EQ(t.size(), std::size_t{1 + 8 + kKeys});
  for (int key = 0; key < kKeys; ++key)
    EXPECT_EQ(t.name(got[0][static_cast<std::size_t>(key)]),
              "race/a:" + std::to_string(key % 8) + "/b:" + std::to_string(key));
}

}  // namespace
}  // namespace bobw
