// Discrete-event core: a deterministic (time, priority, sequence) order over
// two lanes. Ties are broken by insertion sequence so runs are fully
// reproducible.
//
// The hot lane is typed: message deliveries are plain {seq, Msg} records
// handed to a single delivery sink (Sim routes them to Party::deliver) — no
// per-message heap closure, no std::function dispatch. It is stored as a
// calendar: one append-ordered bucket per destination tick plus a min-heap of
// live ticks, so posting is O(1) amortised and draining a whole tick — the
// unit of work of the parallel window executor in src/sim/executor.hpp — is
// O(1) instead of one heap pop per message. Appends within a bucket are
// already in seq order, so the calendar pops in exactly the order the old
// binary heap did.
//
// The closure lane remains a binary heap for protocol timers and the
// registration-flush events, which are rare next to deliveries. Each timer
// carries the id of the party whose state its closure touches (kNoOwner for
// ad-hoc test closures), which is what lets the window executor shard a
// tick's events across threads by party.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/sim/message.hpp"
#include "src/sim/ticks.hpp"

namespace bobw {

class EventQueue {
 public:
  /// Priority classes within one tick: message deliveries run before protocol
  /// timers, so "messages sent Δ ago" are visible to a deadline firing at
  /// exactly that tick (the paper's round structure assumes this).
  enum Pri { kDelivery = 0, kTimer = 1 };

  /// Owner id for closures that are not confined to a single party's state.
  static constexpr int kNoOwner = -1;

  void at(Tick time, std::function<void()> fn) {
    at(time, kTimer, kNoOwner, std::move(fn));
  }
  void at(Tick time, Pri pri, std::function<void()> fn) {
    at(time, pri, kNoOwner, std::move(fn));
  }
  /// `owner` is the party whose state `fn` touches (kNoOwner if unknown —
  /// forces the tick containing this event onto the sequential path).
  void at(Tick time, Pri pri, int owner, std::function<void()> fn);

  /// Install the delivery sink. Must be set before the first post_delivery.
  void on_delivery(std::function<void(Msg&&)> sink) { sink_ = std::move(sink); }

  /// Enqueue a message on the typed delivery lane (priority kDelivery).
  void post_delivery(Tick time, Msg m);

  Tick now() const { return now_; }
  bool empty() const { return timers_.empty() && n_deliveries_ == 0; }
  std::size_t pending() const { return timers_.size() + n_deliveries_; }

  /// Pop and execute the earliest event. Returns false when queue is empty.
  bool step();

  /// Run until the queue drains, `max_time` is passed, or `max_events`
  /// events have executed. Returns the number of events executed and sets
  /// truncated() when the stop was a budget/horizon stop with work pending.
  std::uint64_t run(Tick max_time = ~Tick{0}, std::uint64_t max_events = ~std::uint64_t{0});

  /// True iff the last run() returned with events still pending (it hit
  /// max_events or max_time), i.e. the run was truncated, not quiescent.
  bool truncated() const { return truncated_; }
  void set_truncated(bool t) { truncated_ = t; }

  // --- Window-executor interface (src/sim/executor.hpp) -------------------
  // The executor drains whole ticks: next_time() names the earliest tick,
  // harvest() pops every event due at it, and the executor replays the batch
  // under the same (pri, seq) order step() would have used.

  struct Dv {
    std::uint64_t seq;
    Msg msg;
  };
  struct Ev {
    Tick time;
    int pri;
    int owner;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  /// Every event due at one tick. `deliveries` is seq-ascending, `timers` is
  /// (pri, seq)-ascending — concatenating "deliveries then timers" is NOT the
  /// execution order (a kDelivery-priority flush closure in `timers` precedes
  /// every kTimer entry but follows earlier-seq deliveries only by pri tie).
  struct DueBatch {
    Tick tick = 0;
    std::vector<Dv> deliveries;
    std::vector<Ev> timers;
  };

  /// Earliest pending tick. Requires !empty().
  Tick next_time();
  /// Number of deliveries due exactly at `t` (0 if none).
  std::size_t due_deliveries(Tick t) const;
  /// Pop everything due at `t` into `out` (clearing it first) and advance
  /// now() to `t`. Requires t == next_time().
  void harvest(Tick t, DueBatch& out);
  /// Put a whole harvested batch back, leaving the queue as it was before
  /// harvest() (the executor hands ticks it cannot shard to step()).
  void restore(DueBatch&& b);
  /// Claim the next global sequence number (the executor's merge phase
  /// assigns seqs to window-local spawned events in replay order).
  std::uint64_t alloc_seq() { return seq_++; }

 private:
  // One calendar bucket: deliveries destined for a single tick, consumed
  // front-to-back via `head`. References into the map stay valid across
  // rehash (node-based), so last_bucket_ may cache one.
  struct Bucket {
    std::vector<Dv> dvs;
    std::size_t head = 0;
  };
  // Max-heap comparator for std::push_heap/pop_heap ("is later than" puts
  // the earliest timer at front()).
  static bool ev_later(const Ev& a, const Ev& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.pri != b.pri) return a.pri > b.pri;
    return a.seq > b.seq;
  }
  static bool tick_later(Tick a, Tick b) { return a > b; }

  Bucket& bucket_for(Tick time);
  /// Earliest tick with a live (non-drained) bucket, lazily discarding heap
  /// entries for drained ones. Requires n_deliveries_ > 0.
  Tick min_delivery_tick();
  const Dv& front_delivery();
  void pop_front_delivery();
  /// True when the delivery lane holds the globally earliest event.
  bool delivery_first();

  std::vector<Ev> timers_;
  std::unordered_map<Tick, Bucket> buckets_;
  std::vector<Tick> tick_heap_;  // may hold stale ticks; cleaned lazily
  std::size_t n_deliveries_ = 0;
  Bucket* last_bucket_ = nullptr;  // append cache for the hot same-tick burst
  Tick last_tick_ = 0;
  std::function<void(Msg&&)> sink_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  bool truncated_ = false;
};

}  // namespace bobw
