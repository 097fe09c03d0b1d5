// Discrete-event core: a deterministic (time, priority, sequence) order.
// Ties are broken by insertion sequence so runs are fully reproducible.
//
// The queue is a calendar (Brown, CACM 1988): one bucket per tick that has
// pending events, found through a hash map, plus a min-heap of those ticks.
// A bucket holds three append-only lanes, each consumed front-to-back by a
// cursor:
//   deliveries  typed {seq, Msg} records handed to the delivery sink (Sim
//               routes them to Party::deliver), no per-message closure;
//   flushes     kDelivery-priority closures (registration flushes);
//   timers      kTimer closures (protocol timers and deadlines).
// The sequence counter is global and monotone, so every lane is seq-sorted
// as it is appended to, the tick being drained included. Running a bucket as
// "merge deliveries and flushes by seq, then the timers" is therefore exactly
// the (time, pri, seq) order. The paper's synchronous protocols end every
// round, deadline and phase on a multiple of Δ, so a run touches few distinct
// ticks, and step() consults the heap and the map once per tick, not once
// per event.
//
// Each closure carries the id of the party whose state it touches (kNoOwner
// for ad-hoc test closures). step() hands an owned closure to the fire sink
// (Sim runs it through Party::fire, which skips halted parties), and the
// owner is what lets the window executor shard a tick's events across
// threads by party.
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
  /// Install the fire sink: step() hands it every closure whose owner is not
  /// kNoOwner. Without one, step() calls every closure itself.
  void on_fire(std::function<void(int owner, const std::function<void()>& fn)> sink) {
    fire_ = std::move(sink);
  }

  /// Enqueue a message on the typed delivery lane (priority kDelivery).
  void post_delivery(Tick time, Msg m);

  Tick now() const { return now_; }
  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }

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
    int pri;
    int owner;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  /// Every event due at one tick. `deliveries` is seq-ascending; `timers` is
  /// the flush lane then the timer lane, so (pri, seq)-ascending.
  /// Concatenating "deliveries then timers" is NOT the execution order (a
  /// kDelivery-priority flush closure in `timers` precedes every kTimer entry
  /// but interleaves with the deliveries by seq).
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
  /// Events of one class at one tick, appended in seq order and consumed
  /// front-to-back from `head`.
  template <class T>
  struct Lane {
    std::vector<T> items;
    std::size_t head = 0;
    std::size_t size() const { return items.size() - head; }
    T& pop() { return items[head++]; }
    /// Move the unconsumed events to the end of `out`.
    void take(std::vector<T>& out);
  };
  struct Bucket {
    Lane<Dv> dvs;
    Lane<Ev> flushes;  // kDelivery closures
    Lane<Ev> timers;   // kTimer closures
    Lane<Ev>& closures(int pri) { return pri == kDelivery ? flushes : timers; }
    bool done() const { return dvs.size() + flushes.size() + timers.size() == 0; }
  };
  static bool tick_later(Tick a, Tick b) { return a > b; }

  Bucket& bucket_for(Tick time);
  /// The earliest bucket with events left, cached in cur_; drops drained
  /// buckets on the way. Requires !empty().
  Bucket& front();
  /// Erase cur_, which must be the bucket at the heap's top.
  void drop_front();

  // References into the map stay valid across rehash (node-based), so cur_
  // and last_bucket_ may cache one. The heap holds exactly the map's keys.
  std::unordered_map<Tick, Bucket> buckets_;
  std::vector<Tick> tick_heap_;
  Bucket* cur_ = nullptr;  // null, or the bucket at the heap's top
  Tick cur_tick_ = 0;
  Bucket* last_bucket_ = nullptr;  // append cache for the hot same-tick burst
  Tick last_tick_ = 0;
  std::size_t pending_ = 0;
  std::function<void(Msg&&)> sink_;
  std::function<void(int, const std::function<void()>&)> fire_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  bool truncated_ = false;
};

}  // namespace bobw
