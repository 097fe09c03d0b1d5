// Parallel window executor: shard one tick's events across a thread pool,
// keep the trace bit-identical to the sequential run.
//
// The paper's round-crisp synchronous schedule delivers whole Δ-windows of
// messages at once, and the simulator guarantees that every same-tick event
// a party spawns (registration flushes, `Party::at(now)`) is local to that
// party — cross-party effects (deliveries) always land at a strictly later
// tick. That makes a two-phase schedule exact, not approximate:
//
//   execute  Each party's due events run on a worker thread in the party's
//            local order — (pri, class, index), where class 0 is the
//            harvested (pre-existing) events ordered by their global seq and
//            class 1 is window-spawned closures in spawn order. All side
//            effects (sends, timers) are recorded into a thread-confined
//            WindowCtx outbox; no shared simulator state is touched.
//
//   merge    One thread replays the window in the exact global (pri, seq)
//            order the sequential engine would have used: a 3-way min over
//            the harvested deliveries, harvested timers, and a heap of
//            spawned-event stubs (which receive their seq at replay). Each
//            replayed event consumes its owner party's next outbox record
//            and applies the recorded actions in emission order — Sim::post
//            (adversary filters, DelayModel RNG draws, metrics, seq
//            assignment) and EventQueue::at run here, in canonical order.
//
// Equivalence: restricted to one party, the sequential (pri, seq) order
// equals the local (pri, class, index) order — pre-existing events carry
// seqs assigned before the window (all smaller than any window-assigned
// seq), and a party's spawned events receive window seqs in its own spawn
// order because seq assignment is globally monotone and replay preserves
// emission order. So the merge's per-party record cursor always finds the
// record of exactly the event it is replaying, and every RNG draw / seq /
// metric lands in the single-thread position. Golden traces stay
// bit-identical at any thread count.
//
// Ticks with fewer due deliveries than `min_batch` run on the sequential
// engine, EventQueue::step. So do ticks with closures whose owner is
// unknown (EventQueue::kNoOwner — ad-hoc test timers) or that might cross
// the event budget: the harvested batch goes back into the queue whole and
// step() runs the tick, checking the budget before every event. The
// argument is profile-independent: async jitter is drawn in Sim::post
// during the merge replay, in the same canonical order as the sequential
// engine, so asynchronous runs use this executor too.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/events.hpp"
#include "src/sim/outbox.hpp"

namespace bobw {

class Sim;

class WindowExecutor {
 public:
  static constexpr std::size_t kDefaultMinBatch = 192;

  /// `threads` >= 2 total (workers = threads - 1, the driving thread
  /// participates). `min_batch`: smallest due-delivery count worth sharding.
  WindowExecutor(Sim& sim, int threads, std::size_t min_batch);
  ~WindowExecutor();
  WindowExecutor(const WindowExecutor&) = delete;
  WindowExecutor& operator=(const WindowExecutor&) = delete;

  /// Drive the simulation to completion (same contract as EventQueue::run,
  /// including the truncation flag on budget/horizon stops).
  std::uint64_t run(Tick max_time, std::uint64_t max_events);

  int threads() const { return threads_; }

 private:
  struct PartyWork {
    std::vector<std::uint32_t> dvs;  // indices into batch_.deliveries
    std::vector<std::uint32_t> evs;  // indices into batch_.timers
    WindowCtx ctx;
    std::size_t rec = 0;  // merge cursor into ctx.action_count
    std::size_t act = 0;  // merge cursor into ctx.actions
  };

  std::uint64_t run_window_parallel();
  void execute_party(int p);
  std::uint64_t merge();
  void worker_loop();
  void claim_loop();

  Sim* sim_;
  int threads_;
  std::size_t min_batch_;

  EventQueue::DueBatch batch_;
  std::vector<PartyWork> work_;    // indexed by party id
  std::vector<int> active_;        // parties with work this window
  std::atomic<std::size_t> next_claim_{0};

  // Pool control: workers sleep on cv_work_ until job_ advances, claim
  // parties from next_claim_, then report in on cv_done_.
  std::mutex mu_;
  std::condition_variable cv_work_, cv_done_;
  std::uint64_t job_ = 0;
  std::size_t done_ = 0;
  bool stop_ = false;
  std::vector<std::thread> pool_;
};

}  // namespace bobw
