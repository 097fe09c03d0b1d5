#include "src/sim/executor.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "src/sim/party.hpp"

namespace bobw {

WindowExecutor::WindowExecutor(Sim& sim, int threads, std::size_t min_batch)
    : sim_(&sim), threads_(threads), min_batch_(min_batch) {
  work_.resize(static_cast<std::size_t>(sim.n()));
  pool_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i)
    pool_.emplace_back([this] { worker_loop(); });
}

WindowExecutor::~WindowExecutor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : pool_) t.join();
}

void WindowExecutor::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] { return stop_ || job_ != seen; });
    if (stop_) return;
    seen = job_;
    lk.unlock();
    claim_loop();
    lk.lock();
    if (++done_ == pool_.size()) cv_done_.notify_one();
  }
}

void WindowExecutor::claim_loop() {
  for (;;) {
    const std::size_t i = next_claim_.fetch_add(1, std::memory_order_relaxed);
    if (i >= active_.size()) return;
    execute_party(active_[i]);
  }
}

std::uint64_t WindowExecutor::run(Tick max_time, std::uint64_t max_events) {
  EventQueue& q = sim_->queue();
  q.set_truncated(false);
  std::uint64_t executed = 0;
  std::optional<Tick> stepping;  // a harvested tick handed back to step()
  while (!q.empty()) {
    if (executed >= max_events) {
      q.set_truncated(true);
      break;
    }
    const Tick t = q.next_time();
    if (t > max_time) {
      q.set_truncated(true);
      break;
    }
    if (t == stepping || q.due_deliveries(t) < min_batch_) {
      // Thin tick (timer-only, small-n round, async-ish stragglers): the
      // sharding overhead exceeds the work — take the sequential engine, as
      // does a tick handed back below.
      q.step();
      ++executed;
      continue;
    }
    q.harvest(t, batch_);
    bool owned = true;
    for (const auto& e : batch_.timers)
      if (e.owner < 0 || e.owner >= sim_->n()) {
        owned = false;
        break;
      }
    const std::uint64_t due =
        batch_.deliveries.size() + batch_.timers.size();
    // Window-spawned events also count against the budget; 2x + slack is a
    // conservative bound on a window's total. An unowned closure cannot be
    // sharded, and a budget that might bite must stop on precisely the right
    // event: either way the tick goes back to the queue and step() runs it.
    if (!owned || due * 2 + 1024 > max_events - executed) {
      q.restore(std::move(batch_));
      stepping = t;
      continue;
    }
    executed += run_window_parallel();
  }
  return executed;
}

void WindowExecutor::execute_party(int p) {
  PartyWork& w = work_[static_cast<std::size_t>(p)];
  WindowCtx& ctx = w.ctx;
  ctx.clear();
  ctx.tick = batch_.tick;
  Party& party = sim_->party(p);
  party.begin_window(&ctx);
  // Local 3-way merge over (pri, class, key): pre-existing deliveries
  // (kDelivery, 0, seq), pre-existing timers (pri, 0, seq), spawned closures
  // (pri, 1, spawn index). Restricted to this party, this IS the sequential
  // (pri, seq) order — see the header's equivalence argument.
  std::size_t di = 0, ti = 0, spawn_seen = 0;
  std::vector<std::uint32_t> sheap;  // min-heap of spawn indices by (pri, idx)
  auto s_later = [&ctx](std::uint32_t a, std::uint32_t b) {
    const auto pa = ctx.spawned[a].pri, pb = ctx.spawned[b].pri;
    if (pa != pb) return pa > pb;
    return a > b;
  };
  for (;;) {
    for (; spawn_seen < ctx.spawned.size(); ++spawn_seen) {
      sheap.push_back(static_cast<std::uint32_t>(spawn_seen));
      std::push_heap(sheap.begin(), sheap.end(), s_later);
    }
    int kind = -1;
    int bpri = 0, bcls = 0;
    std::uint64_t bkey = 0;
    auto better = [&](int pri, int cls, std::uint64_t key) {
      if (kind < 0) return true;
      if (pri != bpri) return pri < bpri;
      if (cls != bcls) return cls < bcls;
      return key < bkey;
    };
    if (di < w.dvs.size()) {
      kind = 0;
      bpri = EventQueue::kDelivery;
      bcls = 0;
      bkey = batch_.deliveries[w.dvs[di]].seq;
    }
    if (ti < w.evs.size()) {
      const auto& e = batch_.timers[w.evs[ti]];
      if (better(e.pri, 0, e.seq)) {
        kind = 1;
        bpri = e.pri;
        bcls = 0;
        bkey = e.seq;
      }
    }
    if (!sheap.empty()) {
      const std::uint32_t s = sheap.front();
      if (better(ctx.spawned[s].pri, 1, s)) kind = 2;
    }
    if (kind < 0) break;
    const std::size_t before = ctx.actions.size();
    switch (kind) {
      case 0:
        party.deliver(batch_.deliveries[w.dvs[di]].msg);
        ++di;
        break;
      case 1:
        party.fire(batch_.timers[w.evs[ti]].fn);
        ++ti;
        break;
      default: {
        std::pop_heap(sheap.begin(), sheap.end(), s_later);
        const std::uint32_t s = sheap.back();
        sheap.pop_back();
        // Moved out first: the closure may spawn, growing ctx.spawned.
        const std::function<void()> fn = std::move(ctx.spawned[s].fn);
        party.fire(fn);
        break;
      }
    }
    ctx.action_count.push_back(
        static_cast<std::uint32_t>(ctx.actions.size() - before));
  }
  party.end_window();
}

std::uint64_t WindowExecutor::run_window_parallel() {
  // Partition the batch into per-party index lists (batch order == seq
  // order, so each list is already ascending).
  active_.clear();
  for (std::size_t i = 0; i < batch_.deliveries.size(); ++i) {
    auto& w = work_[static_cast<std::size_t>(batch_.deliveries[i].msg.to)];
    if (w.dvs.empty() && w.evs.empty())
      active_.push_back(batch_.deliveries[i].msg.to);
    w.dvs.push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < batch_.timers.size(); ++i) {
    auto& w = work_[static_cast<std::size_t>(batch_.timers[i].owner)];
    if (w.dvs.empty() && w.evs.empty()) active_.push_back(batch_.timers[i].owner);
    w.evs.push_back(static_cast<std::uint32_t>(i));
  }

  // Execute phase: workers + this thread claim parties until none remain.
  next_claim_.store(0, std::memory_order_relaxed);
  if (!pool_.empty() && active_.size() > 1) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++job_;
      done_ = 0;
    }
    cv_work_.notify_all();
    claim_loop();
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return done_ == pool_.size(); });
  } else {
    claim_loop();
  }

  // Merge phase: sequential canonical replay.
  const std::uint64_t n = merge();
  for (const int p : active_) {
    auto& w = work_[static_cast<std::size_t>(p)];
    assert(w.rec == w.ctx.action_count.size() && "outbox not fully consumed");
    w.dvs.clear();
    w.evs.clear();
    w.rec = w.act = 0;
    w.ctx.clear();
  }
  return n;
}

std::uint64_t WindowExecutor::merge() {
  EventQueue& q = sim_->queue();
  struct Stub {
    int pri;
    std::uint64_t seq;
    int party;
  };
  std::vector<Stub> sheap;  // min-heap by (pri, seq)
  auto st_later = [](const Stub& a, const Stub& b) {
    if (a.pri != b.pri) return a.pri > b.pri;
    return a.seq > b.seq;
  };
  std::uint64_t merged = 0;
  std::size_t di = 0, ti = 0;
  auto replay = [&](int p) {
    auto& w = work_[static_cast<std::size_t>(p)];
    assert(w.rec < w.ctx.action_count.size() && "outbox record underrun");
    const std::uint32_t cnt = w.ctx.action_count[w.rec++];
    for (std::uint32_t k = 0; k < cnt; ++k) {
      WindowCtx::Action& a = w.ctx.actions[w.act++];
      switch (a.kind) {
        case WindowCtx::Action::kSend:
          sim_->post(std::move(a.msg));
          break;
        case WindowCtx::Action::kLocalEvent:
          sheap.push_back(Stub{a.pri, q.alloc_seq(), p});
          std::push_heap(sheap.begin(), sheap.end(), st_later);
          break;
        case WindowCtx::Action::kFutureTimer:
          q.at(a.time, static_cast<EventQueue::Pri>(a.pri), p,
               std::move(a.fn));
          break;
      }
    }
    ++merged;
  };
  for (;;) {
    int kind = -1;
    int bpri = 0;
    std::uint64_t bseq = 0;
    int owner = -1;
    if (di < batch_.deliveries.size()) {
      kind = 0;
      bpri = EventQueue::kDelivery;
      bseq = batch_.deliveries[di].seq;
      owner = batch_.deliveries[di].msg.to;
    }
    if (ti < batch_.timers.size()) {
      const auto& e = batch_.timers[ti];
      if (kind < 0 || e.pri < bpri || (e.pri == bpri && e.seq < bseq)) {
        kind = 1;
        bpri = e.pri;
        bseq = e.seq;
        owner = e.owner;
      }
    }
    if (!sheap.empty()) {
      const Stub& s = sheap.front();
      if (kind < 0 || s.pri < bpri || (s.pri == bpri && s.seq < bseq)) {
        kind = 2;
        owner = s.party;
      }
    }
    if (kind < 0) break;
    if (kind == 0) ++di;
    else if (kind == 1) ++ti;
    else {
      std::pop_heap(sheap.begin(), sheap.end(), st_later);
      sheap.pop_back();
    }
    replay(owner);
  }
  return merged;
}

}  // namespace bobw
