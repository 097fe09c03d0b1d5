#include "src/sim/events.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bobw {

void EventQueue::at(Tick time, Pri pri, int owner, std::function<void()> fn) {
  if (time < now_) time = now_;  // never schedule into the past
  timers_.push_back(Ev{time, pri, owner, seq_++, std::move(fn)});
  std::push_heap(timers_.begin(), timers_.end(), ev_later);
}

EventQueue::Bucket& EventQueue::bucket_for(Tick time) {
  if (last_bucket_ != nullptr && last_tick_ == time) return *last_bucket_;
  auto [it, inserted] = buckets_.try_emplace(time);
  if (inserted) {
    tick_heap_.push_back(time);
    std::push_heap(tick_heap_.begin(), tick_heap_.end(), tick_later);
  }
  last_bucket_ = &it->second;
  last_tick_ = time;
  return it->second;
}

void EventQueue::post_delivery(Tick time, Msg m) {
  if (time < now_) time = now_;
  bucket_for(time).dvs.push_back(Dv{seq_++, std::move(m)});
  ++n_deliveries_;
}

Tick EventQueue::min_delivery_tick() {
  assert(n_deliveries_ > 0);
  for (;;) {
    const Tick t = tick_heap_.front();
    auto it = buckets_.find(t);
    if (it != buckets_.end() && it->second.head < it->second.dvs.size()) return t;
    // Stale entry: the bucket at t was fully drained (and erased) earlier.
    std::pop_heap(tick_heap_.begin(), tick_heap_.end(), tick_later);
    tick_heap_.pop_back();
  }
}

const EventQueue::Dv& EventQueue::front_delivery() {
  Bucket& b = buckets_.find(min_delivery_tick())->second;
  return b.dvs[b.head];
}

void EventQueue::pop_front_delivery() {
  const Tick t = min_delivery_tick();
  auto it = buckets_.find(t);
  Bucket& b = it->second;
  if (++b.head == b.dvs.size()) {
    if (last_bucket_ == &b) last_bucket_ = nullptr;
    buckets_.erase(it);  // heap entry for t goes stale; cleaned lazily
  }
  --n_deliveries_;
}

bool EventQueue::delivery_first() {
  if (n_deliveries_ == 0) return false;
  if (timers_.empty()) return true;
  const Tick dt = min_delivery_tick();
  const Ev& e = timers_.front();
  if (dt != e.time) return dt < e.time;
  if (kDelivery != e.pri) return kDelivery < e.pri;
  return front_delivery().seq < e.seq;
}

bool EventQueue::step() {
  if (empty()) return false;
  if (delivery_first()) {
    const Tick t = min_delivery_tick();
    Bucket& b = buckets_.find(t)->second;
    Msg m = std::move(b.dvs[b.head].msg);
    pop_front_delivery();
    now_ = t;
    assert(sink_ && "EventQueue: delivery posted without a sink");
    sink_(std::move(m));
  } else {
    std::pop_heap(timers_.begin(), timers_.end(), ev_later);
    Ev e = std::move(timers_.back());
    timers_.pop_back();
    now_ = e.time;
    e.fn();
  }
  return true;
}

std::uint64_t EventQueue::run(Tick max_time, std::uint64_t max_events) {
  truncated_ = false;
  std::uint64_t executed = 0;
  while (!empty()) {
    if (executed >= max_events) {
      truncated_ = true;
      break;
    }
    if (next_time() > max_time) {
      truncated_ = true;
      break;
    }
    step();
    ++executed;
  }
  return executed;
}

Tick EventQueue::next_time() {
  assert(!empty());
  if (n_deliveries_ == 0) return timers_.front().time;
  const Tick dt = min_delivery_tick();
  if (timers_.empty()) return dt;
  return std::min(dt, timers_.front().time);
}

std::size_t EventQueue::due_deliveries(Tick t) const {
  auto it = buckets_.find(t);
  return it == buckets_.end() ? 0 : it->second.dvs.size() - it->second.head;
}

void EventQueue::harvest(Tick t, DueBatch& out) {
  out.tick = t;
  out.deliveries.clear();
  out.timers.clear();
  now_ = t;
  auto it = buckets_.find(t);
  if (it != buckets_.end()) {
    Bucket& b = it->second;
    n_deliveries_ -= b.dvs.size() - b.head;
    if (b.head == 0) {
      out.deliveries = std::move(b.dvs);
    } else {
      out.deliveries.assign(std::make_move_iterator(b.dvs.begin() +
                                static_cast<std::ptrdiff_t>(b.head)),
                            std::make_move_iterator(b.dvs.end()));
    }
    if (last_bucket_ == &b) last_bucket_ = nullptr;
    buckets_.erase(it);
  }
  // Heap pops arrive in (time, pri, seq) order, so the batch's timers are
  // (pri, seq)-ascending.
  while (!timers_.empty() && timers_.front().time == t) {
    std::pop_heap(timers_.begin(), timers_.end(), ev_later);
    out.timers.push_back(std::move(timers_.back()));
    timers_.pop_back();
  }
}

void EventQueue::restore(DueBatch&& b) {
  if (!b.deliveries.empty()) {
    Bucket& bk = bucket_for(b.tick);
    assert(bk.dvs.empty() && "restore into a live bucket");
    bk.dvs = std::move(b.deliveries);
    n_deliveries_ += bk.dvs.size();
  }
  for (Ev& e : b.timers) {
    timers_.push_back(std::move(e));
    std::push_heap(timers_.begin(), timers_.end(), ev_later);
  }
}

}  // namespace bobw
