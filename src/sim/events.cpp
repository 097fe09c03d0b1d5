#include "src/sim/events.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace bobw {

template <class T>
void EventQueue::Lane<T>::take(std::vector<T>& out) {
  if (head == 0 && out.empty()) {
    out = std::move(items);
  } else {
    out.insert(out.end(),
               std::make_move_iterator(items.begin() + static_cast<std::ptrdiff_t>(head)),
               std::make_move_iterator(items.end()));
  }
  items.clear();
  head = 0;
}

void EventQueue::at(Tick time, Pri pri, int owner, std::function<void()> fn) {
  if (time < now_) time = now_;  // never schedule into the past
  bucket_for(time).closures(pri).items.push_back(Ev{pri, owner, seq_++, std::move(fn)});
  ++pending_;
}

void EventQueue::post_delivery(Tick time, Msg m) {
  if (time < now_) time = now_;
  bucket_for(time).dvs.items.push_back(Dv{seq_++, std::move(m)});
  ++pending_;
}

EventQueue::Bucket& EventQueue::bucket_for(Tick time) {
  if (cur_ != nullptr && cur_tick_ == time) return *cur_;
  if (last_bucket_ != nullptr && last_tick_ == time) return *last_bucket_;
  auto [it, inserted] = buckets_.try_emplace(time);
  if (inserted) {
    tick_heap_.push_back(time);
    std::push_heap(tick_heap_.begin(), tick_heap_.end(), tick_later);
    if (time < cur_tick_) cur_ = nullptr;  // a new earliest tick
  }
  last_bucket_ = &it->second;
  last_tick_ = time;
  return it->second;
}

EventQueue::Bucket& EventQueue::front() {
  assert(!empty());
  while (cur_ == nullptr || cur_->done()) {
    if (cur_ != nullptr) drop_front();
    cur_tick_ = tick_heap_.front();
    cur_ = &buckets_.find(cur_tick_)->second;
  }
  return *cur_;
}

void EventQueue::drop_front() {
  if (last_bucket_ == cur_) last_bucket_ = nullptr;
  buckets_.erase(cur_tick_);
  std::pop_heap(tick_heap_.begin(), tick_heap_.end(), tick_later);
  tick_heap_.pop_back();
  cur_ = nullptr;
}

bool EventQueue::step() {
  if (empty()) return false;
  Bucket& b = front();
  now_ = cur_tick_;
  --pending_;
  if (b.dvs.size() > 0 &&
      (b.flushes.size() == 0 || b.dvs.items[b.dvs.head].seq < b.flushes.items[b.flushes.head].seq)) {
    Msg m = std::move(b.dvs.pop().msg);
    assert(sink_ && "EventQueue: delivery posted without a sink");
    sink_(std::move(m));
    return true;
  }
  // Move the closure out of its lane first: it may append to the lane it
  // came from.
  Ev& e = (b.flushes.size() > 0 ? b.flushes : b.timers).pop();
  const int owner = e.owner;
  const std::function<void()> fn = std::move(e.fn);
  if (owner == kNoOwner || !fire_) fn();
  else fire_(owner, fn);
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
  front();
  return cur_tick_;
}

std::size_t EventQueue::due_deliveries(Tick t) const {
  if (cur_ != nullptr && cur_tick_ == t) return cur_->dvs.size();
  auto it = buckets_.find(t);
  return it == buckets_.end() ? 0 : it->second.dvs.size();
}

void EventQueue::harvest(Tick t, DueBatch& out) {
  Bucket& b = front();
  assert(cur_tick_ == t && "harvest requires t == next_time()");
  out.tick = t;
  out.deliveries.clear();
  out.timers.clear();
  b.dvs.take(out.deliveries);
  b.flushes.take(out.timers);
  b.timers.take(out.timers);
  pending_ -= out.deliveries.size() + out.timers.size();
  now_ = t;
  drop_front();
}

void EventQueue::restore(DueBatch&& b) {
  Bucket& bk = bucket_for(b.tick);
  assert(bk.done() && bk.dvs.items.empty() && "restore into a live bucket");
  pending_ += b.deliveries.size() + b.timers.size();
  bk.dvs.items = std::move(b.deliveries);
  for (Ev& e : b.timers) bk.closures(e.pri).items.push_back(std::move(e));
}

}  // namespace bobw
