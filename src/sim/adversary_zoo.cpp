#include "src/sim/adversary_zoo.hpp"

#include <algorithm>

namespace bobw::zoo {

ZooAdversary::ZooAdversary(std::map<int, PartyPlan> plans, SchedPlan sched, MobilePlan mobile)
    : plans_(std::move(plans)), sched_(std::move(sched)), mobile_(mobile) {
  int max_party = sched_.victim;
  for (const auto& [party, plan] : plans_) {
    corrupt(party);
    if (plan.kind != Mal::kSilent) rotation_.push_back(party);
    max_party = std::max(max_party, party);
  }
  active_.assign(static_cast<std::size_t>(max_party + 1), 0);
  // Static (no mobile schedule): every non-silent union member is active for
  // the whole run. Mobile: on_epoch rotates the window before any traffic of
  // an epoch is filtered (the Sim consults the schedule on the send path).
  for (int p : rotation_) active_[static_cast<std::size_t>(p)] = 1;
  if (mobile_.period > 0 && !rotation_.empty()) on_epoch(0, 0);
}

bool ZooAdversary::participates(int party) const {
  auto it = plans_.find(party);
  return it != plans_.end() && it->second.kind != Mal::kSilent;
}

bool ZooAdversary::active(int party) const {
  return party >= 0 && static_cast<std::size_t>(party) < active_.size() &&
         active_[static_cast<std::size_t>(party)] != 0;
}

std::optional<Tick> ZooAdversary::epoch_period() const {
  if (mobile_.period > 0 && !rotation_.empty()) return mobile_.period;
  return std::nullopt;
}

void ZooAdversary::on_epoch(std::uint64_t epoch, Tick) {
  // Deterministic function of the epoch number alone, so a replay from the
  // same seed reproduces the same corruption schedule regardless of how
  // lazily the Sim consulted it.
  std::fill(active_.begin(), active_.end(), 0);
  const auto size = rotation_.size();
  const auto window = std::min<std::size_t>(
      size, static_cast<std::size_t>(std::max(mobile_.window, 1)));
  for (std::size_t k = 0; k < window; ++k) {
    const int p = rotation_[(static_cast<std::size_t>(epoch) + k) % size];
    active_[static_cast<std::size_t>(p)] = 1;
  }
}

bool ZooAdversary::filter_outgoing(Msg& m, Rng& rng) {
  auto it = plans_.find(m.from);
  if (it == plans_.end()) return true;
  const PartyPlan& plan = it->second;
  switch (plan.kind) {
    case Mal::kGarble:
      if (!m.body.empty() && static_cast<int>(rng.next_below(100)) < plan.percent) {
        m.body.mutable_bytes()[rng.next_below(m.body.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      return true;
    case Mal::kDrop:
      return static_cast<int>(rng.next_below(100)) >= plan.percent;
    case Mal::kEquivocate:
      if (!m.body.empty() && m.to % 2 == 0) m.body.mutable_bytes()[0] ^= 0x01;
      return true;
    case Mal::kSilent:
    case Mal::kPassive:
    case Mal::kLag:
      return true;
  }
  return true;
}

std::optional<Tick> ZooAdversary::delay_override(const Msg& m) {
  Tick delay = 0;
  bool any = false;
  if (auto it = plans_.find(m.from); it != plans_.end() && it->second.kind == Mal::kLag &&
                                     active(m.from)) {
    delay = std::max(delay, it->second.lag);
    any = true;
  }
  if (m.to == sched_.victim) {
    delay = std::max(delay, sched_.victim_lag);
    any = true;
  }
  if (!sched_.side_of.empty() && m.sent_at < sched_.heal_at) {
    const auto from = static_cast<std::size_t>(m.from), to = static_cast<std::size_t>(m.to);
    if (from < sched_.side_of.size() && to < sched_.side_of.size() &&
        sched_.side_of[from] != sched_.side_of[to]) {
      delay = std::max(delay, sched_.heal_at - m.sent_at);
      any = true;
    }
  }
  if (any) return delay;
  return std::nullopt;
}

}  // namespace bobw::zoo
