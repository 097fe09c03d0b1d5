// The adversary zoo: reusable attack strategies against the simulated
// network, promoted out of the per-suite test adversaries so the property
// fuzzer (src/core/scenario.hpp) and every suite sample one shared library
// of behaviours.
//
// Two orthogonal strategy groups compose here:
//  * per-party behaviours (`Mal`) — what a corrupt party does with its own
//    outgoing traffic (garble, drop, equivocate, lag, stay silent);
//  * scheduler strategies (`SchedPlan`) — what the adversary does with
//    everyone's traffic through its control of message scheduling
//    (targeted-delay starving one victim, partition-then-heal). Scheduling
//    alone is adversarial power in the paper's model, so a plan with an
//    empty corrupt set is legal. In the synchronous network the model only
//    permits scheduler delays up to Δ for honest senders; callers (the
//    scenario generator) are responsible for sampling legal parameters.
//
// `ZooAdversary` is the one class that runs them: one plan per corrupt
// party, an optional scheduler strategy, and an optional mobile-corruption
// schedule that rotates the actively-misbehaving window across the corrupt
// union per epoch (threshold accounting stays against the union — see
// src/sim/adversary.hpp).
#pragma once

#include <map>
#include <vector>

#include "src/sim/adversary.hpp"

namespace bobw::zoo {

/// What a corrupt party does with its own traffic while active.
enum class Mal : std::uint8_t {
  kSilent = 0,   // never runs protocol code (crash at t = 0)
  kPassive,      // runs honest code unmodified
  kGarble,       // flips a random byte in percent% of messages
  kDrop,         // drops percent% of messages
  kEquivocate,   // first-byte flip towards even-numbered recipients
  kLag,          // every message delayed by `lag`
};

struct PartyPlan {
  Mal kind = Mal::kSilent;
  int percent = 50;  // kGarble / kDrop probability
  Tick lag = 0;      // kLag delay
};

/// Scheduler-level strategy (applies to all traffic, honest included).
///  * Targeted delay: every message addressed to `victim` takes
///    `victim_lag`. With lag = Δ this is the worst legal synchronous
///    schedule; larger lags model the asynchronous scheduler.
///  * Partition-then-heal: a message crossing the partition before
///    `heal_at` is held until `heal_at`; traffic inside either side flows
///    normally. Only legal in the asynchronous model.
/// A message that several strategies touch takes the largest delay.
struct SchedPlan {
  int victim = -1;      // targeted-delay victim (-1: none)
  Tick victim_lag = 0;  // delay for traffic addressed to the victim
  std::vector<std::uint8_t> side_of;  // non-empty: partition side per party
  Tick heal_at = 0;                   // partition heal tick
};

/// Mobile-corruption schedule: every `period` ticks the window of actively
/// misbehaving parties rotates across the corrupt union (sorted order).
/// period = 0 disables rotation (static corruption).
struct MobilePlan {
  Tick period = 0;
  int window = 0;
};

/// One adversary combining per-party plans, a scheduler strategy and an
/// optional mobile schedule. The corrupt union is exactly the plan keys;
/// parties with a kSilent plan never run code (silence cannot rotate — a
/// party that never registered instances cannot start participating
/// mid-run), every other plan participates and misbehaves only while
/// active.
class ZooAdversary : public Adversary {
 public:
  ZooAdversary(std::map<int, PartyPlan> plans, SchedPlan sched = {}, MobilePlan mobile = {});

  bool participates(int party) const override;
  bool active(int party) const override;
  std::optional<Tick> epoch_period() const override;
  void on_epoch(std::uint64_t epoch, Tick now) override;
  bool filter_outgoing(Msg& m, Rng& rng) override;
  std::optional<Tick> delay_override(const Msg& m) override;

 private:
  std::map<int, PartyPlan> plans_;
  SchedPlan sched_;
  MobilePlan mobile_;
  std::vector<int> rotation_;  // non-silent union members, sorted
  std::vector<char> active_;   // per-party active flag for the current epoch
};

}  // namespace bobw::zoo
