// Byzantine adversary model (paper §2): an adversary corrupting a subset of
// parties. Corrupt parties either stay silent (crash-style worst case for
// liveness) or run the honest code while the adversary intercepts and
// mutates their outgoing traffic (active attacks). In the asynchronous
// network the adversary additionally controls message scheduling through
// `delay_override`.
//
// Mobile corruption: the corrupt *union* is fixed (threshold accounting is
// always against the union — a static adversary can simulate any behaviour
// of a mobile one whose union respects the budget), but which members
// actively misbehave may rotate per epoch. Strategies that rotate override
// `epoch_period`/`on_epoch`/`active`; the Sim consults the schedule lazily
// from the send path, so epoch-free adversaries leave every existing event
// trace untouched. Concrete attack strategies live in
// src/sim/adversary_zoo.hpp.
#pragma once

#include <optional>
#include <set>
#include <string>

#include "src/common/rng.hpp"
#include "src/sim/message.hpp"
#include "src/sim/route.hpp"

namespace bobw {

class Adversary {
 public:
  virtual ~Adversary() = default;

  void corrupt(int party) { corrupt_.insert(party); }
  bool is_corrupt(int party) const { return corrupt_.count(party) != 0; }
  const std::set<int>& corrupt_set() const { return corrupt_; }

  /// Called by Sim's constructor: gives targeted adversaries (and tests) the
  /// route table to resolve a message's RouteId back to the name of the
  /// instance it was addressed to (e.g. "mpc/in/vss:2/plane/acast").
  void bind_routes(const RouteTable* routes) { routes_ = routes; }
  const std::string& route_name(const Msg& m) const {
    static const std::string unbound;
    return routes_ ? routes_->name(m.route) : unbound;
  }

  /// Should the corrupt party run the honest protocol code (true) or stay
  /// completely silent (false)? Active attacks subclass and mutate traffic.
  virtual bool participates(int /*party*/) const { return false; }

  /// Is `party` actively misbehaving right now? Static adversaries corrupt
  /// the same set for the whole run (the default); mobile adversaries rotate
  /// the active window across the corrupt union and behave honestly outside
  /// it. Only active parties have their outgoing traffic filtered.
  virtual bool active(int party) const { return is_corrupt(party); }

  /// Corruption-schedule hook. A strategy that rotates corruption returns
  /// its epoch length here; the Sim then calls `on_epoch(now / period, now)`
  /// from the send path whenever a message is the first of a new epoch —
  /// lazily, with no extra queue events, so schedules never perturb the
  /// event stream of a run.
  virtual std::optional<Tick> epoch_period() const { return std::nullopt; }
  virtual void on_epoch(std::uint64_t /*epoch*/, Tick /*now*/) {}

  /// Called for every message sent by a corrupt party that runs protocol
  /// code. Return false to drop the message; the message may be mutated.
  virtual bool filter_outgoing(Msg& /*m*/, Rng& /*rng*/) { return true; }

  /// Adversarial scheduler hook: override the network delay of any message
  /// (the paper gives the asynchronous scheduler to the adversary).
  virtual std::optional<Tick> delay_override(const Msg& /*m*/) { return std::nullopt; }

 private:
  std::set<int> corrupt_;
  const RouteTable* routes_ = nullptr;
};

/// Corrupt parties crash at time zero: they never send anything. This is the
/// canonical liveness adversary (a party that never sends is indistinguishable
/// from a slow one in the asynchronous model — paper §1).
class CrashAdversary : public Adversary {};

/// Corrupt parties run the honest code unmodified ("passive"/semi-honest);
/// used to exercise privacy-irrelevant paths with full participation.
class PassiveAdversary : public Adversary {
 public:
  bool participates(int) const override { return true; }
};

}  // namespace bobw
