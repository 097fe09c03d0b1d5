// ΠBA — the best-of-both-worlds Byzantine agreement (paper §3.2, Fig 2,
// Theorem 3.6).
//
// Every party broadcasts its input bit through ΠBC. At local time T0+T_BC it
// forms R = {Pj : regular-mode output b(j) ≠ ⊥}; if |R| >= n−t the majority
// bit of R (ties -> 1) becomes the ΠABA input, otherwise the party keeps its
// own input. The ΠBA output is the ΠABA decision. In a synchronous network
// every honest party decides by T_BA = T_BC + T_ABA; in an asynchronous
// network the protocol is a t-perfectly-secure ABA.
//
// Inputs may be supplied after the scheduled start (ΠACS joins some BA
// instances late, with input 0); such a party broadcasts late (its BC lands
// in fallback mode, invisible to regular-mode readers), evaluates the
// R-rule from the already-recorded regular outputs and starts its ΠABA slot
// late (the slot has tallied the plane's traffic since T0+T_BC).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/ba/aba.hpp"
#include "src/bcast/bc_bank.hpp"
#include "src/core/timing.hpp"

namespace bobw {

class Ba {
 public:
  using Handler = std::function<void(bool)>;

  /// Standalone: the instance builds its own n-slot input BcBank. When a
  /// parent protocol multiplexes its ΠBA input layer over a shared
  /// schedule plane (every ΠWPS/ΠVSS skeleton does), it passes
  /// `bc_bank`/`bc_group` — an n-slot group (slot j = Pj's bit, sender Pj,
  /// start = start_time) on the parent's bank — and installs a group handler
  /// forwarding into on_input_bc(); the instance then only *sends* through
  /// the shared bank. Either way the bank's SBA rides the party's run-wide
  /// schedule for start_time + 3Δ, with every other ΠBA input bank of the
  /// same start (the n ΠBAs of a ΠACS vote share one), and the ΠABA is one
  /// slot on the party's ΠABA plane for start_time + T_BC
  /// (AbaBank::at_tick), with every other ΠABA of that start. `addr` is an
  /// interior route: a standalone bank lives at addr/bc, and the ΠABA is
  /// named addr/aba (an interior route too), whose path hash is the slot's
  /// coin key.
  Ba(Party& party, const Addr& addr, const Ctx& ctx, Tick start_time, Handler on_decide,
     BcBank* bc_bank = nullptr, int bc_group = 0);

  /// Provide this party's input. Can be called before or after start_time.
  void set_input(bool b);

  /// ΠBC delivery for input slot j (Pj's bit). Public so a parent-owned
  /// shared-plane group handler can drive this instance.
  void on_input_bc(int j, const std::optional<Bytes>& v, bool fallback);

  bool has_input() const { return input_.has_value(); }
  bool decided() const { return aba_->decided(aba_seat_); }
  bool value() const { return aba_->value(aba_seat_); }

 private:
  void at_deadline();
  void enter_aba();

  Party& party_;
  Ctx ctx_;
  Tick start_;
  Handler on_decide_;
  // The n per-party input broadcasts are one BcBank (slot j = Pj's bit).
  // `bc_` points either at the owned standalone bank or at the parent's
  // shared schedule plane.
  std::unique_ptr<BcBank> bc_bank_;
  BcBank* bc_ = nullptr;
  int bc_group_ = 0;
  // The ΠABA is one seat on the party's plane for start_time + T_BC.
  AbaBank* aba_ = nullptr;
  int aba_seat_ = 0;
  std::optional<bool> input_;
  bool input_broadcast_ = false;
  bool deadline_passed_ = false;
  bool aba_started_ = false;
  std::vector<std::optional<bool>> regular_bits_;
};

}  // namespace bobw
