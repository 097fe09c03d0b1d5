// Phase-king synchronous Byzantine agreement over byte-string values — our
// instantiation of the paper's ΠBGP interface (Lemma 3.2):
//  * t-perfectly-secure SBA with every honest party holding an output by the
//    fixed deadline T_BGP = 3(t+1)Δ after the protocol's scheduled start;
//  * in an asynchronous network it still emits *some* output from
//    {values} ∪ {⊥} at local deadline (guaranteed liveness only).
//
// Per phase k = 1..t+1 with king P_{k-1}:
//  round A: send VOTE1(v); a value with >= n−t support becomes the proposal.
//  round B: send VOTE2(proposal); with support D of the top value d:
//           D >= n−t  -> keep d and ignore the king;
//           else       -> adopt d if D >= t+1 (tentatively), and take the
//                         king's value at the end of the phase.
//  round C: king sends KING(v); parties that did not lock adopt it.
//
// ⊥ is encoded as the empty byte string.
//
// Reference only: run_mpc runs its SBAs through BcBank's SbaBank
// (src/bcast/bc_bank.hpp), whose per-slot decisions must match this one.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "src/sim/instance.hpp"

namespace bobw {

class PhaseKing : public Instance {
 public:
  using Handler = std::function<void(const Bytes&)>;
  using InputProvider = std::function<Bytes()>;

  /// All parties construct the instance with the publicly known
  /// `start_time`; the input is fetched from `input` exactly at start_time
  /// (ΠBC computes it from the Acast output at that moment).
  PhaseKing(Party& party, const Addr& addr, int t, Tick start_time,
            InputProvider input, Handler on_output);

  static Tick duration(int t, Tick delta) { return 3 * static_cast<Tick>(t + 1) * delta; }

  const std::optional<Bytes>& output() const { return output_; }

  void on_message(const Msg& m) override;

  enum Type { kVote1 = 0, kVote2 = 1, kKing = 2 };

 private:
  struct Phase {
    std::map<int, Bytes> vote1, vote2;
    std::optional<Bytes> king;  // the first KING from this phase's king
  };
  Phase& phase(int k) { return phases_[k]; }
  int num_phases() const { return t_ + 1; }
  /// Phase k's king: P_{(k−1) mod n}.
  int king(int k) const { return (k - 1) % n(); }

  void round_a_end(int k);  // tally VOTE1, send VOTE2
  void round_b_end(int k);  // tally VOTE2, the king sends KING
  void round_c_end(int k);  // adopt the king's value if not locked
  void finish();

  int t_;
  Tick start_;
  InputProvider input_;
  Handler on_output_;
  Bytes v_;            // current value (empty = ⊥)
  bool locked_ = false;  // this phase: D >= n−t, ignore king
  std::map<int, Phase> phases_;
  std::optional<Bytes> output_;
};

}  // namespace bobw
