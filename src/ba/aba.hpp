// Randomised asynchronous Byzantine agreement (the paper's ΠABA interface,
// Lemma 3.3). Structure follows Mostéfaoui–Moumen–Raynal:
//
//  round r: BV-broadcast of EST(r, est): relay a value seen from t+1
//           senders, accept into bin_values on 2t+1 senders;
//           once bin_values ≠ ∅ send AUX(r, w), w ∈ bin_values;
//           on n−t AUX values all inside bin_values, flip the common coin c:
//             values = {b}: est := b, decide b if b == c;
//             values = {0,1}: est := c;
//           advance to round r+1.
//
// Decisions propagate through a Bracha-style DECIDED gadget (relay on t+1,
// halt on 2t+1) so that executions quiesce.
//
// Every tally is a PartySet (a bitset over sender ids with a maintained
// count): the EST senders per value, the AUX senders (first AUX per sender
// wins) and the subset of them whose AUX was 1, and the DECIDED senders per
// value. The rules count distinct senders only, so that is all their state.
#pragma once

#include <functional>
#include <map>

#include "src/ba/coin.hpp"
#include "src/common/party_set.hpp"
#include "src/sim/instance.hpp"

namespace bobw {

class Aba : public Instance {
 public:
  using Handler = std::function<void(bool)>;

  Aba(Party& party, std::string id, int t, CoinSource& coin, Handler on_decide);

  /// Join the protocol with an input bit. May be called at any local time.
  void start(bool input);

  bool started() const { return started_; }
  bool decided() const { return decided_; }
  bool value() const { return value_; }
  int rounds_used() const { return round_; }

  void on_message(const Msg& m) override;

  enum Type { kEst = 0, kAux = 1, kDecided = 2 };

 private:
  struct Round {
    explicit Round(int n) : est_senders{PartySet(n), PartySet(n)}, aux(n), aux_one(n) {}
    PartySet est_senders[2];
    bool est_sent[2] = {false, false};
    bool bin[2] = {false, false};
    bool aux_sent = false;
    PartySet aux;      // senders whose first AUX arrived
    PartySet aux_one;  // ... and was 1
    bool advanced = false;
  };
  Round& round(int r) { return rounds_.try_emplace(r, n()).first->second; }

  void begin_round();
  void maybe_send_aux();
  void try_advance();
  void decide(bool b);
  void send_est(int r, bool b);

  int t_;
  CoinSource& coin_;
  Handler on_decide_;
  std::map<int, Round> rounds_;  // keyed: Byzantine round ids reach 2^20
  int round_ = 0;
  bool est_ = false;
  bool started_ = false;
  bool decided_ = false;
  bool value_ = false;
  bool halted_ = false;
  bool decided_sent_ = false;
  PartySet decided_senders_[2];
};

}  // namespace bobw
