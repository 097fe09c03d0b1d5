// ΠCirEval — the best-of-both-worlds circuit-evaluation (MPC) protocol
// (paper §7, Fig 11, Theorem 7.1).
//
// Four phases:
//  1. preprocessing & input sharing: ΠPreProcessing generates c_M shared
//     triples while a ΠACS instance ts-shares the parties' inputs and fixes
//     the input set CS (inputs of parties outside CS default to 0; in a
//     synchronous network every honest input makes it into CS);
//  2. shared gate-by-gate evaluation: linear gates are local, each
//     multiplication layer is one batched ΠBeaver round;
//  3. output: public OEC reconstruction of [y];
//  4. termination: (ready, y) flooding — relay on ts+1 matching, accept on
//     2ts+1 matching, then halt the party and all sub-protocols.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/acs/acs.hpp"
#include "src/common/digest.hpp"
#include "src/mpc/beaver.hpp"
#include "src/mpc/circuit.hpp"
#include "src/mpc/preprocess.hpp"

namespace bobw {

class CirEval : public Instance {
 public:
  /// Fires when this party terminates with the public output vector
  /// (one value per declared circuit output; the paper's f: F^n -> F is the
  /// single-element case).
  using Handler = std::function<void(const std::vector<Fp>&)>;

  CirEval(Party& party, const Addr& addr, const Circuit& cir, Fp my_input,
          const Ctx& ctx, Tick base, Handler on_output);

  bool terminated() const { return terminated_; }
  const std::vector<Fp>& output() const { return output_; }
  /// The agreed input set (available once the ACS completes).
  const std::optional<std::vector<int>>& input_cs() const { return input_cs_; }

  void on_message(const Msg& m) override;

  enum Type { kReady = 0 };

 private:
  void on_inputs(const Acs::Output& out);
  void on_triples(const std::vector<TripleShare>& t);
  void sweep();  // evaluate all currently computable gates
  void on_mul_layer(const std::vector<int>& gate_ids, const std::vector<Fp>& z);
  void on_y_opened(const std::vector<Fp>& y);
  void send_ready(const std::vector<Fp>& y);
  void send_ready_bytes(const Bytes& body);
  void terminate(const std::vector<Fp>& y);

  const Circuit& cir_;
  Fp my_input_;
  Ctx ctx_;
  Tick base_;
  Handler handler_;

  std::unique_ptr<Acs> acs_;
  std::unique_ptr<Preprocess> prep_;
  std::optional<std::vector<int>> input_cs_;
  std::vector<Fp> input_shares_;  // per party (0 outside CS)
  bool inputs_ready_ = false;
  std::vector<TripleShare> triples_;
  bool triples_ready_ = false;

  std::vector<std::optional<Fp>> wire_;  // share per wire
  int next_triple_ = 0;
  int mul_round_ = 0;
  bool mul_in_flight_ = false;
  std::vector<std::unique_ptr<BeaverBatch>> muls_;
  std::unique_ptr<Reconstruct> out_rec_;
  bool out_started_ = false;

  BodyVotes ready_;  // encoded y vector -> digest-keyed sender tally
  bool ready_sent_ = false;
  bool terminated_ = false;
  std::vector<Fp> output_;
};

}  // namespace bobw
