// Bracha's asynchronous reliable broadcast ΠACast (paper §2.1, Appendix A).
//
// Sender S sends INIT(m); parties ECHO the first INIT; on ⌈(n+t+1)/2⌉
// matching ECHOes (or t+1 matching READYs) a party sends READY(m); on 2t+1
// matching READYs it outputs m. Tolerates t < n/3, provides validity and
// consistency in any network, liveness for an honest S (Lemma 2.4).
//
// Reference only: run_mpc broadcasts through BcBank (src/bcast/bc_bank.hpp),
// whose per-slot Acast logic must match this one-instance protocol.
#pragma once

#include <functional>
#include <optional>

#include "src/common/digest.hpp"
#include "src/sim/instance.hpp"

namespace bobw {

class Acast : public Instance {
 public:
  using Handler = std::function<void(const Bytes&)>;

  /// `on_output` fires exactly once, when this party accepts the value.
  Acast(Party& party, const Addr& addr, int sender, int t, Handler on_output);

  /// Invoked at the sender to start broadcasting.
  void start(const Bytes& m);

  const std::optional<Bytes>& output() const { return output_; }

  void on_message(const Msg& m) override;

  enum Type { kInit = 0, kEcho = 1, kReady = 2 };

 private:
  void maybe_ready(const Bytes& value);
  void accept(const Bytes& value);

  int sender_, t_;
  bool echoed_ = false, readied_ = false;
  // Echo/ready sets keyed by a 64-bit body digest (full-body compare only on
  // digest collision) — no per-delivery lexicographic map walk.
  BodyVotes echoes_, readies_;
  std::optional<Bytes> output_;
  Handler on_output_;
};

}  // namespace bobw
