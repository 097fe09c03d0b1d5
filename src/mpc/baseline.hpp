// Baselines for the paper's §1 comparison points.
//
// 1. The trivial "AMPC-as-BoBW" baseline is a *configuration*, not code:
//    run the full stack with ts = ta < n/4 (see CirEval.ResilienceMatrixN8).
//
// 2. SyncShareBaseline below is a purely synchronous timeout-based secret
//    sharing + reconstruction (the behaviour of every SMPC protocol's
//    communication skeleton): the dealer Shamir-shares at time 0, parties
//    exchange shares at Δ and interpolate whatever arrived by 2Δ — no error
//    correction, no voting. In a synchronous network this is correct with
//    ts < n/3 silent faults; in an asynchronous network it reconstructs
//    garbage or nothing, demonstrating why SMPC protocols cannot simply be
//    deployed when the network type is unknown (paper §1).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "src/core/timing.hpp"
#include "src/field/poly.hpp"
#include "src/sim/instance.hpp"

namespace bobw {

class SyncShareBaseline : public Instance {
 public:
  /// Fired at local time base+2Δ with the reconstructed value (nullopt if
  /// fewer than t+1 shares arrived in time).
  using Handler = std::function<void(const std::optional<Fp>&)>;

  SyncShareBaseline(Party& party, std::string id, int dealer, int t,
                    Tick base, Handler on_value);

  /// Dealer: Shamir-share the secret at the base time.
  void deal(Fp secret);

  void on_message(const Msg& m) override;

  enum Type { kShare = 0, kEcho = 1 };

 private:
  int dealer_, t_;
  Tick base_;
  Handler handler_;
  std::optional<Fp> my_share_;
  std::vector<std::optional<Fp>> echoes_;
};

}  // namespace bobw
