// Share-level plumbing: triple shares and batched public reconstruction.
//
// Public reconstruction of ts-shared values (used by ΠBeaver, the γ /
// suspected-triple openings of ΠTripSh and the output stage of ΠCirEval)
// follows the paper's pattern: every party sends its share to everyone and
// applies OEC(ts, ts, P) to the received shares.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/core/timing.hpp"
#include "src/field/fp.hpp"
#include "src/rs/oec_bank.hpp"
#include "src/sim/instance.hpp"

namespace bobw {

/// A party's shares of one multiplication triple (a, b, c).
struct TripleShare {
  Fp a, b, c;
};

/// Batched public reconstruction of L ts-shared values towards all parties.
class Reconstruct : public Instance {
 public:
  using Handler = std::function<void(const std::vector<Fp>&)>;

  Reconstruct(Party& party, const Addr& addr, int L, const Ctx& ctx, Handler on_values);

  /// Contribute this party's L shares (starts the exchange).
  void start(const std::vector<Fp>& my_shares);

  bool done() const { return done_; }
  const std::vector<Fp>& values() const { return values_; }

  void on_message(const Msg& m) override;

 private:
  void feed(int from, const std::vector<Fp>& shares);

  int L_;
  Ctx ctx_;
  Handler on_values_;
  // One OEC bank over the shared α-grid: per sender the power row, the
  // duplicate scan and the head-interpolant weights are computed once and
  // reused by all L lanes (see src/rs/oec_bank.hpp).
  std::unique_ptr<OecBank> bank_;
  std::vector<char> seen_;
  std::vector<Fp> values_;
  bool done_ = false;
};

}  // namespace bobw
