// ΠACS — agreement on a common subset (paper §5, Fig 5, Lemma 5.1).
//
// Each party deals L degree-ts polynomials through its own ΠVSS instance.
// After local time B+T_VSS the parties run the common-subset vote
// (SubsetVote, src/acs/subset_vote.hpp) over the n VSS outputs; CS is
// every party with BA output 1 (kAllOnes) unless the caller picks another
// rule.
//
// Guarantees: |CS| >= n−ts; in a synchronous network every honest party is
// in CS; every honest party obtains shares of the polynomials of every CS
// member (eventually, for corrupt members).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/acs/subset_vote.hpp"
#include "src/core/timing.hpp"
#include "src/vss/vss.hpp"

namespace bobw {

class Acs {
 public:
  struct Output {
    std::vector<int> cs;  // sorted member list
    /// shares[j] = this party's L shares of Pj's polynomials, for j in cs.
    std::vector<std::optional<std::vector<Fp>>> shares;
  };
  using Handler = std::function<void(const Output&)>;

  using CsRule = SubsetVote::Rule;

  /// `addr` is an interior route: Pj's ΠVSS lives at addr/vss:j, Π(j)BA at
  /// addr/ba:j.
  Acs(Party& party, const Addr& addr, int L, const Ctx& ctx, Tick base,
      CsRule rule, Handler on_output);

  /// This party's input polynomials (dealt through its ΠVSS at the base
  /// schedule). Corrupt/silent parties simply never call this.
  void set_input(const std::vector<Poly>& polys);

  bool done() const { return done_; }
  const Output& output() const { return out_; }
  /// Direct access to the VSS children (ΠTripSh reads verification-triple
  /// shares for parties outside CS as they straggle in).
  Vss& vss(int j) { return *vss_[static_cast<std::size_t>(j)]; }

 private:
  void maybe_finish();

  Party& party_;
  RouteId route_;
  Handler handler_;

  std::vector<std::unique_ptr<Vss>> vss_;
  SubsetVote vote_;
  Output out_;
  bool done_ = false;
};

}  // namespace bobw
