// ΠPreProcessing — the best-of-both-worlds preprocessing phase (paper §6.5,
// Fig 10): generates c_M ts-shared multiplication triples that are random
// from the adversary's point of view.
//
// Every party deals L = ⌈c_M / (d+1−ts)⌉ triples through its own ΠTripSh
// (d = ⌊(|CS|−1)/2⌋). The common-subset vote over the ΠTripSh outputs
// (SubsetVote, src/acs/subset_vote.hpp, rule kFirstNMinusTs) fixes the
// triple-provider set CS as the first n−ts parties with BA output 1; L
// parallel ΠTripExt runs then squeeze out the c_M random triples.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/acs/subset_vote.hpp"
#include "src/mpc/trip_ext.hpp"
#include "src/mpc/trip_sh.hpp"

namespace bobw {

class Preprocess {
 public:
  using Handler = std::function<void(const std::vector<TripleShare>&)>;

  Preprocess(Party& party, const Addr& addr, const Ctx& ctx, Tick base,
             int c_m, Handler on_triples);

  /// Honest parties call this to act as a triple dealer (usually right at
  /// construction; the embedded ΠTripSh handles scheduling).
  void deal();

  bool done() const { return done_; }
  const std::vector<TripleShare>& triples() const { return out_; }
  const std::optional<std::vector<int>>& cs() const { return vote_.cs(); }
  /// Triples per ΠTripSh dealer (exposed for the benches' bookkeeping).
  int per_dealer() const { return L_; }

 private:
  void maybe_extract();
  void on_extract_done();

  Party& party_;
  RouteId route_;
  Ctx ctx_;
  Tick base_;
  int c_m_, d_, L_;
  Handler handler_;

  std::vector<std::unique_ptr<TripSh>> tripsh_;
  SubsetVote vote_;
  bool extracting_ = false;

  std::vector<std::unique_ptr<TripExt>> ext_;
  int ext_done_ = 0;
  std::vector<TripleShare> out_;
  bool done_ = false;
};

}  // namespace bobw
