// ΠTripSh — verifiable triple sharing (paper §6.3, Fig 8), L output triples.
//
// The dealer ts-shares L·(2ts+1) random multiplication triples through one
// ΠVSS instance; in parallel every party shares L random verification
// triples through one ΠACS instance, which also fixes the supervisor set W
// (|W| >= n−ts, all honest parties in W when synchronous). Each batch of
// 2ts+1 dealer triples is transformed (ΠTripTrans) into points of a triplet
// (X, Y, Z); for every supervisor Pj ∈ W the parties recompute X(α_j)·Y(α_j)
// with Beaver under Pj's verification triple and publicly open the
// difference γ. Non-zero γ opens the suspected triple itself: if it is not
// multiplicative the dealer is exposed and a default (0,0,0) sharing is
// output; otherwise (X(β), Y(β), Z(β)) is the output triple — a fresh random
// multiplication triple known to (an honest) dealer only.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "src/acs/acs.hpp"
#include "src/mpc/beaver.hpp"
#include "src/mpc/trip_trans.hpp"

namespace bobw {

class TripSh {
 public:
  using Handler = std::function<void(const std::vector<TripleShare>&)>;

  /// Every party constructs the session; honest parties automatically
  /// contribute random verification triples to the embedded ΠACS.
  TripSh(Party& party, const Addr& addr, int dealer, int L, const Ctx& ctx,
         Tick base, Handler on_triples);

  /// Dealer-side: pick L(2ts+1) random multiplication triples and share them.
  void deal();
  /// Dealer-side, adversarial: share the given raw triples (fault injection;
  /// non-multiplicative triples must be caught by supervised verification).
  void deal_with(std::vector<std::array<Fp, 3>> triples);

  bool done() const { return done_; }
  /// True if supervised verification exposed the dealer (output is default).
  bool dealer_exposed() const { return exposed_; }
  const std::vector<TripleShare>& triples() const { return out_; }
  int dealer() const { return dealer_; }

 private:
  void on_vss_shares(const std::vector<Fp>& shares);
  void on_acs_output(const Acs::Output& out);
  void maybe_transform();
  void on_transform_done();
  void start_verification();
  void on_gamma(const std::vector<Fp>& gammas);
  void on_suspects_opened(const std::vector<Fp>& vals);
  void finalize(bool exposed);

  Party& party_;
  RouteId route_;
  int dealer_, L_;
  Ctx ctx_;
  Tick base_;
  Handler handler_;

  std::unique_ptr<Vss> vss_;
  std::unique_ptr<Acs> acs_;
  std::vector<Fp> vss_shares_;
  bool vss_done_ = false;
  std::optional<Acs::Output> w_;

  std::vector<std::unique_ptr<TripTrans>> tt_;
  int tt_done_ = 0;
  bool transforming_ = false, verifying_ = false;

  // Supervision bookkeeping: pair (ℓ, j) flattened in deterministic order.
  std::vector<std::pair<int, int>> sup_;  // (ℓ, supervisor j)
  std::unique_ptr<BeaverBatch> recompute_;
  std::vector<Fp> zbar_;  // recomputed product shares, one per sup_ entry
  std::unique_ptr<Reconstruct> gamma_rec_, suspect_rec_;
  std::vector<std::size_t> suspects_;  // indices into sup_ with γ != 0

  std::vector<TripleShare> out_;
  bool done_ = false, exposed_ = false;
};

}  // namespace bobw
