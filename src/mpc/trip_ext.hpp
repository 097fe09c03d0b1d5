// ΠTripExt — triple extraction (paper §6.4, Fig 9).
//
// Input: ts-sharings of 2d+1 multiplication triples (d >= ts), contributed
// by the parties of a public set CS, of which at most ts are known to the
// adversary. One ΠTripTrans turns them into points of (X, Y, Z) with
// Z = X·Y; the d+1−ts "fresh" points (X(β_k), Y(β_k), Z(β_k)) are then
// random multiplication triples unknown to the adversary — extracted by
// purely local computation.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/mpc/trip_trans.hpp"

namespace bobw {

class TripExt {
 public:
  using Handler = std::function<void(const std::vector<TripleShare>&)>;

  /// `grid`: the 2d+1 evaluation points α_j of the contributing parties.
  TripExt(Party& party, const Addr& addr, const Ctx& ctx, int d,
          std::vector<Fp> grid, Handler on_out);

  void start(std::vector<TripleShare> in);

  bool done() const { return done_; }
  /// d+1−ts extracted triples.
  const std::vector<TripleShare>& out() const { return out_; }

 private:
  Party& party_;
  Ctx ctx_;
  int d_;
  Handler handler_;
  std::unique_ptr<TripTrans> tt_;
  std::vector<TripleShare> out_;
  bool done_ = false;
};

}  // namespace bobw
