// ΠTripTrans — triple transformation (paper §6.2, Fig 7).
//
// Input: ts-sharings of 2d+1 triples over a public evaluation grid
// x_1..x_{2d+1}. The first d+1 triples define degree-d polynomials X(·), Y(·)
// (and the first d+1 z's the low part of the 2d-degree Z(·)); shares of the
// remaining d points of X and Y are derived locally by Lagrange, and their
// products are recomputed with Beaver using the remaining d input triples.
// Output: sharings of 2d+1 correlated triples (X(x_k), Y(x_k), Z(x_k)) with
// (x_k-triple multiplicative) ⇔ (input-triple k multiplicative).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/field/kernels.hpp"
#include "src/field/poly.hpp"
#include "src/mpc/beaver.hpp"
#include "src/mpc/sharing.hpp"

namespace bobw {

class TripTrans {
 public:
  using Handler = std::function<void(const std::vector<TripleShare>&)>;

  /// `grid` must contain 2d+1 distinct points.
  TripTrans(Party& party, const Addr& addr, const Ctx& ctx, int d,
            std::vector<Fp> grid, Handler on_out);

  void start(std::vector<TripleShare> in);

  bool done() const { return done_; }
  const std::vector<TripleShare>& out() const { return out_; }

  /// Shares of X/Y/Z at an arbitrary point (valid once done()): local
  /// Lagrange over the transformed shares ("Lagrange linear function").
  Fp x_at(Fp p) const;
  Fp y_at(Fp p) const;
  Fp z_at(Fp p) const;

 private:
  Party& party_;
  RouteId route_;
  Ctx ctx_;
  int d_;
  std::vector<Fp> grid_;
  // Cached point sets over the public grid: shared process-wide, so the L
  // parallel TripExt instances (and every party) precompute the Lagrange
  // data once instead of per x_at/y_at/z_at call.
  std::shared_ptr<const PointSet> base_ps_, grid_ps_;
  Handler handler_;
  std::unique_ptr<BeaverBatch> beaver_;
  std::vector<TripleShare> out_;
  bool started_ = false, done_ = false;
};

}  // namespace bobw
