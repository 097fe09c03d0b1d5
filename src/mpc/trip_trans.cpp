#include "src/mpc/trip_trans.hpp"

#include <cassert>

namespace bobw {

TripTrans::TripTrans(Party& party, const Addr& addr, const Ctx& ctx, int d,
                     std::vector<Fp> grid, Handler on_out)
    : party_(party), route_(party.sim().routes().resolve(addr)), ctx_(ctx), d_(d),
      grid_(std::move(grid)), handler_(std::move(on_out)) {
  assert(static_cast<int>(grid_.size()) == 2 * d_ + 1);
  base_ps_ = pointset(std::vector<Fp>(grid_.begin(), grid_.begin() + d_ + 1));
  grid_ps_ = pointset(grid_);
}

void TripTrans::start(std::vector<TripleShare> in) {
  if (started_) return;
  started_ = true;
  assert(static_cast<int>(in.size()) == 2 * d_ + 1);
  out_ = in;  // first d+1 entries pass through unchanged
  // Derive shares of X(x_k), Y(x_k) for k = d+1 .. 2d from the first d+1,
  // with the weight vectors memoised across all L extraction instances.
  for (int k = d_ + 1; k <= 2 * d_; ++k) {
    const auto& wts = base_ps_->weights_at(grid_[static_cast<std::size_t>(k)]);
    Fp x(0), y(0);
    for (int j = 0; j <= d_; ++j) {
      x += wts[static_cast<std::size_t>(j)] * in[static_cast<std::size_t>(j)].a;
      y += wts[static_cast<std::size_t>(j)] * in[static_cast<std::size_t>(j)].b;
    }
    out_[static_cast<std::size_t>(k)].a = x;
    out_[static_cast<std::size_t>(k)].b = y;
  }
  // Recompute products for the derived points with the remaining d triples.
  std::vector<BeaverIn> bv;
  bv.reserve(static_cast<std::size_t>(d_));
  for (int k = d_ + 1; k <= 2 * d_; ++k) {
    BeaverIn b;
    b.x = out_[static_cast<std::size_t>(k)].a;
    b.y = out_[static_cast<std::size_t>(k)].b;
    b.trip = in[static_cast<std::size_t>(k)];
    bv.push_back(b);
  }
  if (bv.empty()) {
    done_ = true;
    if (handler_) handler_(out_);
    return;
  }
  beaver_ = std::make_unique<BeaverBatch>(party_, Addr(route_, "beaver"), ctx_,
                                          [this](const std::vector<Fp>& z) {
                                            for (int k = d_ + 1; k <= 2 * d_; ++k)
                                              out_[static_cast<std::size_t>(k)].c =
                                                  z[static_cast<std::size_t>(k - d_ - 1)];
                                            done_ = true;
                                            if (handler_) handler_(out_);
                                          });
  beaver_->start(std::move(bv));
}

Fp TripTrans::x_at(Fp p) const {
  const auto& w = base_ps_->weights_at(p);
  Fp acc(0);
  for (int j = 0; j <= d_; ++j) acc += w[static_cast<std::size_t>(j)] * out_[static_cast<std::size_t>(j)].a;
  return acc;
}

Fp TripTrans::y_at(Fp p) const {
  const auto& w = base_ps_->weights_at(p);
  Fp acc(0);
  for (int j = 0; j <= d_; ++j) acc += w[static_cast<std::size_t>(j)] * out_[static_cast<std::size_t>(j)].b;
  return acc;
}

Fp TripTrans::z_at(Fp p) const {
  const auto& w = grid_ps_->weights_at(p);
  Fp acc(0);
  for (int j = 0; j <= 2 * d_; ++j) acc += w[static_cast<std::size_t>(j)] * out_[static_cast<std::size_t>(j)].c;
  return acc;
}

}  // namespace bobw
