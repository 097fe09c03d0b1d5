#include "src/mpc/beaver.hpp"

namespace bobw {

BeaverBatch::BeaverBatch(Party& party, const Addr& addr, const Ctx& ctx, Handler on_z_shares)
    : party_(party), route_(party.sim().routes().resolve(addr)), ctx_(ctx),
      handler_(std::move(on_z_shares)) {}

void BeaverBatch::start(std::vector<BeaverIn> in) {
  if (started_) return;
  started_ = true;
  in_ = std::move(in);
  const int L = static_cast<int>(in_.size());
  rec_ = std::make_unique<Reconstruct>(party_, Addr(route_, "open"), 2 * L, ctx_,
                                       [this](const std::vector<Fp>& de) { on_opened(de); });
  std::vector<Fp> masked;
  masked.reserve(static_cast<std::size_t>(2 * L));
  for (const auto& item : in_) {
    masked.push_back(item.x - item.trip.a);  // e = x − a
    masked.push_back(item.y - item.trip.b);  // d = y − b
  }
  rec_->start(masked);
}

void BeaverBatch::on_opened(const std::vector<Fp>& de) {
  done_ = true;
  z_.reserve(in_.size());
  for (std::size_t k = 0; k < in_.size(); ++k) {
    Fp e = de[2 * k], d = de[2 * k + 1];
    z_.push_back(d * e + e * in_[k].trip.b + d * in_[k].trip.a + in_[k].trip.c);
  }
  if (handler_) handler_(z_);
}

}  // namespace bobw
