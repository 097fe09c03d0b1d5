#include "src/mpc/sharing.hpp"

#include "src/vss/wire.hpp"

namespace bobw {

Reconstruct::Reconstruct(Party& party, const Addr& addr, int L, const Ctx& ctx, Handler on_values)
    : Instance(party, addr), L_(L), ctx_(ctx), on_values_(std::move(on_values)) {
  seen_.assign(static_cast<std::size_t>(n()), 0);
  bank_ = std::make_unique<OecBank>(ctx_.ts, ctx_.ts, L_);
}

void Reconstruct::start(const std::vector<Fp>& my_shares) {
  send_all(0, wire::encode_points(my_shares));
}

void Reconstruct::on_message(const Msg& m) {
  if (m.type != 0 || done_) return;
  if (seen_[static_cast<std::size_t>(m.from)]) return;
  auto pts = wire::decode_points(m.body, L_);
  if (!pts) return;
  seen_[static_cast<std::size_t>(m.from)] = 1;
  feed(m.from, *pts);
}

void Reconstruct::feed(int from, const std::vector<Fp>& shares) {
  // A rejected arrival (duplicate α / all lanes decoded) is simply dropped;
  // the per-sender `seen_` gate makes duplicates unreachable here, and the
  // bank internally skips lanes that already decoded.
  bank_->add_point(alpha(from), shares);
  if (!bank_->all_done()) return;
  done_ = true;
  values_.reserve(static_cast<std::size_t>(L_));
  for (int l = 0; l < L_; ++l) values_.push_back(bank_->value(l));
  if (on_values_) on_values_(values_);
}

}  // namespace bobw
