#include "src/mpc/baseline.hpp"

#include "src/common/codec.hpp"

namespace bobw {

SyncShareBaseline::SyncShareBaseline(Party& party, const Addr& addr, int dealer, int t,
                                     Tick base, Handler on_value)
    : Instance(party, addr), dealer_(dealer), t_(t), base_(base),
      handler_(std::move(on_value)) {
  echoes_.resize(static_cast<std::size_t>(n()));
  const Tick delta = party_.sim().delta();
  // Round 2: echo my share to everyone.
  at(base_ + delta, [this] {
    if (!my_share_) return;
    Writer w;
    w.u64(my_share_->value());
    send_all(kEcho, w.take());
  });
  // Round 3: interpolate from the first t+1 shares that made the timeout.
  at(base_ + 2 * delta, [this] {
    std::vector<Fp> xs, ys;
    for (int j = 0; j < n() && static_cast<int>(xs.size()) < t_ + 1; ++j) {
      if (!echoes_[static_cast<std::size_t>(j)]) continue;
      xs.push_back(alpha(j));
      ys.push_back(*echoes_[static_cast<std::size_t>(j)]);
    }
    if (static_cast<int>(xs.size()) < t_ + 1) {
      if (handler_) handler_(std::nullopt);
      return;
    }
    if (handler_) handler_(lagrange_eval(xs, ys, Fp(0)));
  });
}

void SyncShareBaseline::deal(Fp secret) {
  at(base_, [this, secret] {
    Poly q = Poly::random_with_secret(t_, secret, party_.rng());
    for (int i = 0; i < n(); ++i) {
      Writer w;
      w.u64(q.eval(alpha(i)).value());
      send(i, kShare, w.take());
    }
  });
}

void SyncShareBaseline::on_message(const Msg& m) {
  try {
    Reader r(m.body);
    std::uint64_t raw = r.u64();
    if (!r.exhausted() || raw >= Fp::kP) return;
    if (m.type == kShare && m.from == dealer_ && !my_share_) {
      my_share_ = Fp(raw);
    } else if (m.type == kEcho && !echoes_[static_cast<std::size_t>(m.from)]) {
      echoes_[static_cast<std::size_t>(m.from)] = Fp(raw);
    }
  } catch (const CodecError&) {
  }
}

}  // namespace bobw
