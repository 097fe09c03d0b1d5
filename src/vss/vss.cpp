#include "src/vss/vss.hpp"

#include "src/field/kernels.hpp"

namespace bobw {

Vss::Vss(Party& party, const Addr& addr, int dealer, int L, const Ctx& ctx,
         Tick base, Handler on_shares)
    : StarCore(party, addr, dealer, L, ctx, base, std::move(on_shares)),
      wsh_(static_cast<std::size_t>(party.n())) {
  const int nn = n();
  // One schedule plane for the whole sharing: every broadcast/BA layer of
  // the n child-ΠWPS instances plus ΠVSS's own rides one slot-multiplexed
  // bank. Each group's handler forwards to the skeleton that owns it; the
  // handlers fire only during the run, after the children below exist.
  auto groups = planelayout::sharing_plane_groups(nn, dealer_, base_, ctx_, nullptr);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    groups[g].handler = [this, o = planelayout::owner_of(nn, static_cast<int>(g))](
                            int slot, const std::optional<Bytes>& v, bool fb) {
      StarCore& to = o.child < 0 ? static_cast<StarCore&>(*this)
                                 : *wps_[static_cast<std::size_t>(o.child)];
      to.on_layer(o.layer, slot, v, fb);
    };
  }
  plane_ = std::make_unique<BcBank>(party_, Addr(route(), "plane"), std::move(groups), ctx_);

  // Second layer: one ΠWPS per party, scheduled at B+Δ, each sending its
  // ok verdicts, wef/★₂ broadcasts and ΠBA inputs through its groups of the
  // shared plane.
  wps_.resize(static_cast<std::size_t>(nn));
  for (int j = 0; j < nn; ++j) {
    wps_[static_cast<std::size_t>(j)] = std::make_unique<Wps>(
        party_, Addr(route(), "wps", j), j, L_, ctx_, base_ + ctx_.delta,
        [this, j](const std::vector<Fp>& sh) {
          wsh_[static_cast<std::size_t>(j)] = sh;
          on_wps_share(j);
        },
        plane_.get(), planelayout::child_groups(nn, j));
  }

  attach(*plane_, planelayout::dealer_groups(nn), base_ + ctx_.delta + ctx_.T.t_wps);
}

void Vss::on_message(const Msg& m) {
  if (m.type == kRows) on_rows(m);
}

void Vss::start_second_layer() {
  // "Wait till the local time becomes a multiple of Δ, then act as a dealer."
  at(next_multiple(now(), ctx_.delta), [this] {
    wps_[static_cast<std::size_t>(self())]->deal(rows_);
  });
}

void Vss::on_wps_share(int j) {
  maybe_broadcast_verdict(j);
  if (interpolating_) try_interpolate();
}

void Vss::complete_from(const std::vector<int>& providers) {
  provider_.assign(static_cast<std::size_t>(n()), 0);
  for (int p : providers) provider_[static_cast<std::size_t>(p)] = 1;
  interpolating_ = true;
  try_interpolate();
}

void Vss::try_interpolate() {
  if (done_ || !interpolating_) return;
  // SS_i: providers whose wps-shares I have computed. Need ts+1 of them.
  std::vector<int> ss;
  for (int j = 0; j < n(); ++j)
    if (provider_[static_cast<std::size_t>(j)] && wsh_[static_cast<std::size_t>(j)]) ss.push_back(j);
  if (static_cast<int>(ss.size()) < ctx_.ts + 1) return;
  ss.resize(static_cast<std::size_t>(ctx_.ts + 1));
  std::vector<Fp> xs;
  xs.reserve(ss.size());
  for (int j : ss) xs.push_back(alpha(j));
  // One cached weight vector serves all L batched secrets (and every other
  // party interpolating from the same provider set).
  auto ps = pointset(xs);
  std::vector<Fp> out;
  out.reserve(static_cast<std::size_t>(L_));
  std::vector<Fp> ys(ss.size());
  for (int l = 0; l < L_; ++l) {
    for (std::size_t k = 0; k < ss.size(); ++k)
      ys[k] = (*wsh_[static_cast<std::size_t>(ss[k])])[static_cast<std::size_t>(l)];
    // The wps-shares of parties in F all lie on my row q_i(x); ts+1 of them
    // pin it down exactly (Lemma 4.13 argument) — share = q_i(0).
    out.push_back(ps->eval(ys, Fp(0)));
  }
  finish(std::move(out));
}

}  // namespace bobw
