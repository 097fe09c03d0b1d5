#include "src/acs/acs.hpp"

namespace bobw {

Acs::Acs(Party& party, const Addr& addr, int L, const Ctx& ctx, Tick base,
         CsRule rule, Handler on_output)
    : party_(party),
      route_(party.sim().routes().resolve(addr)),
      handler_(std::move(on_output)),
      vote_(party, route_, ctx, base + ctx.T.t_vss, rule,
            [&](int j) {
              vss_.push_back(std::make_unique<Vss>(
                  party_, Addr(route_, "vss", j), j, L, ctx, base,
                  [this, j](const std::vector<Fp>&) {
                    // Pj entered C_i: vote 1 in Π(j)BA.
                    vote_.vote_one(j);
                    maybe_finish();
                  }));
            },
            [this](const std::vector<int>&) { maybe_finish(); }) {
  out_.shares.resize(static_cast<std::size_t>(ctx.n));
}

void Acs::set_input(const std::vector<Poly>& polys) {
  vss_[static_cast<std::size_t>(party_.id())]->deal(polys);
}

void Acs::maybe_finish() {
  if (done_ || !vote_.cs()) return;
  const auto& cs = *vote_.cs();
  // All CS members' shares must be in hand (corrupt members may straggle —
  // VSS strong commitment guarantees eventual delivery).
  for (int j : cs)
    if (!vss_[static_cast<std::size_t>(j)]->has_output()) return;
  done_ = true;
  out_.cs = cs;
  for (int j : cs)
    out_.shares[static_cast<std::size_t>(j)] = vss_[static_cast<std::size_t>(j)]->shares();
  if (handler_) handler_(out_);
}

}  // namespace bobw
