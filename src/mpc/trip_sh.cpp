#include "src/mpc/trip_sh.hpp"

namespace bobw {

TripSh::TripSh(Party& party, const Addr& addr, int dealer, int L, const Ctx& ctx,
               Tick base, Handler on_triples)
    : party_(party), route_(party.sim().routes().resolve(addr)), dealer_(dealer), L_(L),
      ctx_(ctx), base_(base),
      handler_(std::move(on_triples)) {
  const int batch = 2 * ctx_.ts + 1;
  vss_ = std::make_unique<Vss>(party_, Addr(route_, "vss"), dealer_, 3 * L_ * batch, ctx_, base_,
                               [this](const std::vector<Fp>& sh) { on_vss_shares(sh); });
  acs_ = std::make_unique<Acs>(party_, Addr(route_, "acs"), 3 * L_, ctx_, base_,
                               Acs::CsRule::kAllOnes,
                               [this](const Acs::Output& out) { on_acs_output(out); });
  // Honest parties contribute random verification triples.
  std::vector<Poly> vpolys;
  vpolys.reserve(static_cast<std::size_t>(3 * L_));
  for (int l = 0; l < L_; ++l) {
    Fp u = Fp::random(party_.rng()), v = Fp::random(party_.rng());
    vpolys.push_back(Poly::random_with_secret(ctx_.ts, u, party_.rng()));
    vpolys.push_back(Poly::random_with_secret(ctx_.ts, v, party_.rng()));
    vpolys.push_back(Poly::random_with_secret(ctx_.ts, u * v, party_.rng()));
  }
  acs_->set_input(vpolys);
}

void TripSh::deal() {
  const int batch = 2 * ctx_.ts + 1;
  std::vector<std::array<Fp, 3>> triples;
  triples.reserve(static_cast<std::size_t>(L_ * batch));
  for (int k = 0; k < L_ * batch; ++k) {
    Fp a = Fp::random(party_.rng()), b = Fp::random(party_.rng());
    triples.push_back({a, b, a * b});
  }
  deal_with(std::move(triples));
}

void TripSh::deal_with(std::vector<std::array<Fp, 3>> triples) {
  std::vector<Poly> polys;
  polys.reserve(triples.size() * 3);
  for (const auto& t : triples)
    for (int c = 0; c < 3; ++c)
      polys.push_back(Poly::random_with_secret(ctx_.ts, t[static_cast<std::size_t>(c)], party_.rng()));
  vss_->deal(polys);
}

void TripSh::on_vss_shares(const std::vector<Fp>& shares) {
  vss_shares_ = shares;
  vss_done_ = true;
  maybe_transform();
}

void TripSh::on_acs_output(const Acs::Output& out) {
  w_ = out;
  maybe_transform();
}

void TripSh::maybe_transform() {
  if (transforming_ || !vss_done_ || !w_) return;
  transforming_ = true;
  const int batch = 2 * ctx_.ts + 1;
  std::vector<Fp> grid;
  grid.reserve(static_cast<std::size_t>(batch));
  for (int k = 0; k < batch; ++k) grid.push_back(alpha(k));
  tt_.resize(static_cast<std::size_t>(L_));
  for (int l = 0; l < L_; ++l) {
    tt_[static_cast<std::size_t>(l)] = std::make_unique<TripTrans>(
        party_, Addr(route_, "tt", l), ctx_, ctx_.ts, grid,
        [this](const std::vector<TripleShare>&) {
          ++tt_done_;
          on_transform_done();
        });
    std::vector<TripleShare> in;
    in.reserve(static_cast<std::size_t>(batch));
    for (int k = 0; k < batch; ++k) {
      const std::size_t off = static_cast<std::size_t>((l * batch + k) * 3);
      in.push_back(TripleShare{vss_shares_[off], vss_shares_[off + 1], vss_shares_[off + 2]});
    }
    tt_[static_cast<std::size_t>(l)]->start(std::move(in));
  }
}

void TripSh::on_transform_done() {
  if (verifying_ || tt_done_ < L_) return;
  verifying_ = true;
  start_verification();
}

void TripSh::start_verification() {
  // Supervised recomputation: one Beaver entry per (ℓ, Pj ∈ W).
  for (int l = 0; l < L_; ++l)
    for (int j : w_->cs) sup_.emplace_back(l, j);
  std::vector<BeaverIn> bv;
  bv.reserve(sup_.size());
  for (const auto& [l, j] : sup_) {
    const auto& tt = *tt_[static_cast<std::size_t>(l)];
    const auto& vsh = *w_->shares[static_cast<std::size_t>(j)];
    BeaverIn b;
    b.x = tt.x_at(alpha(j));
    b.y = tt.y_at(alpha(j));
    b.trip = TripleShare{vsh[static_cast<std::size_t>(3 * l)],
                         vsh[static_cast<std::size_t>(3 * l + 1)],
                         vsh[static_cast<std::size_t>(3 * l + 2)]};
    bv.push_back(b);
  }
  recompute_ = std::make_unique<BeaverBatch>(
      party_, Addr(route_, "recmp"), ctx_, [this](const std::vector<Fp>& z) {
        zbar_ = z;
        // γ = recomputed − Z(α_j); open all of them.
        std::vector<Fp> gsh;
        gsh.reserve(sup_.size());
        for (std::size_t k = 0; k < sup_.size(); ++k) {
          const auto& [l, j] = sup_[k];
          gsh.push_back(zbar_[k] - tt_[static_cast<std::size_t>(l)]->z_at(alpha(j)));
        }
        gamma_rec_ = std::make_unique<Reconstruct>(
            party_, Addr(route_, "gamma"), static_cast<int>(sup_.size()), ctx_,
            [this](const std::vector<Fp>& g) { on_gamma(g); });
        gamma_rec_->start(gsh);
      });
  recompute_->start(std::move(bv));
}

void TripSh::on_gamma(const std::vector<Fp>& gammas) {
  for (std::size_t k = 0; k < gammas.size(); ++k)
    if (!gammas[k].is_zero()) suspects_.push_back(k);
  if (suspects_.empty()) {
    finalize(/*exposed=*/false);
    return;
  }
  // Open every suspected transformed triple.
  std::vector<Fp> ssh;
  ssh.reserve(suspects_.size() * 3);
  for (std::size_t k : suspects_) {
    const auto& [l, j] = sup_[k];
    const auto& tt = *tt_[static_cast<std::size_t>(l)];
    ssh.push_back(tt.x_at(alpha(j)));
    ssh.push_back(tt.y_at(alpha(j)));
    ssh.push_back(tt.z_at(alpha(j)));
  }
  suspect_rec_ = std::make_unique<Reconstruct>(
      party_, Addr(route_, "suspect"), static_cast<int>(ssh.size()), ctx_,
      [this](const std::vector<Fp>& vals) { on_suspects_opened(vals); });
  suspect_rec_->start(ssh);
}

void TripSh::on_suspects_opened(const std::vector<Fp>& vals) {
  bool exposed = false;
  for (std::size_t s = 0; s < suspects_.size(); ++s) {
    Fp x = vals[3 * s], y = vals[3 * s + 1], z = vals[3 * s + 2];
    if (x * y != z) exposed = true;  // dealer shared a bad triple
  }
  finalize(exposed);
}

void TripSh::finalize(bool exposed) {
  if (done_) return;
  done_ = true;
  exposed_ = exposed;
  out_.resize(static_cast<std::size_t>(L_));
  const Fp b = beta(ctx_.n, 0);
  for (int l = 0; l < L_; ++l) {
    if (exposed) {
      out_[static_cast<std::size_t>(l)] = TripleShare{Fp(0), Fp(0), Fp(0)};
    } else {
      const auto& tt = *tt_[static_cast<std::size_t>(l)];
      out_[static_cast<std::size_t>(l)] = TripleShare{tt.x_at(b), tt.y_at(b), tt.z_at(b)};
    }
  }
  if (handler_) handler_(out_);
}

}  // namespace bobw
