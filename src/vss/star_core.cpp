#include "src/vss/star_core.hpp"

#include <algorithm>

#include "src/field/kernels.hpp"
#include "src/graph/star.hpp"

namespace bobw {

StarCore::StarCore(Party& party, const Addr& addr, int dealer, int L, const Ctx& ctx, Tick base,
                   Handler on_shares)
    : Instance(party, addr),
      dealer_(dealer),
      L_(L),
      ctx_(ctx),
      base_(base),
      on_shares_(std::move(on_shares)),
      verdicts_(party.n()),
      verdict_broadcast_(static_cast<std::size_t>(party.n()), 0) {}

void StarCore::attach(BcBank& bank, planelayout::StarGroups groups, Tick ok_start) {
  bank_ = &bank;
  groups_ = groups;
  const Tick accept_time = ok_start + 2 * ctx_.T.t_bc;
  ba_ = std::make_unique<Ba>(party_, Addr(route(), "ba"), ctx_, accept_time,
                             [this](bool b) { on_ba(b); }, bank_, groups_[planelayout::kBa]);
  if (self() == dealer_) {
    at(ok_start + ctx_.T.t_bc, [this] { dealer_find_wef(); });
  }
  at(accept_time, [this] { accept_check(); });
}

void StarCore::on_layer(planelayout::Layer layer, int slot, const std::optional<Bytes>& v,
                        bool fallback) {
  switch (layer) {
    case planelayout::kOk:
      on_verdict(slot, v, fallback);
      return;
    case planelayout::kWef:
      on_wef(v, fallback);
      return;
    case planelayout::kBa:
      ba_->on_input_bc(slot, v, fallback);
      return;
    case planelayout::kStar2:
      on_star2(v);
      return;
  }
}

// --------------------------------------------------------------- dealer ---

void StarCore::deal(const std::vector<Poly>& qs) {
  std::vector<SymBivariate> Qs;
  Qs.reserve(qs.size());
  for (const auto& q : qs)
    Qs.push_back(SymBivariate::random_embedding(ctx_.ts, q, party_.rng()));
  deal_bivariate(std::move(Qs));
}

void StarCore::deal(const RowBlock& qs) {
  std::vector<SymBivariate> Qs;
  Qs.reserve(qs.rows());
  for (std::size_t l = 0; l < qs.rows(); ++l)
    Qs.push_back(SymBivariate::random_embedding(ctx_.ts, qs.row(l), party_.rng()));
  deal_bivariate(std::move(Qs));
}

void StarCore::deal_bivariate(std::vector<SymBivariate> Qs) {
  if (static_cast<int>(Qs.size()) != L_) return;
  deal_rows_custom(std::move(Qs), {});
}

void StarCore::deal_rows_custom(std::vector<SymBivariate> Qs,
                                std::vector<std::vector<Poly>> rows_per_party) {
  if (dealing_) return;
  dealing_ = true;
  Qs_ = std::move(Qs);
  custom_rows_ = std::move(rows_per_party);
  if (now() >= base_) {
    send_rows();
  } else {
    at(base_, [this] { send_rows(); });
  }
}

void StarCore::send_rows() {
  const std::size_t m = static_cast<std::size_t>(ctx_.ts) + 1;
  for (int i = 0; i < n(); ++i) {
    RowBlock rows;
    if (!custom_rows_.empty()) {
      const auto& polys = custom_rows_[static_cast<std::size_t>(i)];
      rows = RowBlock(polys.size(), m);
      for (std::size_t l = 0; l < polys.size(); ++l)
        for (std::size_t k = 0; k < m; ++k) rows.row(l)[k] = polys[l].coeff(static_cast<int>(k));
    } else {
      rows = RowBlock(Qs_.size(), m);
      const auto at = power_row(alpha(i), ctx_.ts);
      for (std::size_t l = 0; l < Qs_.size(); ++l) Qs_[l].row_into(at.data(), rows.row(l).data());
    }
    send(i, kRows, wire::encode_rows(rows));
  }
}

void StarCore::dealer_find_wef() {
  if (wef_sent_) return;
  auto wef = find_wef(verdicts_, Qs_, ctx_.ts);
  if (!wef) return;
  wef_sent_ = true;
  bank_->broadcast(groups_[planelayout::kWef], 0, wire::encode_star(*wef));
}

void StarCore::dealer_try_star2() {
  if (star2_sent_) return;
  auto star = find_star(graph(/*regular_only=*/false), ctx_.ta);
  if (!star) return;
  star2_sent_ = true;
  wire::StarMsg msg;
  msg.E = std::move(star->E);
  msg.F = std::move(star->F);
  bank_->broadcast(groups_[planelayout::kStar2], 0, wire::encode_star(msg));
}

// ---------------------------------------------------- rows & verdicts ---

void StarCore::on_rows(const Msg& m) {
  if (m.from != dealer_ || rows_valid_) return;
  auto rows = wire::decode_rows(m.body, L_, ctx_.ts);
  if (!rows) return;
  rows_ = std::move(*rows);
  rows_valid_ = true;
  start_second_layer();
  for (int j = 0; j < n(); ++j) maybe_broadcast_verdict(j);
}

void StarCore::maybe_broadcast_verdict(int j) {
  if (!rows_valid_ || !values_from(j) || verdict_broadcast_[static_cast<std::size_t>(j)]) return;
  verdict_broadcast_[static_cast<std::size_t>(j)] = 1;
  // The verdict depends only on the rows and values_from(j), both final
  // now; taking it here lets a ΠWPS release its kept payload at once. It
  // waits in its slot, so the timer's closure stays allocation-free.
  if (!taken_) taken_ = std::make_unique<wire::Verdict[]>(static_cast<std::size_t>(n()));
  taken_[static_cast<std::size_t>(j)] = verdict_on(j);
  at(next_multiple(now(), ctx_.delta), [this, j] {
    bank_->broadcast(groups_[planelayout::kOk], self() * n() + j,
                     wire::encode_verdict(taken_[static_cast<std::size_t>(j)]));
    if (++verdicts_sent_ == n()) taken_.reset();
  });
}

wire::Verdict StarCore::verdict_on(int j) {
  std::vector<Fp> mine(rows_.rows());
  eval_rows(rows_, alpha(j), mine.data());
  return wire::compare_points(mine, *values_from(j));
}

void StarCore::on_verdict(int slot, const std::optional<Bytes>& v, bool fallback) {
  if (!v) return;
  auto verdict = wire::decode_verdict(*v);
  if (!verdict) return;
  verdicts_.record(slot / n(), slot % n(), *verdict, fallback);
  // Graph growth may complete the (n,ta)-star path.
  if (ba_out_ && *ba_out_) {
    if (self() == dealer_) dealer_try_star2();
    try_path_star2();
  }
}

void StarCore::on_wef(const std::optional<Bytes>& v, bool fallback) {
  if (!v || wef_) return;
  if (auto s = wire::decode_star(*v, n())) {
    wef_ = std::move(*s);
    // The regular-mode decide fires with fallback = false; the fallback
    // fires only after the regular output decided ⊥ — so the first non-null
    // delivery's flag is exactly "arrived in regular mode".
    wef_regular_ = !fallback;
    if (ba_out_ && !*ba_out_) try_path_w();
  }
}

void StarCore::on_star2(const std::optional<Bytes>& v) {
  if (!v || star2_) return;
  if (auto s = wire::decode_star(*v, n())) {
    star2_ = std::move(*s);
    try_path_star2();
  }
}

// --------------------------------------------------- acceptance & paths ---

void StarCore::accept_check() {
  const bool accepted = wef_ && wef_regular_ && accept_wef(verdicts_, *wef_, ctx_.ts);
  ba_->set_input(!accepted);
}

void StarCore::on_ba(bool b) {
  ba_out_ = b;
  if (!b) {
    try_path_w();
  } else {
    if (self() == dealer_) dealer_try_star2();
    try_path_star2();
  }
}

void StarCore::try_path_w() {
  if (done_ || !ba_out_ || *ba_out_ || !wef_) return;
  const auto& s = *wef_;
  // Minimal structural sanity (BA=0 implies an honest party validated fully).
  if (static_cast<int>(s.F.size()) < n() - ctx_.ts) return;
  share_via(s.W, s.F);
}

void StarCore::try_path_star2() {
  if (done_ || !ba_out_ || !*ba_out_ || !star2_) return;
  const auto& s = *star2_;
  // Wait until (E',F') is an (n,ta)-star in MY (growing) consistency graph.
  if (!is_star(graph(/*regular_only=*/false), s.E, s.F, ctx_.ta)) return;
  share_via(s.F, s.F);
}

void StarCore::share_via(const std::vector<int>& holders, const std::vector<int>& providers) {
  if (rows_valid_ && std::find(holders.begin(), holders.end(), self()) != holders.end()) {
    std::vector<Fp> out;
    out.reserve(static_cast<std::size_t>(L_));
    for (std::size_t l = 0; l < rows_.rows(); ++l) out.push_back(rows_.row(l)[0]);
    finish(std::move(out));
    return;
  }
  complete_from(providers);
}

void StarCore::finish(std::vector<Fp> shares) {
  if (done_) return;
  done_ = true;
  shares_ = std::move(shares);
  if (on_shares_) on_shares_(shares_);
}

}  // namespace bobw
