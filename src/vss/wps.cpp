#include "src/vss/wps.hpp"

namespace bobw {

Wps::Wps(Party& party, std::string id, int dealer, int L, const Ctx& ctx, Tick base,
         Handler on_shares, BcBank* plane, planelayout::StarGroups groups)
    : StarCore(party, std::move(id), dealer, L, ctx, base, std::move(on_shares)),
      pts_(static_cast<std::size_t>(party.n())) {
  const Tick ok_start = base_ + 2 * ctx_.delta;
  if (!plane) {
    std::vector<BcBank::Group> own;
    for (int l = 0; l < planelayout::kLayers; ++l) {
      const auto layer = static_cast<planelayout::Layer>(l);
      own.push_back(planelayout::star_group(
          n(), dealer_, ok_start, ctx_, layer,
          [this, layer](int slot, const std::optional<Bytes>& v, bool fb) {
            on_layer(layer, slot, v, fb);
          }));
    }
    own_plane_ = std::make_unique<BcBank>(party_, sub_id(this->id(), "plane"), std::move(own), ctx_);
    plane = own_plane_.get();
    groups = planelayout::kOwnGroups;
  }
  attach(*plane, groups, ok_start);
}

// ------------------------------------------------------- rows & points ---

void Wps::on_message(const Msg& m) {
  switch (m.type) {
    case kRows:
      on_rows(m);
      return;
    case kPoints:
      on_points(m);
      return;
    default:
      return;
  }
}

void Wps::start_second_layer() {
  sent_.reserve(static_cast<std::size_t>(n()));
  for (int j = 0; j < n(); ++j) sent_.emplace_back(wire::encode_row_points(rows_, alpha(j)));
  at(next_multiple(now(), ctx_.delta), [this] {
    points_sent_ = true;
    for (int j = 0; j < n(); ++j) {
      Payload& p = sent_[static_cast<std::size_t>(j)];
      send(j, kPoints, p);
      if (pts_[static_cast<std::size_t>(j)]) p = Payload();  // verdict already taken
    }
  });
}

wire::Verdict Wps::verdict_on(int j) {
  Payload& p = sent_[static_cast<std::size_t>(j)];
  const wire::Verdict v = wire::compare_points(p.bytes(), *pts_[static_cast<std::size_t>(j)]);
  if (points_sent_) p = Payload();  // else the send releases it
  return v;
}

void Wps::on_points(const Msg& m) {
  auto& slot = pts_[static_cast<std::size_t>(m.from)];
  if (slot) return;
  auto pts = wire::decode_points(m.body, L_);
  if (!pts) return;
  slot = std::move(*pts);
  maybe_broadcast_verdict(m.from);
  if (oec_active_) feed_oec(m.from);
}

// ------------------------------------------------------ share completion ---

void Wps::complete_from(const std::vector<int>& providers) {
  if (oec_active_ || done_) return;
  oec_active_ = true;
  provider_.assign(static_cast<std::size_t>(n()), 0);
  for (int p : providers) provider_[static_cast<std::size_t>(p)] = 1;
  oec_bank_ = std::make_unique<OecBank>(ctx_.ts, ctx_.ts, L_);
  for (int j = 0; j < n(); ++j)
    if (pts_[static_cast<std::size_t>(j)]) feed_oec(j);
}

void Wps::feed_oec(int j) {
  if (done_ || !provider_[static_cast<std::size_t>(j)]) return;
  // Rejections (duplicate α / all lanes decoded) are harmless here: the
  // pts_ slot gate guarantees one feed per provider, and the bank skips
  // lanes that already decoded.
  oec_bank_->add_point(alpha(j), *pts_[static_cast<std::size_t>(j)]);
  if (!oec_bank_->all_done()) return;
  // Recovered my row q_i(x) for each ℓ; the wps-share is q_i(0).
  std::vector<Fp> out;
  out.reserve(static_cast<std::size_t>(L_));
  for (int l = 0; l < L_; ++l) out.push_back(oec_bank_->value(l));
  finish(std::move(out));
}

}  // namespace bobw
