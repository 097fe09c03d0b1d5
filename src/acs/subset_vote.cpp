#include "src/acs/subset_vote.hpp"

namespace bobw {

SubsetVote::SubsetVote(Party& party, RouteId parent, const Ctx& ctx, Tick ba_start,
                       Rule rule, const std::function<void(int j)>& build_child, Handler on_cs)
    : ctx_(ctx),
      rule_(rule),
      on_cs_(std::move(on_cs)),
      ba_(static_cast<std::size_t>(ctx.n)),
      ba_out_(static_cast<std::size_t>(ctx.n)) {
  for (int j = 0; j < ctx_.n; ++j) {
    build_child(j);
    ba_[static_cast<std::size_t>(j)] = std::make_unique<Ba>(
        party, Addr(parent, "ba", j), ctx_, ba_start,
        [this, j](bool b) { on_ba_decided(j, b); });
  }
}

void SubsetVote::vote_one(int j) { ba_[static_cast<std::size_t>(j)]->set_input(true); }

void SubsetVote::on_ba_decided(int j, bool b) {
  ba_out_[static_cast<std::size_t>(j)] = b;
  ++decided_;
  if (b) ++ones_;
  if (!zeros_cast_ && ones_ >= ctx_.n - ctx_.ts) {
    zeros_cast_ = true;
    for (auto& ba : ba_)
      if (!ba->has_input()) ba->set_input(false);
  }
  if (decided_ < ctx_.n || cs_) return;
  std::vector<int> cs;
  for (int k = 0; k < ctx_.n; ++k) {
    if (!*ba_out_[static_cast<std::size_t>(k)]) continue;
    if (rule_ == Rule::kFirstNMinusTs && static_cast<int>(cs.size()) >= ctx_.n - ctx_.ts) break;
    cs.push_back(k);
  }
  cs_ = std::move(cs);
  if (on_cs_) on_cs_(*cs_);
}

}  // namespace bobw
