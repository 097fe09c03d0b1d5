#include "src/ba/ba.hpp"

namespace bobw {

Ba::Ba(Party& party, const Addr& addr, const Ctx& ctx, Tick start_time, Handler on_decide,
       BcBank* bc_bank, int bc_group)
    : party_(party), ctx_(ctx), start_(start_time), on_decide_(std::move(on_decide)),
      bc_(bc_bank), bc_group_(bc_group) {
  RouteTable& routes = party_.sim().routes();
  const RouteId route = routes.resolve(addr);
  regular_bits_.assign(static_cast<std::size_t>(ctx_.n), std::nullopt);
  if (!bc_) {
    std::vector<int> senders(static_cast<std::size_t>(ctx_.n));
    for (int j = 0; j < ctx_.n; ++j) senders[static_cast<std::size_t>(j)] = j;
    bc_bank_ = std::make_unique<BcBank>(
        party_, Addr(route, "bc"), std::move(senders), ctx_, start_,
        [this](int j, const std::optional<Bytes>& v, bool fallback) {
          on_input_bc(j, v, fallback);
        });
    bc_ = bc_bank_.get();
    bc_group_ = 0;
  }
  aba_ = &AbaBank::at_tick(party_, start_ + ctx_.T.t_bc, ctx_);
  aba_seat_ = aba_->enroll(route, routes.path_hash(routes.child(route, "aba")), [this](bool b) {
    if (on_decide_) on_decide_(b);
  });
  party_.at(start_, [this] {
    if (input_ && !input_broadcast_) {
      input_broadcast_ = true;
      bc_->broadcast(bc_group_, party_.id(),
                     Bytes{*input_ ? std::uint8_t{1} : std::uint8_t{0}});
    }
  });
  party_.at(start_ + ctx_.T.t_bc, [this] { at_deadline(); });
}

void Ba::on_input_bc(int j, const std::optional<Bytes>& v, bool fallback) {
  if (fallback || !v) return;
  if (v->size() == 1 && (*v)[0] <= 1)
    regular_bits_[static_cast<std::size_t>(j)] = (*v)[0] != 0;
}

void Ba::set_input(bool b) {
  if (input_) return;
  input_ = b;
  if (party_.now() >= start_ && !input_broadcast_) {
    input_broadcast_ = true;
    bc_->broadcast(bc_group_, party_.id(), Bytes{b ? std::uint8_t{1} : std::uint8_t{0}});
  }
  if (deadline_passed_) enter_aba();
}

void Ba::at_deadline() {
  deadline_passed_ = true;
  if (input_) enter_aba();
}

void Ba::enter_aba() {
  if (aba_started_) return;
  aba_started_ = true;
  // R = parties with a non-⊥ regular-mode bit.
  int ones = 0, zeros = 0;
  for (const auto& b : regular_bits_) {
    if (!b) continue;
    (*b ? ones : zeros)++;
  }
  bool v;
  if (ones + zeros >= ctx_.n - ctx_.ts) {
    v = ones >= zeros;  // majority; tie -> 1 (paper footnote)
  } else {
    v = *input_;
  }
  aba_->start(aba_seat_, v);
}

}  // namespace bobw
