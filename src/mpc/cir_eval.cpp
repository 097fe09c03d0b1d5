#include "src/mpc/cir_eval.hpp"

namespace bobw {

CirEval::CirEval(Party& party, const Addr& addr, const Circuit& cir, Fp my_input,
                 const Ctx& ctx, Tick base, Handler on_output)
    : Instance(party, addr),
      cir_(cir),
      my_input_(my_input),
      ctx_(ctx),
      base_(base),
      handler_(std::move(on_output)) {
  wire_.resize(static_cast<std::size_t>(cir_.num_wires()));
  input_shares_.assign(static_cast<std::size_t>(ctx_.n), Fp(0));

  acs_ = std::make_unique<Acs>(party_, Addr(route(), "in"), 1, ctx_, base_,
                               Acs::CsRule::kAllOnes,
                               [this](const Acs::Output& o) { on_inputs(o); });
  acs_->set_input({Poly::random_with_secret(ctx_.ts, my_input_, party_.rng())});

  const int cm = std::max(1, cir_.mult_count());
  prep_ = std::make_unique<Preprocess>(party_, Addr(route(), "prep"), ctx_, base_, cm,
                                       [this](const std::vector<TripleShare>& t) { on_triples(t); });
  prep_->deal();
}

void CirEval::on_inputs(const Acs::Output& out) {
  input_cs_ = out.cs;
  for (int j : out.cs)
    input_shares_[static_cast<std::size_t>(j)] = (*out.shares[static_cast<std::size_t>(j)])[0];
  inputs_ready_ = true;
  sweep();
}

void CirEval::on_triples(const std::vector<TripleShare>& t) {
  triples_ = t;
  triples_ready_ = true;
  sweep();
}

void CirEval::sweep() {
  if (!inputs_ready_ || !triples_ready_ || mul_in_flight_ || terminated_) return;
  using Op = Circuit::Op;
  std::vector<int> batch_gates;
  std::vector<BeaverIn> batch;
  for (int i = 0; i < cir_.num_wires(); ++i) {
    auto& w = wire_[static_cast<std::size_t>(i)];
    if (w) continue;
    const auto& g = cir_.gates()[static_cast<std::size_t>(i)];
    auto val = [this](int a) { return wire_[static_cast<std::size_t>(a)]; };
    switch (g.op) {
      case Op::kInput:
        w = input_shares_[static_cast<std::size_t>(g.party)];
        break;
      case Op::kAdd:
        if (val(g.a) && val(g.b)) w = *val(g.a) + *val(g.b);
        break;
      case Op::kSub:
        if (val(g.a) && val(g.b)) w = *val(g.a) - *val(g.b);
        break;
      case Op::kAddConst:
        // Adding a public constant to a sharing: every party adds k to its
        // share (the sharing polynomial shifts by k).
        if (val(g.a)) w = *val(g.a) + g.konst;
        break;
      case Op::kMulConst:
        if (val(g.a)) w = *val(g.a) * g.konst;
        break;
      case Op::kMul:
        if (val(g.a) && val(g.b)) {
          BeaverIn in;
          in.x = *val(g.a);
          in.y = *val(g.b);
          in.trip = triples_[static_cast<std::size_t>(next_triple_ +
                                                      static_cast<int>(batch.size()))];
          batch.push_back(in);
          batch_gates.push_back(i);
        }
        break;
    }
  }
  if (!batch.empty()) {
    next_triple_ += static_cast<int>(batch.size());
    mul_in_flight_ = true;
    muls_.push_back(std::make_unique<BeaverBatch>(
        party_, Addr(route(), "mul", mul_round_++), ctx_,
        [this, batch_gates](const std::vector<Fp>& z) { on_mul_layer(batch_gates, z); }));
    muls_.back()->start(std::move(batch));
    return;
  }
  // No multiplications pending: every output wire must be ready.
  if (!out_started_) {
    std::vector<Fp> out_shares;
    out_shares.reserve(cir_.outputs().size());
    for (int w : cir_.outputs()) {
      if (!wire_[static_cast<std::size_t>(w)]) return;
      out_shares.push_back(*wire_[static_cast<std::size_t>(w)]);
    }
    out_started_ = true;
    out_rec_ = std::make_unique<Reconstruct>(
        party_, Addr(route(), "out"), static_cast<int>(out_shares.size()), ctx_,
        [this](const std::vector<Fp>& y) { on_y_opened(y); });
    out_rec_->start(out_shares);
  }
}

void CirEval::on_mul_layer(const std::vector<int>& gate_ids, const std::vector<Fp>& z) {
  for (std::size_t k = 0; k < gate_ids.size(); ++k)
    wire_[static_cast<std::size_t>(gate_ids[k])] = z[k];
  mul_in_flight_ = false;
  sweep();
}

void CirEval::on_y_opened(const std::vector<Fp>& y) { send_ready(y); }

void CirEval::send_ready(const std::vector<Fp>& y) {
  Writer w;
  w.u64s(to_words(y));
  send_ready_bytes(w.take());
}

void CirEval::send_ready_bytes(const Bytes& body) {
  if (ready_sent_ || terminated_) return;
  ready_sent_ = true;
  send_all(kReady, body);
}

void CirEval::on_message(const Msg& m) {
  if (m.type != kReady || terminated_) return;
  std::vector<Fp> y;
  try {
    Reader r(m.body);
    y = from_words(r.u64s());
    if (!r.exhausted() || y.size() != cir_.outputs().size()) return;
  } catch (const CodecError&) {
    return;
  }
  const int c = ready_.add(m.body, m.from);
  if (!c) return;
  // Echo support: the validated body re-encodes to exactly itself (the u64s
  // framing is canonical), so forward the received bytes instead of
  // re-serialising the decoded vector.
  if (c >= ctx_.ts + 1) send_ready_bytes(m.body);
  if (c >= 2 * ctx_.ts + 1) terminate(y);
}

void CirEval::terminate(const std::vector<Fp>& y) {
  if (terminated_) return;
  terminated_ = true;
  output_ = y;
  if (handler_) handler_(y);
  // "Terminate all the sub-protocols": the party stops processing entirely.
  party_.halt();
}

}  // namespace bobw
