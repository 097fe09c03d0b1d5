#include "tests/reference/phase_king.hpp"

#include "src/common/codec.hpp"

namespace bobw {

namespace {
Bytes encode_phase_value(int k, const Bytes& v) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(k));
  w.bytes(v);
  return w.take();
}
bool decode_phase_value(const Bytes& body, int& k, Bytes& v) {
  try {
    Reader r(body);
    k = static_cast<int>(r.u32());
    v = r.bytes();
    return r.exhausted();
  } catch (const CodecError&) {
    return false;
  }
}
}  // namespace

PhaseKing::PhaseKing(Party& party, const Addr& addr, int t, Tick start_time,
                     InputProvider input, Handler on_output)
    : Instance(party, addr),
      t_(t),
      start_(start_time),
      input_(std::move(input)),
      on_output_(std::move(on_output)) {
  const Tick d = party_.sim().delta();
  at(start_, [this] {
    v_ = input_ ? input_() : Bytes{};
    send_all(kVote1, encode_phase_value(1, v_));
  });
  for (int k = 1; k <= num_phases(); ++k) {
    const Tick base = start_ + 3 * static_cast<Tick>(k - 1) * d;
    at(base + d, [this, k] { round_a_end(k); });
    at(base + 2 * d, [this, k] { round_b_end(k); });
    at(base + 3 * d, [this, k] { round_c_end(k); });
  }
}

void PhaseKing::on_message(const Msg& m) {
  int k = 0;
  Bytes v;
  if (!decode_phase_value(m.body, k, v)) return;
  if (k < 1 || k > num_phases()) return;
  Phase& ph = phase(k);
  switch (m.type) {
    case kVote1:
      ph.vote1.emplace(m.from, std::move(v));
      return;
    case kVote2:
      ph.vote2.emplace(m.from, std::move(v));
      return;
    case kKing:
      if (m.from == king(k) && !ph.king) ph.king = std::move(v);
      return;
    default:
      return;
  }
}

void PhaseKing::round_a_end(int k) {
  // Proposal: a value with support >= n−t among VOTE1, else ⊥.
  std::map<Bytes, int> count;
  for (const auto& [from, val] : phase(k).vote1) ++count[val];
  Bytes proposal;  // ⊥
  for (const auto& [val, c] : count)
    if (c >= n() - t_ && !val.empty()) {
      proposal = val;
      break;  // at most one value can reach n−t (> n/2 with t < n/3)
    }
  send_all(kVote2, encode_phase_value(k, proposal));
}

void PhaseKing::round_b_end(int k) {
  // Most supported non-⊥ proposal.
  std::map<Bytes, int> count;
  for (const auto& [from, val] : phase(k).vote2)
    if (!val.empty()) ++count[val];
  Bytes best;
  int best_c = 0;
  for (const auto& [val, c] : count)
    if (c > best_c) {
      best = val;
      best_c = c;
    }
  locked_ = best_c >= n() - t_;
  if (best_c >= t_ + 1) {
    v_ = best;
  } else if (!locked_) {
    v_ = Bytes{};  // ⊥ until the king speaks
  }
  if (king(k) == self()) send_all(kKing, encode_phase_value(k, v_));
}

void PhaseKing::round_c_end(int k) {
  // A silent (corrupt) king leaves v unchanged.
  if (!locked_ && phase(k).king) v_ = *phase(k).king;
  locked_ = false;
  if (k == num_phases()) finish();
  // Next phase's VOTE1 goes out now (same tick as this round's end).
  if (k < num_phases()) send_all(kVote1, encode_phase_value(k + 1, v_));
}

void PhaseKing::finish() {
  if (output_) return;
  output_ = v_;
  if (on_output_) on_output_(v_);
}

}  // namespace bobw
