#include "src/ba/aba.hpp"

#include "src/common/codec.hpp"

namespace bobw {

namespace {
Bytes enc(int r, bool b) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(r));
  w.u8(b ? 1 : 0);
  return w.take();
}
bool dec(const Bytes& body, int& r, bool& b) {
  try {
    Reader rd(body);
    r = static_cast<int>(rd.u32());
    std::uint8_t v = rd.u8();
    if (v > 1 || !rd.exhausted()) return false;
    b = v != 0;
    return r >= 1 && r < (1 << 20);  // sanity bound on Byzantine round ids
  } catch (const CodecError&) {
    return false;
  }
}
}  // namespace

Aba::Aba(Party& party, std::string id, int t, CoinSource& coin, Handler on_decide)
    : Instance(party, std::move(id)),
      t_(t),
      coin_(coin),
      on_decide_(std::move(on_decide)),
      decided_senders_{PartySet(party.n()), PartySet(party.n())} {}

void Aba::start(bool input) {
  if (started_ || halted_) return;
  started_ = true;
  est_ = input;
  round_ = 1;
  begin_round();
}

void Aba::send_est(int r, bool b) {
  Round& rr = round(r);
  if (rr.est_sent[b ? 1 : 0]) return;
  rr.est_sent[b ? 1 : 0] = true;
  send_all(kEst, enc(r, b));
}

void Aba::begin_round() {
  send_est(round_, est_);
  maybe_send_aux();
  try_advance();
}

void Aba::on_message(const Msg& m) {
  if (halted_ && m.type != kDecided) return;
  int r = 0;
  bool b = false;
  if (!dec(m.body, r, b)) return;
  switch (m.type) {
    case kEst: {
      Round& rr = round(r);
      PartySet& s = rr.est_senders[b ? 1 : 0];
      if (!s.insert(m.from)) return;
      const int c = s.count();
      if (c >= t_ + 1 && started_) send_est(r, b);  // BV relay
      if (c >= 2 * t_ + 1 && !rr.bin[b ? 1 : 0]) {
        rr.bin[b ? 1 : 0] = true;
        if (r == round_) {
          maybe_send_aux();
          try_advance();
        }
      }
      return;
    }
    case kAux: {
      Round& rr = round(r);
      if (rr.aux.insert(m.from) && b) rr.aux_one.insert(m.from);  // first AUX per sender wins
      if (r == round_) try_advance();
      return;
    }
    case kDecided: {
      PartySet& s = decided_senders_[b ? 1 : 0];
      if (!s.insert(m.from)) return;
      const int c = s.count();
      if (c >= t_ + 1 && !decided_sent_) {
        decided_sent_ = true;
        send_all(kDecided, enc(1, b));
      }
      if (c >= 2 * t_ + 1) {
        decide(b);
        halted_ = true;  // quiesce: stop participating in rounds
      }
      return;
    }
    default:
      return;
  }
}

void Aba::maybe_send_aux() {
  if (!started_ || halted_) return;
  Round& rr = round(round_);
  if (rr.aux_sent || (!rr.bin[0] && !rr.bin[1])) return;
  rr.aux_sent = true;
  // w = the first value that entered bin_values (either works; pick 1 if both).
  const bool w = rr.bin[1];
  send_all(kAux, enc(round_, w));
}

void Aba::try_advance() {
  if (!started_ || halted_) return;
  Round& rr = round(round_);
  if (rr.advanced || !rr.aux_sent) return;
  // Count AUX messages whose value already lies in bin_values.
  const int ones = rr.aux_one.count(), zeros = rr.aux.count() - ones;
  const bool seen[2] = {rr.bin[0] && zeros > 0, rr.bin[1] && ones > 0};
  const int support = (rr.bin[0] ? zeros : 0) + (rr.bin[1] ? ones : 0);
  if (support < n() - t_) return;
  rr.advanced = true;
  const bool c = coin_.coin(id(), round_, self());
  if (seen[0] != seen[1]) {  // values = {b}
    const bool b = seen[1];
    est_ = b;
    if (b == c) decide(b);
  } else {
    est_ = c;
  }
  ++round_;
  begin_round();
}

void Aba::decide(bool b) {
  if (decided_) return;
  decided_ = true;
  value_ = b;
  if (!decided_sent_) {
    decided_sent_ = true;
    send_all(kDecided, enc(1, b));
  }
  if (on_decide_) on_decide_(b);
}

}  // namespace bobw
