#include "src/ba/aba.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "src/bcast/bc_bank.hpp"

namespace bobw {

// ------------------------------------------------------------ wire format ---

namespace abawire {

namespace {
auto key(const Group& g) { return std::make_tuple(g.type, g.round, g.value); }
}  // namespace

Bytes encode(std::vector<Group> groups) {
  std::stable_sort(groups.begin(), groups.end(),
                   [](const Group& a, const Group& b) { return key(a) < key(b); });
  Writer w;
  for (std::size_t i = 0; i < groups.size();) {
    Group& g = groups[i];
    std::size_t j = i + 1;
    for (; j < groups.size() && key(groups[j]) == key(g); ++j)
      g.slots.insert(g.slots.end(), groups[j].slots.begin(), groups[j].slots.end());
    w.u8(static_cast<std::uint8_t>(g.type << 1 | (g.value ? 1 : 0)));
    w.var(g.round);
    bcwire::put_slot_set(w, g.slots);
    i = j;
  }
  return w.take();
}

std::vector<Group> decode(const Bytes& b, std::uint64_t K) {
  std::vector<Group> out;
  try {
    Reader r(b);
    std::optional<std::tuple<std::uint8_t, std::uint64_t, bool>> prev;
    while (!r.exhausted()) {
      const std::uint8_t tag = r.u8();
      const std::uint64_t round = r.var();
      Group g;
      bcwire::get_slot_set(r, K, g.slots);
      const auto k = std::make_tuple(static_cast<std::uint8_t>(tag >> 1), round, (tag & 1) != 0);
      if (prev && k <= *prev) break;  // out of order or repeated: the rest is dropped
      prev = k;
      if ((tag >> 1) > AbaBank::kAux || round < 1 || round >= kMaxRound) continue;
      g.type = static_cast<std::uint8_t>(tag >> 1);
      g.round = static_cast<std::uint32_t>(round);
      g.value = (tag & 1) != 0;
      out.push_back(std::move(g));
    }
  } catch (const CodecError&) {
    // Well-formed prefix groups stand; the malformed suffix is dropped.
  }
  return out;
}

}  // namespace abawire

// ---------------------------------------------------------------- AbaBank ---

AbaBank& AbaBank::at_tick(Party& party, Tick start_time, const Ctx& ctx) {
  if (AbaBank* found = party.per_tick<AbaBank>(start_time)) {
    if (found->t_ != ctx.ts || &found->coin_ != ctx.coin)
      throw std::logic_error("AbaBank: ΠBAs of one start tick disagree on t or the coin");
    return *found;
  }
  if (start_time > static_cast<Tick>(std::numeric_limits<int>::max()))
    throw std::out_of_range("AbaBank: start tick beyond the route index range");
  RouteTable& routes = party.sim().routes();
  const Addr addr(routes.child(routes.intern("plane"), "at", static_cast<int>(start_time)), "aba");
  return party.keep_per_tick(
      start_time, std::make_shared<AbaBank>(party, addr, ctx.ts, *ctx.coin, start_time));
}

AbaBank::AbaBank(Party& party, const Addr& addr, int t, CoinSource& coin, Tick start_time)
    : Instance(party, addr), t_(t), coin_(coin) {
  at(start_time, [this] { lay_out(); });
}

int AbaBank::enroll(RouteId key, std::uint64_t coin_key, Handler on_decide) {
  if (laid_out_) throw std::logic_error("AbaBank: enrollment after the start tick");
  slots_.emplace_back(key, coin_key, std::move(on_decide), n());
  return static_cast<int>(slots_.size()) - 1;
}

void AbaBank::lay_out() {
  // Key order, not enrollment order: the layout is the same on every party.
  seat_of_.resize(slots_.size());
  for (std::uint32_t s = 0; s < seat_of_.size(); ++s) seat_of_[s] = s;
  std::sort(seat_of_.begin(), seat_of_.end(),
            [this](std::uint32_t a, std::uint32_t b) { return slots_[a].key < slots_[b].key; });
  for (std::uint32_t p = 0; p < seat_of_.size(); ++p) slots_[seat_of_[p]].pos = p;
  laid_out_ = true;
  for (std::uint32_t seat : seat_of_)
    if (slots_[seat].started) begin_round(slots_[seat]);
}

void AbaBank::start(int seat, bool input) {
  Slot& s = slots_[static_cast<std::size_t>(seat)];
  if (s.started || s.halted) return;
  s.started = true;
  s.est = input;
  s.round = 1;
  if (laid_out_) begin_round(s);
}

void AbaBank::on_message(const Msg& m) {
  if (!laid_out_ || m.type != kBatch) return;  // before the start tick: dropped
  for (const abawire::Group& g : abawire::decode(m.body, slots_.size()))
    for (std::uint32_t p : g.slots)
      on_vote(slots_[seat_of_[p]], static_cast<Vote>(g.type), static_cast<int>(g.round), g.value,
              m.from);
}

void AbaBank::on_vote(Slot& s, Vote type, int r, bool b, int from) {
  if (s.halted && type != kDecided) return;
  switch (type) {
    case kEst: {
      Round& rr = round(s, r);
      PartySet& senders = rr.est_senders[b ? 1 : 0];
      if (!senders.insert(from)) return;
      const int c = senders.count();
      if (c >= t_ + 1 && s.started) send_est(s, r, b);  // BV relay
      if (c >= 2 * t_ + 1 && !rr.bin[b ? 1 : 0]) {
        rr.bin[b ? 1 : 0] = true;
        if (r == s.round) {
          maybe_send_aux(s);
          try_advance(s);
        }
      }
      return;
    }
    case kAux: {
      Round& rr = round(s, r);
      if (rr.aux.insert(from) && b) rr.aux_one.insert(from);  // first AUX per sender wins
      if (r == s.round) try_advance(s);
      return;
    }
    case kDecided: {
      PartySet& senders = s.decided_senders[b ? 1 : 0];
      if (!senders.insert(from)) return;
      const int c = senders.count();
      if (c >= t_ + 1 && !s.decided_sent) {
        s.decided_sent = true;
        queue(kDecided, 1, b, s);
      }
      if (c >= 2 * t_ + 1) {
        decide(s, b);
        s.halted = true;  // quiesce: stop participating in rounds
        s.rounds.clear();  // a halted slot never reads its rounds again
      }
      return;
    }
  }
}

void AbaBank::send_est(Slot& s, int r, bool b) {
  Round& rr = round(s, r);
  if (rr.est_sent[b ? 1 : 0]) return;
  rr.est_sent[b ? 1 : 0] = true;
  queue(kEst, r, b, s);
}

void AbaBank::begin_round(Slot& s) {
  send_est(s, s.round, s.est);
  maybe_send_aux(s);
  try_advance(s);
}

void AbaBank::maybe_send_aux(Slot& s) {
  if (!s.started || s.halted) return;
  Round& rr = round(s, s.round);
  if (rr.aux_sent || (!rr.bin[0] && !rr.bin[1])) return;
  rr.aux_sent = true;
  // w = the first value that entered bin_values (either works; pick 1 if both).
  queue(kAux, s.round, rr.bin[1], s);
}

void AbaBank::try_advance(Slot& s) {
  if (!s.started || s.halted) return;
  Round& rr = round(s, s.round);
  if (rr.advanced || !rr.aux_sent) return;
  // Count AUX messages whose value already lies in bin_values.
  const int ones = rr.aux_one.count(), zeros = rr.aux.count() - ones;
  const bool seen[2] = {rr.bin[0] && zeros > 0, rr.bin[1] && ones > 0};
  const int support = (rr.bin[0] ? zeros : 0) + (rr.bin[1] ? ones : 0);
  if (support < n() - t_) return;
  rr.advanced = true;
  const bool c = coin_.coin(s.coin_key, s.round, self());
  if (seen[0] != seen[1]) {  // values = {b}
    const bool b = seen[1];
    s.est = b;
    if (b == c) decide(s, b);
  } else {
    s.est = c;
  }
  ++s.round;
  begin_round(s);
}

void AbaBank::decide(Slot& s, bool b) {
  if (s.decided) return;
  s.decided = true;
  s.value = b;
  if (!s.decided_sent) {
    s.decided_sent = true;
    queue(kDecided, 1, b, s);
  }
  if (s.on_decide) s.on_decide(b);
}

void AbaBank::queue(Vote type, int r, bool b, const Slot& s) {
  outbox_.push_back(Send{type, r, b, s.pos});
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  at(now(), [this] { flush(); });
}

void AbaBank::flush() {
  flush_scheduled_ = false;
  std::vector<abawire::Group> groups;  // one per send; encode() merges equal keys
  groups.reserve(outbox_.size());
  for (const Send& s : outbox_)
    groups.push_back(abawire::Group{s.type, static_cast<std::uint32_t>(s.round), s.value, {s.pos}});
  outbox_.clear();
  send_all(kBatch, abawire::encode(std::move(groups)));
}

}  // namespace bobw
