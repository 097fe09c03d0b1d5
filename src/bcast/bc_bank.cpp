#include "src/bcast/bc_bank.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

namespace bobw {

// ------------------------------------------------------------ wire format ---

namespace bcwire {

namespace {

enum SetTag : std::uint8_t { kRuns = 0, kBitmap = 1 };

/// Saturates at 2^64 − 1: a Byzantine gap or run length must not wrap an
/// id back into [0, K).
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > ~std::uint64_t{0} - b ? ~std::uint64_t{0} : a + b;
}

/// The canonical code of a strictly ascending set: the shorter form (runs
/// on a tie), its byte length and, for the run form, the run count.
struct SetCode {
  bool bitmap = false;
  std::size_t bytes = 0;
  std::uint64_t runs = 0;
};

/// The code of `s` when it is strictly ascending; nullopt when it is not.
std::optional<SetCode> measure(const std::vector<std::uint32_t>& s) {
  SetCode c;
  std::size_t run_bytes = 0;
  std::uint64_t next = 0;  // one past the previous run
  for (std::size_t i = 0; i < s.size();) {
    std::size_t j = i + 1;
    while (j < s.size() && s[j] == std::uint64_t{s[j - 1]} + 1) ++j;
    if (j < s.size() && s[j] <= s[j - 1]) return std::nullopt;
    run_bytes += Writer::var_size(s[i] - next) + Writer::var_size(j - i - 1);
    next = std::uint64_t{s[j - 1]} + 1;
    ++c.runs;
    i = j;
  }
  c.bytes = 1 + Writer::var_size(c.runs) + run_bytes;
  if (!s.empty()) {
    const std::uint64_t span = std::uint64_t{s.back()} - s.front() + 1;
    const std::size_t bitmap_bytes =
        1 + Writer::var_size(s.front()) + Writer::var_size(span) + (span + 7) / 8;
    if (bitmap_bytes < c.bytes) {
      c.bitmap = true;
      c.bytes = bitmap_bytes;
    }
  }
  return c;
}

/// Sorts `slots` ascending and drops repeats — only when it is not already
/// strictly ascending (every honest encoder's case) — and returns its code.
SetCode normalize(std::vector<std::uint32_t>& slots) {
  if (auto c = measure(slots)) return *c;
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  return *measure(slots);
}

void write(Writer& w, const std::vector<std::uint32_t>& s, const SetCode& c) {
  if (!c.bitmap) {
    w.u8(kRuns);
    w.var(c.runs);
    std::uint64_t next = 0;
    for (std::size_t i = 0; i < s.size();) {
      std::size_t j = i + 1;
      while (j < s.size() && s[j] == std::uint64_t{s[j - 1]} + 1) ++j;
      w.var(s[i] - next);
      w.var(j - i - 1);
      next = std::uint64_t{s[j - 1]} + 1;
      i = j;
    }
    return;
  }
  const std::uint32_t lo = s.front();
  const std::uint64_t span = std::uint64_t{s.back()} - lo + 1;
  w.u8(kBitmap);
  w.var(lo);
  w.var(span);
  // Bit i of byte b stands for lo + 8b + i; one pass over the set.
  std::size_t i = 0;
  for (std::uint64_t byte = 0; byte < (span + 7) / 8; ++byte) {
    std::uint8_t bits = 0;
    for (; i < s.size() && (s[i] - lo) / 8 == byte; ++i)
      bits = static_cast<std::uint8_t>(bits | (1u << ((s[i] - lo) % 8)));
    w.u8(bits);
  }
}

/// Appends the ids of a bitmap over [lo, lo + span) that fall below K.
void read_bitmap(const std::uint8_t* bits, std::uint64_t nbytes, std::uint64_t lo,
                 std::uint64_t span, std::uint64_t K, std::vector<std::uint32_t>& out) {
  if (lo >= K) return;
  const std::uint64_t width = std::min(span, K - lo);  // offsets [0, width) can be ids
  for (std::uint64_t at = 0; at < width; at += 64) {
    std::uint64_t word = 0;  // little-endian: bit j of byte b is bit 8b + j
    const std::uint64_t take = std::min<std::uint64_t>(8, nbytes - at / 8);
    std::memcpy(&word, bits + at / 8, static_cast<std::size_t>(take));
    while (word) {
      const std::uint64_t off = at + static_cast<std::uint64_t>(std::countr_zero(word));
      if (off >= width) return;
      out.push_back(static_cast<std::uint32_t>(lo + off));
      word &= word - 1;
    }
  }
}

}  // namespace

std::size_t slot_set_size(std::vector<std::uint32_t>& slots) { return normalize(slots).bytes; }

void put_slot_set(Writer& w, std::vector<std::uint32_t>& slots) {
  write(w, slots, normalize(slots));
}

void get_slot_set(Reader& r, std::uint64_t K, std::vector<std::uint32_t>& out) {
  const std::uint8_t tag = r.u8();
  if (tag == kRuns) {
    const std::uint64_t runs = r.var();
    std::uint64_t next = 0;
    // Every run costs at least two bytes, so a forged count runs out of
    // payload instead of looping.
    for (std::uint64_t i = 0; i < runs; ++i) {
      const std::uint64_t start = sat_add(next, r.var());
      next = sat_add(start, sat_add(r.var(), 1));
      if (start >= std::min(next, K)) continue;
      const std::size_t at = out.size();
      out.resize(at + static_cast<std::size_t>(std::min(next, K) - start));
      std::iota(out.begin() + static_cast<std::ptrdiff_t>(at), out.end(),
                static_cast<std::uint32_t>(start));
    }
  } else if (tag == kBitmap) {
    const std::uint64_t lo = r.var();
    const std::uint64_t span = r.var();
    const std::uint64_t nbytes = span / 8 + (span % 8 != 0);
    if (nbytes > std::numeric_limits<std::size_t>::max()) throw CodecError("oversized bitmap");
    const std::uint8_t* bits = r.view(static_cast<std::size_t>(nbytes));
    read_bitmap(bits, nbytes, lo, span, K, out);
  } else {
    throw CodecError("unknown slot-set tag");
  }
}

Bytes encode_acast_batch(std::vector<AcastGroup> groups) {
  // One sizing pass, then one write pass into an exactly sized buffer.
  std::size_t size = 4;
  for (auto& g : groups) size += 1 + 4 + g.value.size() + slot_set_size(g.slots);
  Writer w(size);
  w.u32(static_cast<std::uint32_t>(groups.size()));
  for (const auto& g : groups) {
    w.u8(g.type);
    w.bytes(g.value);
    write(w, g.slots, *measure(g.slots));  // normalized by the sizing pass
  }
  return w.take();
}

std::vector<AcastGroup> decode_acast_batch(const Bytes& b, std::uint64_t K) {
  std::vector<AcastGroup> out;
  try {
    Reader r(b);
    const std::uint32_t ngroups = r.u32();
    std::uint64_t budget = 3 * K;  // each slot once per INIT/ECHO/READY
    for (std::uint32_t i = 0; i < ngroups; ++i) {
      AcastGroup g;
      g.type = r.u8();
      g.value = r.bytes();
      get_slot_set(r, K, g.slots);
      if (g.slots.size() > budget) throw CodecError("batch names more than 3K slots");
      budget -= g.slots.size();
      out.push_back(std::move(g));
    }
  } catch (const CodecError&) {
    // Well-formed prefix groups stand; the malformed suffix is dropped.
  }
  return out;
}

Bytes encode_sba(SbaMsg m) {
  std::size_t size = 4 + 4 + 4 + m.def.size();
  for (auto& g : m.groups) size += 4 + g.value.size() + slot_set_size(g.slots);
  Writer w(size);
  w.u32(m.k);
  w.u32(static_cast<std::uint32_t>(m.groups.size()));
  for (const auto& g : m.groups) {
    w.bytes(g.value);
    write(w, g.slots, *measure(g.slots));  // normalized by the sizing pass
  }
  w.bytes(m.def);
  return w.take();
}

std::optional<SbaMsg> decode_sba(const Bytes& b, std::uint64_t K) {
  try {
    Reader r(b);
    SbaMsg m;
    m.k = r.u32();
    const std::uint32_t ngroups = r.u32();
    std::uint64_t budget = K;  // an honest vector names each slot at most once
    for (std::uint32_t i = 0; i < ngroups; ++i) {
      SbaMsg::Group g;
      g.value = r.bytes();
      get_slot_set(r, K, g.slots);
      if (g.slots.size() > budget) return std::nullopt;
      budget -= g.slots.size();
      m.groups.push_back(std::move(g));
    }
    m.def = r.bytes();
    if (!r.exhausted()) return std::nullopt;
    return m;
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

}  // namespace bcwire

namespace {

/// SBA input encoding shared with the per-pair path: ⊥ -> empty, value m ->
/// 0x01 || m (so an empty Acast payload cannot masquerade as ⊥).
Bytes wrap(const Bytes& m) {
  Bytes b;
  b.reserve(m.size() + 1);
  b.push_back(0x01);
  b.insert(b.end(), m.begin(), m.end());
  return b;
}

}  // namespace

// -------------------------------------------------------------- AcastBank ---

AcastBank::AcastBank(Party& party, const Addr& addr, std::vector<int> senders, int t, Tick delta,
                     Handler on_output)
    : Instance(party, addr),
      delta_(delta),
      on_output_(std::move(on_output)),
      shared_(AcastShared::get(party, route())),
      outputs_(senders.size(), AcastShared::kNoVid) {
  shared_->configure(std::move(senders), t, party.n());
  shared_->join(cursor_);
}

void AcastBank::start(int slot, const Bytes& m) {
  own_.push_back(AcastShared::Send{kInit, shared_->intern(m), static_cast<std::uint32_t>(slot)});
  schedule_flush();
}

void AcastBank::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  at(next_multiple(now(), delta_), [this] { flush(); });
}

void AcastBank::flush() {
  flush_scheduled_ = false;
  auto p = shared_->flush_batch(cursor_, own_);
  own_.clear();
  if (p) send_all(kBatch, std::move(*p));
}

void AcastBank::on_message(const Msg& m) {
  if (m.type != kBatch) return;
  const AcastShared::BatchPtr batch = shared_->decode(m.body);
  const AcastShared::StepResult res = shared_->step(cursor_, m.from, batch);
  if (res.queued_sends) schedule_flush();
  // With no flush pending the cursor has nothing to re-read from the log;
  // telling the cohort keeps its prune floor moving.
  if (!flush_scheduled_) shared_->mark_flushed(cursor_);
  for (const AcastShared::SlotOutput& o : res.outputs) {
    outputs_[o.slot] = o.vid;
    if (on_output_) on_output_(static_cast<int>(o.slot), shared_->value(o.vid));
  }
}

// ---------------------------------------------------------------- SbaBank ---

SbaBank& SbaBank::at_tick(Party& party, Tick start_time, const Ctx& ctx) {
  if (SbaBank* found = party.per_tick<SbaBank>(start_time)) {
    if (found->t_ != ctx.ts) throw std::logic_error("SbaBank: banks disagree on t");
    return *found;
  }
  if (start_time > static_cast<Tick>(std::numeric_limits<int>::max()))
    throw std::out_of_range("SbaBank: start tick beyond the route index range");
  const Addr addr(party.sim().routes().intern("plane"), "sba", static_cast<int>(start_time));
  return party.keep_per_tick(start_time, std::make_shared<SbaBank>(party, addr, ctx, start_time));
}

SbaBank::SbaBank(Party& party, const Addr& addr, const Ctx& ctx, Tick start_time)
    : Instance(party, addr),
      t_(ctx.ts),
      phases_(static_cast<std::size_t>(num_phases()), PhaseVotes(party.n())) {
  const Tick d = party_.sim().delta();
  at(start_time, [this] { begin(); });
  for (int k = 1; k <= num_phases(); ++k) {
    const Tick base = start_time + 3 * static_cast<Tick>(k - 1) * d;
    at(base + d, [this, k] { round_a_end(k); });
    at(base + 2 * d, [this, k] { round_b_end(k); });
    at(base + 3 * d, [this, k] { round_c_end(k); });
  }
}

int SbaBank::enroll(RouteId key, int slots, InputProvider input) {
  if (shared_) throw std::logic_error("SbaBank: enrollment after the start tick");
  seats_.push_back(Seat{key, slots, std::move(input), 0});
  return static_cast<int>(seats_.size()) - 1;
}

void SbaBank::begin() {
  // Key order, not enrollment order: the layout is the same on every party.
  std::vector<Seat*> order;
  order.reserve(seats_.size());
  for (Seat& seat : seats_) order.push_back(&seat);
  std::sort(order.begin(), order.end(),
            [](const Seat* a, const Seat* b) { return a->key < b->key; });
  int K = 0;
  for (Seat* seat : order) {
    seat->offset = K;
    K += seat->slots;
  }
  shared_ = SbaShared::get(party_, route(), K, n(), t_);
  SbaShared::Vids v(static_cast<std::size_t>(K), 0);
  for (const Seat& seat : seats_)
    if (seat.input)
      for (int s = 0; s < seat.slots; ++s)
        v[static_cast<std::size_t>(seat.offset + s)] = seat.input(s);
  // Content-interned: every party with the same inputs (all of them, in a
  // crisp honest round) feeds the SAME pointer into the phase-1 round
  // caches, so round_b's prior-keyed result is computed once, not n times.
  v_ = shared_->canonical_vids(std::move(v));
  send_vector(kVote1, 1, v_);
}

void SbaBank::on_message(const Msg& m) {
  if (!shared_) return;  // before the start tick: dropped (see the header)
  const SbaShared::ExpandedPtr exp = shared_->expand(m.body);
  if (!exp->vids) return;  // malformed: dropped wholesale
  const int k = static_cast<int>(exp->k);
  if (k < 1 || k > num_phases() || k <= done_through_) return;
  PhaseVotes& ph = phase(k);
  switch (m.type) {
    case kVote1:
      if (!ph.seen1.insert(m.from)) return;
      ph.vote1.push_back(exp->vids);
      return;
    case kVote2:
      if (!ph.seen2.insert(m.from)) return;
      ph.vote2.push_back(exp->vids);
      return;
    case kKing:
      if (m.from == king(k) && !ph.king) ph.king = exp->vids;
      return;
    default:
      return;
  }
}

void SbaBank::send_vector(int type, int k, const SbaShared::VidsPtr& vids) {
  send_all(type, shared_->encode(static_cast<std::uint32_t>(k), vids));
}

void SbaBank::round_a_end(int k) {
  send_vector(kVote2, k, shared_->round_a(phase(k).vote1));
}

void SbaBank::round_b_end(int k) {
  const auto res = shared_->round_b(v_, phase(k).vote2);
  v_ = res->v;
  locked_ = res->locked;
  if (king(k) == self()) send_vector(kKing, k, v_);
}

void SbaBank::round_c_end(int k) {
  v_ = shared_->round_c(v_, locked_, phase(k).king);
  // Completed phases never tally late votes; release their vote storage.
  phases_[static_cast<std::size_t>(k - 1)] = PhaseVotes(n());
  done_through_ = k;
  if (k == num_phases()) finished_ = true;
  // Next phase's VOTE1 goes out now (same tick as this round's end).
  if (k < num_phases()) send_vector(kVote1, k + 1, v_);
}

// ----------------------------------------------------------------- BcBank ---

BcBank::BcBank(Party& party, const Addr& addr, std::vector<Group> groups, const Ctx& ctx)
    : party_(party), ctx_(ctx) {
  const RouteId route = party_.sim().routes().resolve(addr);
  assert(!groups.empty());
  groups_.reserve(groups.size());
  bases_.reserve(groups.size());
  std::size_t base = 0;
  for (Group& g : groups) {
    GroupState gs;
    gs.senders = std::move(g.senders);
    gs.start = g.start;
    gs.handler = std::move(g.handler);
    gs.base = base;
    base += gs.senders.size();
    gs.regular_done.assign(gs.senders.size(), 0);
    gs.regular.assign(gs.senders.size(), AcastShared::kNoVid);
    gs.current.assign(gs.senders.size(), AcastShared::kNoVid);
    groups_.push_back(std::move(gs));
  }
  std::vector<int> all_senders;
  all_senders.reserve(base);
  for (const GroupState& gs : groups_) {
    bases_.push_back(gs.base);
    all_senders.insert(all_senders.end(), gs.senders.begin(), gs.senders.end());
  }
  // One part per distinct group start, first-appearance order (equal-start
  // groups — a sharing's n child grids — share one seat).
  for (GroupState& gs : groups_) {
    auto it = std::find_if(parts_.begin(), parts_.end(),
                           [&gs](const Part& p) { return p.start == gs.start; });
    if (it == parts_.end()) it = parts_.insert(parts_.end(), Part{gs.start, nullptr, 0, {}, {}});
    gs.part = static_cast<int>(it - parts_.begin());
    gs.part_base = it->slots.size();
    for (std::size_t s = 0; s < gs.senders.size(); ++s) it->slots.push_back(gs.base + s);
  }
  acast_ = std::make_unique<AcastBank>(
      party_, Addr(route, "acast"), std::move(all_senders), ctx_.ts, ctx_.delta,
      [this](int slot, const Bytes& m) { on_acast(slot, m); });
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    Part& part = parts_[p];
    part.sba = &SbaBank::at_tick(party_, part.start + 3 * ctx_.delta, ctx_);
    part.seat = part.sba->enroll(
        route, static_cast<int>(part.slots.size()), [this, p](int ls) -> std::uint32_t {
          // Input for the slot's SBA at local time T0+3Δ: current Acast
          // output or ⊥ — exactly ΠBC's input rule, in vid space.
          const auto global = static_cast<int>(parts_[p].slots[static_cast<std::size_t>(ls)]);
          const auto avid = acast_->output_vid(global);
          return avid ? wrap_vid(static_cast<int>(p), *avid) : 0;
        });
  }
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    party_.at(groups_[g].start + ctx_.T.t_bc, [this, g] {
      for (int s = 0; s < slots(static_cast<int>(g)); ++s)
        decide_regular(static_cast<int>(g), s);
    });
  }
}

BcBank::BcBank(Party& party, const Addr& addr, std::vector<int> senders, const Ctx& ctx,
               Tick start_time, Handler handler)
    : BcBank(party, addr, {Group{std::move(senders), start_time, std::move(handler)}}, ctx) {}

void BcBank::broadcast(int group, int slot, const Bytes& m) {
  acast_->start(
      static_cast<int>(groups_[static_cast<std::size_t>(group)].base +
                       static_cast<std::size_t>(slot)),
      m);
}

int BcBank::group_of(std::size_t global_slot) const {
  return static_cast<int>(std::upper_bound(bases_.begin(), bases_.end(), global_slot) -
                          bases_.begin()) -
         1;
}

std::uint32_t BcBank::wrap_vid(int part, std::uint32_t acast_vid) {
  Part& p = parts_[static_cast<std::size_t>(part)];
  auto it = p.wrap_vids.find(acast_vid);
  if (it != p.wrap_vids.end()) return it->second;
  const std::uint32_t w = p.sba->intern_input(wrap(acast_->value(acast_vid)));
  p.wrap_vids.emplace(acast_vid, w);
  return w;
}

std::optional<Bytes> BcBank::materialize(std::uint32_t vid) const {
  return vid == AcastShared::kNoVid ? std::nullopt : std::optional<Bytes>(acast_->value(vid));
}

void BcBank::decide_regular(int group, int slot) {
  GroupState& gs = groups_[static_cast<std::size_t>(group)];
  const auto us = static_cast<std::size_t>(slot);
  gs.regular_done[us] = 1;
  const auto global = static_cast<int>(gs.base + us);
  const auto avid = acast_->output_vid(global);
  const Part& part = parts_[static_cast<std::size_t>(gs.part)];
  const auto svid = part.sba->output_vid(part.seat, static_cast<int>(gs.part_base + us));
  if (avid && svid && *svid == wrap_vid(gs.part, *avid)) {
    gs.regular[us] = *avid;
    gs.current[us] = *avid;
  }
  if (gs.handler) gs.handler(slot, materialize(gs.regular[us]), /*fallback=*/false);
  // Immediate fallback: Acast already delivered but the SBA disagreed.
  if (gs.regular[us] == AcastShared::kNoVid && avid) on_acast(global, acast_->value(*avid));
}

void BcBank::on_acast(int global_slot, const Bytes& m) {
  const int g = group_of(static_cast<std::size_t>(global_slot));
  GroupState& gs = groups_[static_cast<std::size_t>(g)];
  const std::size_t us = static_cast<std::size_t>(global_slot) - gs.base;
  // Fallback only after a ⊥ regular output, and only once.
  if (!gs.regular_done[us] || gs.regular[us] != AcastShared::kNoVid) return;
  if (gs.current[us] != AcastShared::kNoVid) return;
  const auto avid = acast_->output_vid(global_slot);
  if (!avid) return;  // handler context: the Acast accepted, so this is set
  gs.current[us] = *avid;
  if (gs.handler) gs.handler(static_cast<int>(us), std::optional<Bytes>(m), /*fallback=*/true);
}

}  // namespace bobw
