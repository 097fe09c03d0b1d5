#include "src/bcast/bc_bank.hpp"

#include <algorithm>
#include <cassert>

namespace bobw {

// ------------------------------------------------------------ wire format ---

namespace bcwire {

Bytes encode_acast_batch(const std::vector<AcastGroup>& groups) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(groups.size()));
  for (const auto& g : groups) {
    w.u8(g.type);
    w.bytes(g.value);
    w.u32(static_cast<std::uint32_t>(g.slots.size()));
    for (std::uint32_t s : g.slots) w.u32(s);
  }
  return w.take();
}

std::vector<AcastGroup> decode_acast_batch(const Bytes& b) {
  std::vector<AcastGroup> out;
  try {
    Reader r(b);
    const std::uint32_t ngroups = r.u32();
    for (std::uint32_t i = 0; i < ngroups; ++i) {
      AcastGroup g;
      g.type = r.u8();
      g.value = r.bytes();
      const std::uint32_t nslots = r.u32();
      if (nslots > (b.size() / 4) + 1) throw CodecError("oversized slot list");
      g.slots.reserve(nslots);
      for (std::uint32_t s = 0; s < nslots; ++s) g.slots.push_back(r.u32());
      out.push_back(std::move(g));
    }
  } catch (const CodecError&) {
    // Well-formed prefix groups stand; the malformed suffix is dropped.
  }
  return out;
}

Bytes encode_sba(const SbaMsg& m) {
  Writer w;
  w.u32(m.k);
  w.u32(static_cast<std::uint32_t>(m.groups.size()));
  for (const auto& g : m.groups) {
    w.bytes(g.value);
    w.u32(static_cast<std::uint32_t>(g.slots.size()));
    for (std::uint32_t s : g.slots) w.u32(s);
  }
  w.bytes(m.def);
  return w.take();
}

std::optional<SbaMsg> decode_sba(const Bytes& b) {
  try {
    Reader r(b);
    SbaMsg m;
    m.k = r.u32();
    const std::uint32_t ngroups = r.u32();
    for (std::uint32_t i = 0; i < ngroups; ++i) {
      SbaMsg::Group g;
      g.value = r.bytes();
      const std::uint32_t nslots = r.u32();
      if (nslots > (b.size() / 4) + 1) return std::nullopt;
      g.slots.reserve(nslots);
      for (std::uint32_t s = 0; s < nslots; ++s) g.slots.push_back(r.u32());
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

AcastBank::AcastBank(Party& party, std::string id, std::vector<int> senders, int t, Tick delta,
                     Handler on_output)
    : Instance(party, std::move(id)),
      delta_(delta),
      on_output_(std::move(on_output)),
      shared_(AcastShared::get(party, this->id())),
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

SbaBank::SbaBank(Party& party, std::string id, int K, const Ctx& ctx, Tick start_time,
                 InputProvider input)
    : Instance(party, std::move(id)),
      K_(K),
      t_(ctx.ts),
      start_(start_time),
      input_(std::move(input)),
      shared_(SbaShared::get(party, this->id(), K, party.n(), ctx.ts)) {
  phases_.resize(static_cast<std::size_t>(num_phases()));
  const Tick d = party_.sim().delta();
  at(start_, [this] {
    SbaShared::Vids v(static_cast<std::size_t>(K_), 0);
    if (input_)
      for (int s = 0; s < K_; ++s) v[static_cast<std::size_t>(s)] = input_(s);
    // Content-interned: every party with the same inputs (all of them, in a
    // crisp honest round) feeds the SAME pointer into the phase-1 round
    // caches, so round_b's prior-keyed result is computed once, not n times.
    v_ = shared_->canonical_vids(std::move(v));
    send_vector(kVote1, 1, v_);
  });
  for (int k = 1; k <= num_phases(); ++k) {
    const Tick base = start_ + 3 * static_cast<Tick>(k - 1) * d;
    at(base + d, [this, k] { round_a_end(k); });
    at(base + 2 * d, [this, k] { round_b_end(k); });
    at(base + 3 * d, [this, k] { round_c_end(k); });
  }
}

SbaBank::PhaseVotes& SbaBank::phase(int k) {
  PhaseVotes& ph = phases_[static_cast<std::size_t>(k - 1)];
  if (ph.seen1.empty()) {
    const std::size_t words = (static_cast<std::size_t>(n()) + 63) / 64;
    ph.seen1.assign(words, 0);
    ph.seen2.assign(words, 0);
  }
  return ph;
}

bool SbaBank::mark_seen(std::vector<std::uint64_t>& mask, int from) {
  const std::size_t word = static_cast<std::size_t>(from) / 64;
  const std::uint64_t bit = 1ull << (static_cast<std::size_t>(from) % 64);
  if (mask[word] & bit) return false;
  mask[word] |= bit;
  return true;
}

void SbaBank::on_message(const Msg& m) {
  const SbaShared::ExpandedPtr exp = shared_->expand(m.body);
  if (!exp->vids) return;  // malformed: dropped wholesale
  const int k = static_cast<int>(exp->k);
  if (k < 1 || k > num_phases() || k <= done_through_) return;
  PhaseVotes& ph = phase(k);
  switch (m.type) {
    case kVote1:
      if (!mark_seen(ph.seen1, m.from)) return;
      ph.vote1.push_back(exp->vids);
      return;
    case kVote2:
      if (!mark_seen(ph.seen2, m.from)) return;
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
  phases_[static_cast<std::size_t>(k - 1)] = PhaseVotes{};
  done_through_ = k;
  if (k == num_phases()) finished_ = true;
  // Next phase's VOTE1 goes out now (same tick as this round's end).
  if (k < num_phases()) send_vector(kVote1, k + 1, v_);
}

// ----------------------------------------------------------------- BcBank ---

BcBank::BcBank(Party& party, const std::string& id, std::vector<Group> groups, const Ctx& ctx)
    : party_(party), ctx_(ctx) {
  assert(!groups.empty());
  groups_.reserve(groups.size());
  bases_.reserve(groups.size());
  part_slots_.reserve(groups.size());  // at most one schedule per group
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
  // SBA schedules: one per distinct group start, first-appearance order
  // (equal-start groups — a sharing's n child grids — share one schedule).
  std::vector<Tick> part_start;
  part_start.reserve(groups_.size());
  for (GroupState& gs : groups_) {
    int p = -1;
    for (std::size_t i = 0; i < part_start.size(); ++i)
      if (part_start[i] == gs.start) p = static_cast<int>(i);
    if (p < 0) {
      p = static_cast<int>(part_start.size());
      part_start.push_back(gs.start);
      part_slots_.emplace_back();
    }
    gs.sba = p;
    gs.sba_base = part_slots_[static_cast<std::size_t>(p)].size();
    for (std::size_t s = 0; s < gs.senders.size(); ++s)
      part_slots_[static_cast<std::size_t>(p)].push_back(gs.base + s);
  }
  wrap_vids_.resize(part_slots_.size());
  acast_ = std::make_unique<AcastBank>(
      party_, sub_id(id, "acast"), std::move(all_senders), ctx_.ts, ctx_.delta,
      [this](int slot, const Bytes& m) { on_acast(slot, m); });
  const bool multi = part_slots_.size() > 1;
  for (std::size_t p = 0; p < part_slots_.size(); ++p) {
    const std::string sid =
        multi ? sub_id(id, "sba" + std::to_string(p)) : sub_id(id, "sba");
    sbas_.push_back(std::make_unique<SbaBank>(
        party_, sid, static_cast<int>(part_slots_[p].size()), ctx_, part_start[p] + 3 * ctx_.delta,
        [this, p](int ls) -> std::uint32_t {
          // Input for the slot's SBA at local time T0+3Δ: current Acast
          // output or ⊥ — exactly ΠBC's input rule, in vid space.
          const auto global = static_cast<int>(part_slots_[p][static_cast<std::size_t>(ls)]);
          const auto avid = acast_->output_vid(global);
          return avid ? wrap_vid(static_cast<int>(p), *avid) : 0;
        }));
  }
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    party_.at(groups_[g].start + ctx_.T.t_bc, [this, g] {
      for (int s = 0; s < slots(static_cast<int>(g)); ++s)
        decide_regular(static_cast<int>(g), s);
    });
  }
}

namespace {
std::vector<BcBank::Group> single_group(std::vector<int> senders, Tick start,
                                        BcBank::Handler handler) {
  std::vector<BcBank::Group> gs;
  gs.push_back(BcBank::Group{std::move(senders), start, std::move(handler)});
  return gs;
}
}  // namespace

BcBank::BcBank(Party& party, const std::string& id, std::vector<int> senders, const Ctx& ctx,
               Tick start_time, Handler handler)
    : BcBank(party, id, single_group(std::move(senders), start_time, std::move(handler)), ctx) {}

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
  auto& memo = wrap_vids_[static_cast<std::size_t>(part)];
  auto it = memo.find(acast_vid);
  if (it != memo.end()) return it->second;
  const std::uint32_t w =
      sbas_[static_cast<std::size_t>(part)]->intern_input(wrap(acast_->value(acast_vid)));
  memo.emplace(acast_vid, w);
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
  const auto svid =
      sbas_[static_cast<std::size_t>(gs.sba)]->output_vid(static_cast<int>(gs.sba_base + us));
  if (avid && svid && *svid == wrap_vid(gs.sba, *avid)) {
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
