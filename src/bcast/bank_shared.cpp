#include "src/bcast/bank_shared.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>

#include "src/bcast/bc_bank.hpp"
#include "src/common/digest.hpp"
#include "src/common/party_set.hpp"

namespace bobw {

namespace {

std::uint64_t vids_digest(const std::vector<std::uint32_t>& v) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint32_t x : v) {
    h ^= x;
    h *= 1099511628211ull;
  }
  return h;
}

struct Tally {
  std::uint32_t vid = 0;
  int count = 0;
};

/// Slot s's distinct values and their support over `votes`, into `t`
/// (cleared first). Both round rules break ties by value, so the entry
/// order does not matter.
void tally_slot(std::vector<Tally>& t, const std::vector<SbaShared::VidsPtr>& votes, int s) {
  t.clear();
  for (const auto& vote : votes) {
    const std::uint32_t vid = (*vote)[static_cast<std::size_t>(s)];
    auto it = std::find_if(t.begin(), t.end(), [vid](const Tally& e) { return e.vid == vid; });
    if (it != t.end())
      ++it->count;
    else
      t.push_back(Tally{vid, 1});
  }
}

}  // namespace

// ---------------------------------------------------------------- BankCache ---

std::uint32_t BankCache::intern_locked(const Bytes& value) {
  auto& bucket = vids_by_digest_[body_digest(value)];
  for (std::uint32_t vid : bucket)
    if (values_[vid] == value) return vid;
  const auto vid = static_cast<std::uint32_t>(values_.size());
  values_.push_back(value);
  bucket.push_back(vid);
  return vid;
}

std::uint32_t BankCache::intern(const Bytes& value) {
  std::lock_guard<std::mutex> lock(mu_);
  return intern_locked(value);
}

const Bytes& BankCache::value(std::uint32_t vid) const {
  // The lock covers the deque's index lookup, which a concurrent append may
  // reallocate; the element it returns never moves.
  std::lock_guard<std::mutex> lock(mu_);
  return values_[vid];
}

Payload BankCache::canonical_locked(Bytes&& encoded) {
  auto& bucket = canon_[body_digest(encoded)];
  for (const Payload& p : bucket)
    if (p == encoded) return p;
  Payload p(std::move(encoded));
  bucket.push_back(p);
  return p;
}

Payload BankCache::canonical(Bytes&& encoded) {
  std::lock_guard<std::mutex> lock(mu_);
  return canonical_locked(std::move(encoded));
}

// -------------------------------------------------------------- AcastShared ---

std::shared_ptr<AcastShared> AcastShared::get(Party& party, RouteId route) {
  return shared<AcastShared>(party, route);
}

AcastShared::BatchPtr AcastShared::decode(const Payload& body) {
  return decode_cached(batches_, body, [this](const Bytes& buf) {
    auto batch = std::make_shared<Batch>();
    for (auto& g : bcwire::decode_acast_batch(buf)) {
      if (g.type > AcastBank::kReady) continue;  // Byzantine sub-type: receivers skip it
      batch->push_back(Group{g.type, intern_locked(g.value), std::move(g.slots)});
    }
    return batch;
  });
}

// ------------------------------------------------- AcastShared::Cohort ------

namespace {
constexpr std::uint64_t kNoFloor = ~std::uint64_t{0};
/// Fold entries into the base state once the log grows past this many; keeps
/// the replay window (and the branch-rebuild cost) bounded.
constexpr std::size_t kPruneThreshold = 1024;
}  // namespace

class AcastShared::Cohort {
 public:
  /// Per-slot, per-value distinct-sender tally.
  struct VoteSet {
    std::uint32_t vid = 0;
    PartySet mask;
  };
  struct SlotState {
    bool echoed = false, readied = false;
    std::uint32_t output = kNoVid;
    std::vector<VoteSet> echoes, readies;
  };
  struct Effects {
    std::vector<Send> sends;
    std::vector<SlotOutput> outputs;
  };
  struct Entry {
    int from = -1;
    BatchPtr batch;  // byte-canonical (decode()), so identity is the match key
    Effects fx;
  };

  Cohort(std::shared_ptr<const std::vector<int>> senders_in, int t_in, int n_in)
      : senders(std::move(senders_in)),
        t(t_in),
        n(n_in),
        tip(senders->size()),
        base(senders->size()) {}

  Entry& entry(std::uint64_t abs) { return log[static_cast<std::size_t>(abs - base_index)]; }
  std::uint64_t end() const { return base_index + log.size(); }

  int alloc_member(std::uint64_t floor) {
    if (!free_slots.empty()) {
      const int m = free_slots.back();
      free_slots.pop_back();
      floors[static_cast<std::size_t>(m)] = floor;
      return m;
    }
    floors.push_back(floor);
    return static_cast<int>(floors.size()) - 1;
  }

  /// Adds `from` to the tally of `vid`; returns the new count, or 0 if
  /// `from` was already recorded for that value.
  static int add_vote(std::vector<VoteSet>& sets, std::uint32_t vid, int from, int n) {
    for (VoteSet& v : sets)
      if (v.vid == vid) return v.mask.insert(from) ? v.mask.count() : 0;
    sets.push_back(VoteSet{vid, PartySet(n)});
    sets.back().mask.insert(from);
    return 1;
  }

  /// One receiver transition: exactly the per-receiver Bracha rules of the
  /// pre-cohort AcastBank::on_message, applied to `st`. With `fx` set the
  /// generated sends/accepts are recorded (tip compute); with `fx` null the
  /// state is advanced silently (base fold / branch rebuild).
  void apply(std::vector<SlotState>& st, int from, const Batch& batch, Effects* fx) const {
    const auto K = static_cast<std::uint32_t>(st.size());
    for (const auto& g : batch) {
      for (std::uint32_t us : g.slots) {
        if (us >= K) continue;
        SlotState& slot = st[us];
        switch (g.type) {
          case AcastBank::kInit: {
            if (from != (*senders)[us] || slot.echoed) break;
            slot.echoed = true;
            if (fx) fx->sends.push_back(Send{AcastBank::kEcho, g.vid, us});
            break;
          }
          case AcastBank::kEcho: {
            // Past readied the echo tally is never read again — skip the vote.
            if (slot.readied) break;
            const int c = add_vote(slot.echoes, g.vid, from, n);
            if (!c) break;
            // ⌈(n+t+1)/2⌉ echoes for the same value.
            if (c >= (n + t + 2) / 2) {
              slot.readied = true;
              if (fx) fx->sends.push_back(Send{AcastBank::kReady, g.vid, us});
            }
            break;
          }
          case AcastBank::kReady: {
            // Past acceptance the ready tally is never read again.
            if (slot.output != kNoVid) break;
            const int c = add_vote(slot.readies, g.vid, from, n);
            if (!c) break;
            if (c >= t + 1 && !slot.readied) {
              slot.readied = true;
              if (fx) fx->sends.push_back(Send{AcastBank::kReady, g.vid, us});
            }
            if (c >= 2 * t + 1) {
              slot.output = g.vid;
              if (fx) fx->outputs.push_back(SlotOutput{us, g.vid});
            }
            break;
          }
          default:
            break;
        }
      }
    }
  }

  const std::shared_ptr<const std::vector<int>> senders;  // per-slot accepted sender
  const int t, n;

  std::mutex mu;
  std::vector<SlotState> tip;   // state after all of `log`
  std::vector<SlotState> base;  // state before log.front()
  std::uint64_t base_index = 0;
  std::deque<Entry> log;
  /// Per member: its cursor's flush point (kNoFloor = slot free). Pruning
  /// never passes the minimum, so flush_batch/branch can always re-read
  /// their unflushed range.
  std::vector<std::uint64_t> floors;
  std::vector<int> free_slots;
  /// Flush memo: encoded batch per log range — every member flushing the
  /// same window sends the SAME Payload object.
  std::map<std::pair<std::uint64_t, std::uint64_t>, Payload> ranges;
};

AcastShared::~AcastShared() = default;

void AcastShared::configure(std::vector<int> senders, int t, int n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (root_) {
    assert(root_->senders->size() == senders.size() && root_->t == t && root_->n == n);
    return;
  }
  root_ = std::make_shared<Cohort>(
      std::make_shared<const std::vector<int>>(std::move(senders)), t, n);
}

void AcastShared::join(Cursor& c) {
  std::shared_ptr<Cohort> root;
  {
    std::lock_guard<std::mutex> lock(mu_);
    root = root_;
  }
  assert(root && "configure() must precede join()");
  // Lock order is always cohort.mu -> mu_ (flush needs the value table), so
  // the root pointer is copied out before taking the cohort lock.
  std::lock_guard<std::mutex> lock(root->mu);
  c.cohort = root;
  c.index = c.flushed = 0;
  c.member = root->alloc_member(0);
}

void AcastShared::branch(Cursor& c, Cohort& old) {
  // Unflushed sends in the old log still belong to this party's next wire
  // batch; carry them in the cursor.
  for (std::uint64_t i = c.flushed; i < c.index; ++i)
    for (const Send& s : old.entry(i).fx.sends) c.pending.push_back(s);
  auto nc = std::make_shared<Cohort>(old.senders, old.t, old.n);
  nc->tip = old.base;
  for (std::uint64_t i = old.base_index; i < c.index; ++i) {
    Cohort::Entry& e = old.entry(i);
    nc->apply(nc->tip, e.from, *e.batch, nullptr);
  }
  nc->base = nc->tip;
  old.floors[static_cast<std::size_t>(c.member)] = kNoFloor;
  old.free_slots.push_back(c.member);
  c.cohort = std::move(nc);
  c.index = c.flushed = 0;
  c.member = c.cohort->alloc_member(0);
}

void AcastShared::maybe_prune(Cohort& co) {
  if (co.log.size() < kPruneThreshold) return;
  std::uint64_t mn = kNoFloor;
  for (std::uint64_t f : co.floors) mn = std::min(mn, f);
  if (mn == kNoFloor) mn = co.end();
  while (co.base_index < mn && !co.log.empty()) {
    Cohort::Entry& e = co.log.front();
    co.apply(co.base, e.from, *e.batch, nullptr);
    co.log.pop_front();
    ++co.base_index;
  }
  while (!co.ranges.empty() && co.ranges.begin()->first.first < co.base_index)
    co.ranges.erase(co.ranges.begin());
}

AcastShared::StepResult AcastShared::step(Cursor& c, int from, const BatchPtr& batch) {
  std::shared_ptr<Cohort> co = c.cohort;
  std::unique_lock<std::mutex> lock(co->mu);
  StepResult res;
  if (c.index < co->end()) {
    Cohort::Entry& e = co->entry(c.index);
    if (e.from == from && e.batch == batch) {
      // Replay hit: the transition was computed by an earlier cursor.
      count_lookup(true);
      res.outputs = e.fx.outputs;
      res.queued_sends = !e.fx.sends.empty();
      ++c.index;
      return res;
    }
    // Divergent history (Byzantine sender, dropped delivery, async skew):
    // continue on a private fork rebuilt from the shared prefix.
    branch(c, *co);
    lock.unlock();
    co = c.cohort;
    lock = std::unique_lock<std::mutex>(co->mu);
  }
  // At the tip: compute the transition once; every later member replays it.
  count_lookup(false);
  Cohort::Entry e;
  e.from = from;
  e.batch = batch;
  co->apply(co->tip, from, *batch, &e.fx);
  res.outputs = e.fx.outputs;
  res.queued_sends = !e.fx.sends.empty();
  co->log.push_back(std::move(e));
  ++c.index;
  maybe_prune(*co);
  return res;
}

std::optional<Payload> AcastShared::flush_batch(Cursor& c, const std::vector<Send>& own) {
  std::shared_ptr<Cohort> co = c.cohort;
  std::unique_lock<std::mutex> lock(co->mu);
  const std::pair<std::uint64_t, std::uint64_t> key{c.flushed, c.index};
  const bool memoable = own.empty() && c.pending.empty();
  if (memoable) {
    if (key.first == key.second) return std::nullopt;
    auto it = co->ranges.find(key);
    if (it != co->ranges.end()) {
      co->floors[static_cast<std::size_t>(c.member)] = c.flushed = c.index;
      count_lookup(true);
      return it->second;
    }
  }
  // Group by (type, vid) in first-appearance order — deterministic, and K
  // near-identical bodies (a window's worth of ok-verdict echoes) cost one
  // value on the wire. Own INITs lead, then branch carry-over, then the
  // shared log's sends in log order.
  std::vector<bcwire::AcastGroup> groups;
  std::unordered_map<std::uint64_t, std::size_t> group_of;
  auto add = [&](const Send& s) {
    const std::uint64_t k = (static_cast<std::uint64_t>(s.type) << 32) | s.vid;
    auto [it, fresh] = group_of.try_emplace(k, groups.size());
    if (fresh) groups.push_back(bcwire::AcastGroup{s.type, value(s.vid), {}});
    groups[it->second].slots.push_back(s.slot);
  };
  for (const Send& s : own) add(s);
  for (const Send& s : c.pending) add(s);
  for (std::uint64_t i = c.flushed; i < c.index; ++i)
    for (const Send& s : co->entry(i).fx.sends) add(s);
  c.pending.clear();
  co->floors[static_cast<std::size_t>(c.member)] = c.flushed = c.index;
  if (groups.empty()) return std::nullopt;
  Payload p = canonical(bcwire::encode_acast_batch(groups));
  if (memoable) co->ranges.emplace(key, p);
  return p;
}

void AcastShared::mark_flushed(Cursor& c) {
  std::shared_ptr<Cohort> co = c.cohort;
  std::lock_guard<std::mutex> lock(co->mu);
  c.flushed = c.index;
  co->floors[static_cast<std::size_t>(c.member)] = c.flushed;
}

// ---------------------------------------------------------------- SbaShared ---

std::shared_ptr<SbaShared> SbaShared::get(Party& party, RouteId route, int K, int n, int t) {
  auto bank = shared<SbaShared>(party, route, K, n, t);
  // One logical bank <=> one route: every party must agree on its shape. A
  // run-wide schedule whose parties enrolled different seats would misread
  // every slot, so this holds in every build.
  if (bank->K_ != K || bank->n_ != n || bank->t_ != t)
    throw std::logic_error("SbaShared: parties disagree on a schedule's K, n or t");
  return bank;
}

SbaShared::VidsPtr SbaShared::canonical_vids_locked(Vids&& v) {
  auto& bucket = vids_canon_[vids_digest(v)];
  for (const VidsPtr& p : bucket)
    if (*p == v) return p;
  VidsPtr p = std::make_shared<const Vids>(std::move(v));
  bucket.push_back(p);
  return p;
}

SbaShared::VidsPtr SbaShared::canonical_vids(Vids&& v) {
  std::lock_guard<std::mutex> lock(mu_);
  return canonical_vids_locked(std::move(v));
}

SbaShared::ExpandedPtr SbaShared::expand(const Payload& body) {
  return decode_cached(expansions_, body, [this](const Bytes& buf) {
    auto exp = std::make_shared<Expanded>();
    if (auto m = bcwire::decode_sba(buf)) {
      exp->k = m->k;
      constexpr std::uint32_t kUncovered = ~std::uint32_t{0};
      Vids out(static_cast<std::size_t>(K_), kUncovered);
      for (const auto& g : m->groups) {
        const std::uint32_t vid = intern_locked(g.value);
        for (std::uint32_t s : g.slots)
          if (s < static_cast<std::uint32_t>(K_) && out[s] == kUncovered) out[s] = vid;
      }
      const std::uint32_t def_vid = intern_locked(m->def);
      for (auto& vid : out)
        if (vid == kUncovered) vid = def_vid;
      // Canonicalize: only k differs between consecutive phases of a
      // unanimous steady state, so the expansions (and every round-result
      // cache key built from them) collapse to one vector across all phases.
      exp->vids = canonical_vids_locked(std::move(out));
    }
    return exp;
  });
}

SbaShared::VidsPtr SbaShared::round_a(const std::vector<VidsPtr>& vote1) {
  return memoized(round_a_, [&] {
    // Per slot: a non-⊥ value with support >= n−t becomes the proposal (at
    // most one value can reach n−t with t < n/3; the lexicographic tie-break
    // mirrors the per-pair std::map iteration order).
    Vids proposal(static_cast<std::size_t>(K_), 0);
    std::vector<Tally> tally;  // one slot's, reused: at most n entries
    tally.reserve(vote1.size());
    for (int s = 0; s < K_; ++s) {
      tally_slot(tally, vote1, s);
      std::uint32_t best = 0;
      bool found = false;
      for (const Tally& t : tally) {
        if (t.vid == 0 || t.count < n_ - t_) continue;
        if (!found || value_less(t.vid, best)) {
          best = t.vid;
          found = true;
        }
      }
      if (found) proposal[static_cast<std::size_t>(s)] = best;
    }
    return canonical_vids_locked(std::move(proposal));
  }, vote1);
}

std::shared_ptr<const SbaShared::BResult> SbaShared::round_b(const VidsPtr& prior,
                                                             const std::vector<VidsPtr>& vote2) {
  assert(prior);
  return memoized(round_b_, [&] {
    auto res = std::make_shared<BResult>();
    Vids v(static_cast<std::size_t>(K_), 0);
    auto locked = std::make_shared<Flags>(static_cast<std::size_t>(K_), 0);
    std::vector<Tally> tally;
    tally.reserve(vote2.size());
    for (int s = 0; s < K_; ++s) {
      const auto us = static_cast<std::size_t>(s);
      tally_slot(tally, vote2, s);
      // Most supported non-⊥ proposal; ties -> lexicographically smaller value.
      std::uint32_t best = 0;
      int best_c = 0;
      for (const Tally& t : tally) {
        if (t.vid == 0) continue;
        if (t.count > best_c || (t.count == best_c && best_c > 0 && value_less(t.vid, best))) {
          best = t.vid;
          best_c = t.count;
        }
      }
      (*locked)[us] = best_c >= n_ - t_ ? 1 : 0;
      if (best_c >= t_ + 1) {
        v[us] = best;
      } else if (!(*locked)[us]) {
        v[us] = 0;  // ⊥ until the king speaks
      } else {
        v[us] = (*prior)[us];  // unreachable with n > 3t; kept for exactness
      }
    }
    res->v = canonical_vids_locked(std::move(v));
    res->locked = std::move(locked);
    return res;
  }, prior, vote2);
}

SbaShared::VidsPtr SbaShared::round_c(const VidsPtr& v, const FlagsPtr& locked,
                                      const VidsPtr& king) {
  assert(v && locked);
  if (!king) return v;
  return memoized(round_c_, [&] {
    Vids out(*v);
    for (std::size_t s = 0; s < out.size(); ++s)
      if (!(*locked)[s]) out[s] = (*king)[s];
    return canonical_vids_locked(std::move(out));
  }, v, locked, king);
}

Payload SbaShared::encode(std::uint32_t k, const VidsPtr& vids) {
  assert(vids);
  return memoized(encode_, [&] {
    // Default = the most frequent value (ties -> lexicographically smaller
    // value); the rest go out as explicit groups in first-appearance order.
    std::unordered_map<std::uint32_t, int> freq;
    std::vector<std::uint32_t> order;
    for (std::uint32_t vid : *vids) {
      if (++freq[vid] == 1) order.push_back(vid);
    }
    std::uint32_t def_vid = order.empty() ? 0 : order.front();
    for (std::uint32_t vid : order) {
      const int c = freq[vid], best = freq[def_vid];
      if (c > best || (c == best && value_less(vid, def_vid))) def_vid = vid;
    }
    bcwire::SbaMsg msg;
    msg.k = k;
    msg.def = value_locked(def_vid);
    std::unordered_map<std::uint32_t, std::size_t> group_of;
    for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(K_); ++s) {
      const std::uint32_t vid = (*vids)[s];
      if (vid == def_vid) continue;
      auto [git, fresh] = group_of.try_emplace(vid, msg.groups.size());
      if (fresh) msg.groups.push_back(bcwire::SbaMsg::Group{value_locked(vid), {}});
      msg.groups[git->second].slots.push_back(s);
    }
    // Byte-canonicalize so identical vectors reached through distinct vid
    // arrays still share one buffer (and the receivers' pointer cache).
    return canonical_locked(bcwire::encode_sba(msg));
  }, k, vids);
}

}  // namespace bobw
