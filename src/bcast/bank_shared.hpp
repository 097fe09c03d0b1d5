// Cross-party shared decode state for the broadcast banks.
//
// Protocol instances on the same route on different parties are views of
// ONE logical bank, and almost everything a receiver computes from
// a bank message is a pure function of the payload bytes: the decoded batch
// structure, the value intern, the expansion of an SBA vector to per-slot
// values, and — because every SBA round result is a pure function of the
// received vote vectors (see SbaShared::round_*) — the per-round tally
// results themselves. The simulator's payloads are COW shared buffers
// (src/sim/message.hpp), so one send_all fan-out delivers the SAME buffer to
// all n receivers; keying a per-Sim cache on that pointer turns the
// per-receiver O(n²·K) tally/decode work of each SBA round into O(1) lookups
// for every receiver after the first.
//
// Two cache layers per payload:
//  * pointer layer — exact identity of the shared buffer (one fan-out);
//  * byte layer    — distinct senders emitting identical bytes (every honest
//    party's vote vector in a unanimous round), collapsed via digest buckets
//    with full-body confirm.
// Entries are never evicted and pointer keys retain their buffer, so a freed
// buffer's address can never be recycled into a stale cache hit.
//
// Shared vids are NAMES, not protocol values: every decision tie-break in
// the banks compares interned bytes, never vid order, so results are
// independent of the cross-party (and cross-thread) intern interleaving —
// required for the window executor's bit-identical-traces guarantee.
//
// BankCache holds both cache layers, the value intern and the round-result
// memo; AcastShared and SbaShared add only what is specific to their bank.
// All methods lock internally; window-executor worker threads reach one
// shared object concurrently.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/codec.hpp"
#include "src/common/digest.hpp"
#include "src/sim/party.hpp"

namespace bobw {

// ---------------------------------------------------------------------------
// BankCache — the cache core of both banks: the lock, the hit/miss counter,
// the value intern, the byte-canonical payload table and the two memo
// shapes. Every lookup through it counts exactly one hit or one miss.
// ---------------------------------------------------------------------------
class BankCache {
 public:
  /// Dense value ids: one digest per lookup, full-body compare only within
  /// the digest bucket.
  std::uint32_t intern(const Bytes& value);
  /// The interned bytes of `vid`. Values are only ever appended, never moved
  /// or freed, so the reference stays valid for the cache's lifetime.
  const Bytes& value(std::uint32_t vid) const;

 protected:
  explicit BankCache(Sim& sim) : stats_(&sim.decode_cache_stats()) {}

  /// The per-Sim `Bank` of the bank instance on `route`, built from
  /// (sim, args...) by its first caller.
  template <typename Bank, typename... Args>
  static std::shared_ptr<Bank> shared(Party& party, RouteId route, Args... args) {
    Sim& sim = party.sim();
    return std::static_pointer_cast<Bank>(sim.shared_state(route, [&]() -> std::shared_ptr<void> {
      return std::shared_ptr<Bank>(new Bank(sim, args...));
    }));
  }

  /// Decoded payloads, cached by buffer identity (one fan-out), then by
  /// byte content (distinct senders emitting identical bytes). Each entry
  /// holds its buffer, so a freed buffer's address can never be recycled
  /// into a stale pointer hit.
  template <typename T>
  struct PayloadMemo {
    struct Entry {
      std::shared_ptr<const Bytes> buf;
      std::shared_ptr<const T> value;
    };
    std::unordered_map<const Bytes*, Entry> by_ptr;
    std::unordered_map<std::uint64_t, std::vector<Entry>> by_body;
  };

  /// `decode(bytes)` runs under the lock on a miss.
  template <typename T, typename Decode>
  std::shared_ptr<const T> decode_cached(PayloadMemo<T>& memo, const Payload& body,
                                         Decode&& decode) {
    std::shared_ptr<const Bytes> buf = body.data();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo.by_ptr.find(buf.get());
    if (it != memo.by_ptr.end()) {
      count_lookup(true);
      return it->second.value;
    }
    auto& bucket = memo.by_body[body_digest(*buf)];
    for (const auto& e : bucket)
      if (*e.buf == *buf) {
        count_lookup(true);
        memo.by_ptr.emplace(buf.get(), typename PayloadMemo<T>::Entry{buf, e.value});
        return e.value;
      }
    count_lookup(false);
    std::shared_ptr<const T> value = decode(*buf);
    bucket.push_back({buf, value});
    memo.by_ptr.emplace(buf.get(), typename PayloadMemo<T>::Entry{std::move(buf), value});
    return value;
  }

  /// Pure results keyed on the identity of their inputs. An input is an
  /// integer (keyed by value), a shared pointer (keyed by address and
  /// anchored for the memo's lifetime) or a vector of shared pointers.
  using PtrKey = std::vector<std::uintptr_t>;
  struct PtrKeyHash {
    std::size_t operator()(const PtrKey& k) const {
      std::uint64_t h = 14695981039346656037ull;
      for (std::uintptr_t p : k) {
        h ^= static_cast<std::uint64_t>(p);
        h *= 1099511628211ull;
      }
      return static_cast<std::size_t>(h);
    }
  };
  template <typename V>
  struct ResultMemo {
    struct Entry {
      std::vector<std::shared_ptr<const void>> anchors;
      V result;
    };
    std::unordered_map<PtrKey, Entry, PtrKeyHash> map;
  };

  /// `compute()` runs under the lock on a miss.
  template <typename V, typename Compute, typename... In>
  V memoized(ResultMemo<V>& memo, Compute&& compute, const In&... in) {
    PtrKey key;
    std::size_t words = 0;
    (visit(in, [&words](std::uintptr_t, const auto*) { ++words; }), ...);
    key.reserve(words);
    (visit(in, [&key](std::uintptr_t w, const auto*) { key.push_back(w); }), ...);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo.map.find(key);
    if (it != memo.map.end()) {
      count_lookup(true);
      return it->second.result;
    }
    count_lookup(false);
    typename ResultMemo<V>::Entry e{{}, compute()};
    (visit(in, [&e](std::uintptr_t, const auto* p) { if (p) e.anchors.push_back(*p); }), ...);
    return memo.map.emplace(std::move(key), std::move(e)).first->second.result;
  }

  void count_lookup(bool hit) {
    (hit ? stats_->hits : stats_->misses).fetch_add(1, std::memory_order_relaxed);
  }

  // The *_locked members require mu_.
  std::uint32_t intern_locked(const Bytes& value);
  const Bytes& value_locked(std::uint32_t vid) const { return values_[vid]; }
  /// Lex compare of interned values without copying out.
  bool value_less(std::uint32_t a, std::uint32_t b) const { return values_[a] < values_[b]; }
  /// Canonical shared payload for freshly encoded bytes: senders emitting
  /// identical bytes share ONE buffer, so all their receivers hit the
  /// pointer layer and the Sim anchors one copy of the bytes instead of n.
  Payload canonical_locked(Bytes&& encoded);
  Payload canonical(Bytes&& encoded);

  mutable std::mutex mu_;

 private:
  static void visit(std::uint32_t x, const auto& f) {
    f(std::uintptr_t{x}, static_cast<const std::shared_ptr<const void>*>(nullptr));
  }
  template <typename P>
  static void visit(const std::shared_ptr<P>& p, const auto& f) {
    f(reinterpret_cast<std::uintptr_t>(p.get()), &p);
  }
  template <typename P>
  static void visit(const std::vector<std::shared_ptr<P>>& ps, const auto& f) {
    for (const auto& p : ps) visit(p, f);
  }

  Sim::DecodeCacheStats* stats_;
  std::deque<Bytes> values_;  // reference-stable: value() hands out references
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> vids_by_digest_;
  std::unordered_map<std::uint64_t, std::vector<Payload>> canon_;
};

// ---------------------------------------------------------------------------
// AcastShared — one logical AcastBank's batch decode cache and receiver
// automaton.
// ---------------------------------------------------------------------------
class AcastShared : public BankCache {
 public:
  /// The per-Sim instance for the logical bank on `route` (identical on
  /// every party by construction).
  static std::shared_ptr<AcastShared> get(Party& party, RouteId route);

  /// Decoded batch group: like bcwire::AcastGroup but with the value interned
  /// (and unknown sub-types already dropped, mirroring the receiver's skip).
  struct Group {
    std::uint8_t type = 0;
    std::uint32_t vid = 0;
    std::vector<std::uint32_t> slots;
  };
  using Batch = std::vector<Group>;
  using BatchPtr = std::shared_ptr<const Batch>;

  /// Decoded view of a coalesced Acast batch; cached by payload identity,
  /// then by byte content. Never null (a malformed body decodes to its
  /// well-formed prefix, possibly empty — same rule as bcwire).
  BatchPtr decode(const Payload& body);

  // --- Shared receiver automaton (cohorts) ---------------------------------
  //
  // A receiver's Bracha state (per-slot echo/ready tallies and accepts) is a
  // pure function of its ordered history of received (sender, batch) pairs,
  // and in a crisp window every honest receiver sees the SAME history. A
  // Cohort stores one copy of that state plus a replay log of transitions;
  // each party holds a Cursor and steps through the log, paying O(1) per
  // already-computed transition instead of re-tallying O(slots·n) votes. The
  // first cursor to reach the tip computes the transition once and records
  // its effects (sends to emit, slots accepted). A cursor whose next message
  // differs from the recorded entry (Byzantine sender, drop, async skew)
  // BRANCHES: a fresh cohort is rebuilt from the base state and the shared
  // path up to that point, and the divergent party continues alone (or with
  // whoever later matches its history).
  //
  // Wire batches are derived from the log: flush_batch() groups the recorded
  // sends of [flushed, index) — identical for every member flushing the same
  // window — and memoizes the encoded Payload per log range, so one window's
  // echo storm is encoded once and every receiver's decode is a pointer hit.
  //
  // Entries behind every member's flush point are folded into the base state
  // and dropped; vids inside effects are interleaving-dependent names and
  // never reach the wire unencoded.
  static constexpr std::uint32_t kNoVid = 0xFFFFFFFFu;

  struct Send {
    std::uint8_t type = 0;  // AcastBank SubType (kInit/kEcho/kReady)
    std::uint32_t vid = 0;
    std::uint32_t slot = 0;
  };
  struct SlotOutput {
    std::uint32_t slot = 0;
    std::uint32_t vid = 0;
  };

  class Cohort;

  /// One party's position in the shared automaton.
  struct Cursor {
    std::shared_ptr<Cohort> cohort;
    std::uint64_t index = 0;    // next log entry to consume (cohort-absolute)
    std::uint64_t flushed = 0;  // first entry not yet flushed to the wire
    int member = -1;            // slot in the cohort's floor registry
    std::vector<Send> pending;  // unflushed sends carried across a branch
  };

  /// Fix the automaton shape once (idempotent; identical on every party by
  /// construction). Must precede join().
  void configure(std::vector<int> senders, int t, int n);

  /// Register the cursor on the root cohort.
  void join(Cursor& c);

  struct StepResult {
    std::vector<SlotOutput> outputs;  // slots this transition accepted
    bool queued_sends = false;        // the transition generated wire traffic
  };

  /// Advance the cursor by one received batch (`batch` must come from
  /// decode(), whose byte-canonical pointers make identity the match key).
  /// Sends are NOT returned — they are derived at flush_batch() time; the
  /// caller applies `outputs` to its per-party state and schedules a flush
  /// iff `queued_sends`.
  StepResult step(Cursor& c, int from, const BatchPtr& batch);

  /// The coalesced wire batch for `own` (sender-side INITs) + any branch
  /// carry-over + the log range [flushed, index), grouped by (type, value)
  /// in first-appearance order; nullopt when there is nothing to send.
  /// Advances the cursor's flush point. Identical batches (every honest
  /// party's echo flush in a round-crisp window) share one buffer.
  std::optional<Payload> flush_batch(Cursor& c, const std::vector<Send>& own);

  /// Record that the cursor has nothing pending (same-window bookkeeping
  /// when no flush is scheduled) so the cohort can prune behind it.
  void mark_flushed(Cursor& c);

  ~AcastShared();

 private:
  friend class BankCache;
  explicit AcastShared(Sim& sim) : BankCache(sim) {}

  void branch(Cursor& c, Cohort& old);
  void maybe_prune(Cohort& co);

  PayloadMemo<Batch> batches_;
  std::shared_ptr<Cohort> root_;
};

// ---------------------------------------------------------------------------
// SbaShared — one logical SbaBank's expansion, round-result and encode
// caches. K, n, t are fixed per logical bank; vid 0 is ⊥.
// ---------------------------------------------------------------------------
class SbaShared : public BankCache {
 public:
  static std::shared_ptr<SbaShared> get(Party& party, RouteId route, int K, int n, int t);

  using Vids = std::vector<std::uint32_t>;          // per-slot vid, 0 = ⊥
  using VidsPtr = std::shared_ptr<const Vids>;
  using Flags = std::vector<char>;
  using FlagsPtr = std::shared_ptr<const Flags>;

  /// Decoded + expanded SBA vector: phase k plus per-slot vids over all K
  /// slots (groups first-covering-wins, then the default). `vids` is null
  /// iff the body is malformed (dropped wholesale, same rule as bcwire).
  struct Expanded {
    std::uint32_t k = 0;
    VidsPtr vids;
  };
  using ExpandedPtr = std::shared_ptr<const Expanded>;

  /// Canonical (content-interned) per-slot vid vector. Round-result and
  /// encode caches key on VECTOR IDENTITY, so every producer of a vids
  /// vector must route it through here: two parties building the same input
  /// vector independently then share one pointer and every downstream cache
  /// line. Canonical vectors are anchored for the bank's lifetime.
  VidsPtr canonical_vids(Vids&& v);

  ExpandedPtr expand(const Payload& body);

  /// Round results, computed once per distinct acceptance-ordered vote list
  /// across ALL receiving parties (honest receivers of a crisp round hold
  /// identical lists of identical expansion pointers). Each result is the
  /// exact per-slot computation of the pre-bank per-pair path:
  ///  round_a: per slot, the lex-min non-⊥ value with vote1 support >= n−t;
  ///  round_b: per slot, the most-supported non-⊥ vote2 value d with support
  ///           D (ties lex-min): locked = D >= n−t; v = d if D >= t+1, else
  ///           prior if locked, else ⊥;
  ///  round_c: per slot, locked keeps v, else the king's value; a null
  ///           `king` (silent king) keeps v wholesale.
  VidsPtr round_a(const std::vector<VidsPtr>& vote1);
  struct BResult {
    VidsPtr v;
    FlagsPtr locked;
  };
  std::shared_ptr<const BResult> round_b(const VidsPtr& prior, const std::vector<VidsPtr>& vote2);
  VidsPtr round_c(const VidsPtr& v, const FlagsPtr& locked, const VidsPtr& king);

  /// Encode `vids` as a phase-k wire vector (groups + most-frequent default,
  /// ties toward the smaller VALUE — vid order is interleaving-dependent and
  /// must never reach the wire). Cached per (k, vector identity), and
  /// byte-canonicalized, so every honest sender of one round's unanimous
  /// vector puts the SAME buffer on the wire.
  Payload encode(std::uint32_t k, const VidsPtr& vids);

 private:
  friend class BankCache;
  SbaShared(Sim& sim, int K, int n, int t) : BankCache(sim), K_(K), n_(n), t_(t) {
    intern_locked(Bytes{});  // vid 0 is ⊥, so vid != 0 <=> non-empty value
  }

  VidsPtr canonical_vids_locked(Vids&& v);

  int K_, n_, t_;
  std::unordered_map<std::uint64_t, std::vector<VidsPtr>> vids_canon_;
  PayloadMemo<Expanded> expansions_;
  ResultMemo<VidsPtr> round_a_;
  ResultMemo<std::shared_ptr<const BResult>> round_b_;
  ResultMemo<VidsPtr> round_c_;
  ResultMemo<Payload> encode_;
};

}  // namespace bobw
