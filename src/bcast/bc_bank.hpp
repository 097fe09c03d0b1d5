// BcBank — a slot-multiplexed ΠBC broadcast bank over a multi-group slot
// space.
//
// ΠBC is synchronous broadcast with asynchronous guarantees (paper §3.1,
// Fig 1, Theorem 3.5). The sender Acasts m at the scheduled start time T0.
// At local time T0+3Δ every party joins an SBA (phase-king) instance with
// input = its current Acast output (⊥ if none). At T0+T_BC (T_BC =
// 3Δ+T_BGP) the regular-mode output is m* if m* was received from the Acast
// *and* the SBA decided m*; otherwise ⊥. Parties that output ⊥ later switch
// to the Acast value the moment it arrives (fallback mode).
//
// All parties must agree on T0 — it is part of the enclosing protocol's
// public schedule. A sender that starts late simply misses the regular
// window; receivers still get the value through fallback mode, which is
// exactly the paper's weak validity/consistency behaviour. A lone ΠBC is a
// one-group bank with one slot (the single-group constructor).
//
// The paper's ΠWPS/ΠVSS pairwise-consistency step runs n² independent ΠBC
// instances with one shared public start time; ΠBA runs n; and one ΠVSS
// sharing runs n+1 such grids (the dealer's plus one per child-ΠWPS). Each
// independent instance pays its own ΠACast (O(n²) echo/ready messages) and
// its own 3(t+1)-round phase-king SBA (n send_alls per round). The bank
// preserves every slot's ΠBC *decision logic* bit-for-bit (same Acast
// thresholds, same phase-king tallies, same T0+T_BC regular deadline and
// fallback rule) but multiplexes the transport:
//
//  * A bank serves a list of GROUPS — (senders, start time, handler) — over
//    one flattened slot space. For ΠVSS that is the whole sharing's schedule
//    plane: all n child ok-grids, the dealer grid, every child's and ΠVSS's
//    own wef/★₂ broadcast and ΠBA input layer — 4n+4 groups — ride ONE bank
//    (see the layout table in src/vss/plane.hpp).
//  * AcastBank coalesces all groups' INIT/ECHO/READY traffic per local
//    Δ-window into ONE wire message of (type, value) → slot-list groups,
//    with per-slot digest-interned echo/ready vote sets. Outgoing traffic is
//    buffered and flushed when the local clock next hits a multiple of Δ —
//    at round boundaries (where all honest ΠBC traffic is generated in a
//    synchronous network) the flush happens in the same tick, so the
//    round-crisp schedule is unchanged; mid-window arrivals wait for the
//    boundary, which still meets every 3Δ Acast deadline because the flush
//    boundary is exactly the worst-case arrival bound.
//  * SbaBank runs ONE shared phase-king schedule per distinct group start
//    time whose per-round send_all carries the vector of all K slot values
//    (encoded as value-groups + a default value, so K near-identical
//    verdicts cost O(1) values on the wire). Groups with equal start times
//    share a schedule regardless of position: a ΠVSS sharing has seven
//    distinct layer start times, so it needs exactly seven SBA schedules —
//    independent of n — where one bank per group would pay 4n+4.
//  * BcBank composes the two and exposes per-(group, slot) broadcast() and
//    the per-slot ΠBC handler.
//
// Decode/tally state that is a pure function of payload bytes lives in
// per-Sim shared objects (src/bcast/bank_shared.hpp): value interning, batch
// decoding, SBA vector expansion and the per-round SBA results are computed
// once per distinct payload/vote-list across ALL parties instead of once per
// receiver. Shared vids are interleaving-dependent names, so every decision
// and wire tie-break compares values, never vids.
//
// Grid message count drops from O(K·n²) + O(K·n·t) per Δ-window to O(n) per
// Δ-window: each party sends at most one coalesced Acast batch per window
// and one SBA vector per round per schedule. The pre-bank per-pair path is
// frozen in tests/reference/legacy_bcgrid.hpp (over the one-instance Acast
// and PhaseKing beside it) and the one-bank-per-group VSS wiring in
// tests/reference/legacy_vssplanes.hpp, for same-binary differentials.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/bcast/bank_shared.hpp"
#include "src/core/timing.hpp"
#include "src/sim/instance.hpp"

namespace bobw {

// ---------------------------------------------------------------------------
// Wire formats of the bank's coalesced messages. Exposed so tests and
// targeted adversaries can decode/garble individual slot entries.
// ---------------------------------------------------------------------------
namespace bcwire {

/// One (type, value) group of an Acast batch, with the slots it applies to.
struct AcastGroup {
  std::uint8_t type = 0;  // AcastBank::kInit / kEcho / kReady
  Bytes value;
  std::vector<std::uint32_t> slots;
};

Bytes encode_acast_batch(const std::vector<AcastGroup>& groups);

/// Decodes as far as the batch is well-formed; a malformed suffix (garbled
/// slot entries from a Byzantine sender) drops only the groups from the
/// first malformed one onwards — earlier groups still apply.
std::vector<AcastGroup> decode_acast_batch(const Bytes& b);

/// One shared-SBA round message: phase k, explicit value groups, and a
/// default value covering every slot not named by a group (first-covering
/// group wins on Byzantine duplicates).
struct SbaMsg {
  std::uint32_t k = 0;
  struct Group {
    Bytes value;
    std::vector<std::uint32_t> slots;
  };
  std::vector<Group> groups;
  Bytes def;
};

Bytes encode_sba(const SbaMsg& m);
/// All-or-nothing: a malformed SBA vector is dropped wholesale (the per-pair
/// equivalent of one garbled vote message).
std::optional<SbaMsg> decode_sba(const Bytes& b);

}  // namespace bcwire

// ---------------------------------------------------------------------------
// AcastBank — K Bracha broadcasts over one coalesced transport.
//
// The per-party instance is a thin cursor over the Sim-shared receiver
// automaton (AcastShared::Cohort): receivers with identical delivery
// histories — every honest party of a crisp window — share ONE copy of the
// per-slot echo/ready tallies, so each transition's O(slots) vote work is
// computed once per Sim instead of once per receiver, and each window's
// outgoing batch is encoded once per cohort. Per party the bank keeps only
// its accepted outputs (one vid per slot) and its own sender-side INITs.
// ---------------------------------------------------------------------------
class AcastBank : public Instance {
 public:
  using Handler = std::function<void(int slot, const Bytes&)>;

  /// `senders[s]` is the party whose INIT is accepted for slot s. `delta` is
  /// the coalescing window (the network bound Δ).
  AcastBank(Party& party, std::string id, std::vector<int> senders, int t, Tick delta,
            Handler on_output);

  /// Sender-side: start broadcasting `m` on `slot`. May be called in any
  /// Δ-window; the INIT rides the next flush.
  void start(int slot, const Bytes& m);

  /// The accepted value, materialized out of the shared intern table.
  std::optional<Bytes> output(int slot) const {
    const std::uint32_t v = outputs_[static_cast<std::size_t>(slot)];
    return v == AcastShared::kNoVid ? std::nullopt : std::optional<Bytes>(shared_->value(v));
  }
  /// The accepted value as a vid in the bank's shared intern space — the
  /// allocation-free path for downstream vid-space comparisons.
  std::optional<std::uint32_t> output_vid(int slot) const {
    const std::uint32_t v = outputs_[static_cast<std::size_t>(slot)];
    return v == AcastShared::kNoVid ? std::nullopt : std::optional<std::uint32_t>(v);
  }
  const Bytes& value(std::uint32_t vid) const { return shared_->value(vid); }

  void on_message(const Msg& m) override;

  enum Type { kBatch = 0 };
  /// Per-entry sub-types inside a batch (the classic Bracha message kinds).
  enum SubType { kInit = 0, kEcho = 1, kReady = 2 };

 private:
  void schedule_flush();
  void flush();

  Tick delta_;
  Handler on_output_;
  std::shared_ptr<AcastShared> shared_;

  AcastShared::Cursor cursor_;
  /// Per-slot accepted vid; AcastShared::kNoVid = not yet accepted.
  std::vector<std::uint32_t> outputs_;
  /// Sender-side INITs awaiting the next flush (receiver-side traffic is
  /// derived from the cohort log at flush time).
  std::vector<AcastShared::Send> own_;
  bool flush_scheduled_ = false;
};

// ---------------------------------------------------------------------------
// SbaBank — K phase-king SBA instances on one shared round schedule.
// ---------------------------------------------------------------------------
class SbaBank : public Instance {
 public:
  /// Called once per slot at `start_time`, in slot order, to fetch inputs as
  /// vids in the bank's shared intern space (0 = ⊥; intern via
  /// intern_input). ΠBC reads each slot's Acast output at that moment.
  using InputProvider = std::function<std::uint32_t(int slot)>;

  /// `ctx` supplies t (= ctx.ts): t+1 phases, phase k's king is P_{(k−1) mod n}.
  SbaBank(Party& party, std::string id, int K, const Ctx& ctx, Tick start_time,
          InputProvider input);

  /// Output as a vid in the shared intern space; nullopt before the final
  /// phase completes.
  std::optional<std::uint32_t> output_vid(int slot) const {
    return finished_ ? std::optional<std::uint32_t>((*v_)[static_cast<std::size_t>(slot)])
                     : std::nullopt;
  }
  /// Materialized output bytes (copies out of the shared intern table).
  std::optional<Bytes> output(int slot) const {
    auto vid = output_vid(slot);
    return vid ? std::optional<Bytes>(shared_->value(*vid)) : std::nullopt;
  }

  std::uint32_t intern_input(const Bytes& value) { return shared_->intern(value); }

  void on_message(const Msg& m) override;

  enum Type { kVote1 = 0, kVote2 = 1, kKing = 2 };

 private:
  struct PhaseVotes {
    // Message-level dedupe: the first VOTE1/VOTE2/KING message of a sender
    // for this phase wins wholesale (per-pair instances deduped per sender
    // per instance; honest senders emit exactly one vector per round).
    std::vector<std::uint64_t> seen1, seen2;
    // Acceptance-ordered expansions — the round-result cache keys.
    std::vector<SbaShared::VidsPtr> vote1, vote2;
    SbaShared::VidsPtr king;  // null until the phase's king speaks
  };
  PhaseVotes& phase(int k);
  bool mark_seen(std::vector<std::uint64_t>& mask, int from);
  int num_phases() const { return t_ + 1; }
  /// Phase k's king: P_{(k−1) mod n}.
  int king(int k) const { return (k - 1) % n(); }
  void send_vector(int type, int k, const SbaShared::VidsPtr& vids);

  void round_a_end(int k);
  void round_b_end(int k);
  void round_c_end(int k);

  int K_, t_;
  Tick start_;
  InputProvider input_;
  std::shared_ptr<SbaShared> shared_;

  SbaShared::VidsPtr v_;        // current value per slot (vid 0 = ⊥)
  SbaShared::FlagsPtr locked_;  // per slot: D >= n−t this phase (null = none)
  std::vector<PhaseVotes> phases_;  // [k-1]; flat — hot per-delivery lookup
  int done_through_ = 0;  // phases <= this have completed; late votes ignored
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// BcBank — ΠBC slots in groups: AcastBank + per-start SbaBanks + the
// per-slot decision rule.
// ---------------------------------------------------------------------------
class BcBank {
 public:
  /// Per-slot ΠBC handler (value = nullopt means ⊥): fires once with the
  /// regular-mode output at T0+T_BC and once more if a later fallback switch
  /// happens. The slot index is group-local.
  using Handler = std::function<void(int slot, const std::optional<Bytes>& value, bool fallback)>;

  /// One logical ΠBC grid: per-slot accepted senders, the publicly known
  /// start time T0, and the per-slot handler. Groups with equal start share
  /// one SBA schedule.
  struct Group {
    std::vector<int> senders;
    Tick start = 0;
    Handler handler;
  };

  /// Mega-bank: one Acast coalescing window and per-distinct-start SBA
  /// schedules over the union of all groups' slots.
  BcBank(Party& party, const std::string& id, std::vector<Group> groups, const Ctx& ctx);

  /// Single-group convenience (a lone ΠBC, and the own input bank of a ΠBA
  /// built without a parent plane).
  BcBank(Party& party, const std::string& id, std::vector<int> senders, const Ctx& ctx,
         Tick start_time, Handler handler);

  /// Sender-side for a group-local slot (receivers ignore INITs from
  /// non-senders).
  void broadcast(int group, int slot, const Bytes& m);
  void broadcast(int slot, const Bytes& m) { broadcast(0, slot, m); }

  int groups() const { return static_cast<int>(groups_.size()); }
  int slots(int group) const {
    return static_cast<int>(groups_[static_cast<std::size_t>(group)].senders.size());
  }
  int slots() const { return slots(0); }
  int sender(int group, int slot) const {
    return groups_[static_cast<std::size_t>(group)].senders[static_cast<std::size_t>(slot)];
  }
  int sender(int slot) const { return sender(0, slot); }
  Tick start_time(int group) const { return groups_[static_cast<std::size_t>(group)].start; }
  Tick start_time() const { return start_time(0); }
  bool regular_decided(int group, int slot) const {
    return groups_[static_cast<std::size_t>(group)].regular_done[static_cast<std::size_t>(slot)] !=
           0;
  }
  bool regular_decided(int slot) const { return regular_decided(0, slot); }
  /// Outputs materialize by value out of the Acast bank's shared intern
  /// table — per party the bank stores one vid per slot, not the bytes.
  std::optional<Bytes> regular_output(int group, int slot) const {
    return materialize(
        groups_[static_cast<std::size_t>(group)].regular[static_cast<std::size_t>(slot)]);
  }
  std::optional<Bytes> regular_output(int slot) const { return regular_output(0, slot); }
  std::optional<Bytes> output(int group, int slot) const {
    return materialize(
        groups_[static_cast<std::size_t>(group)].current[static_cast<std::size_t>(slot)]);
  }
  std::optional<Bytes> output(int slot) const { return output(0, slot); }

 private:
  struct GroupState {
    std::vector<int> senders;
    Tick start = 0;
    Handler handler;
    std::size_t base = 0;      // offset into the flattened (global) slot space
    int sba = 0;               // SBA schedule (partition) index
    std::size_t sba_base = 0;  // offset into that schedule's slot space
    std::vector<char> regular_done;
    /// Acast-space vids (AcastShared::kNoVid = ⊥/none): the regular-mode
    /// output and the current (post-fallback) output per slot.
    std::vector<std::uint32_t> regular, current;
  };

  std::optional<Bytes> materialize(std::uint32_t vid) const;

  int group_of(std::size_t global_slot) const;
  void decide_regular(int group, int slot);
  void on_acast(int global_slot, const Bytes& m);
  std::uint32_t wrap_vid(int part, std::uint32_t acast_vid);

  Party& party_;
  Ctx ctx_;
  std::vector<GroupState> groups_;
  std::vector<std::size_t> bases_;  // groups_[g].base, for global->group lookup
  std::unique_ptr<AcastBank> acast_;
  /// One SBA schedule per distinct group start, in first-appearance order;
  /// part_slots_[p][local] = global slot.
  std::vector<std::unique_ptr<SbaBank>> sbas_;
  std::vector<std::vector<std::size_t>> part_slots_;
  /// Per partition: Acast-space vid -> wrapped SBA-space vid memo.
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> wrap_vids_;
};

}  // namespace bobw
