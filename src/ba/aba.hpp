// Randomised asynchronous Byzantine agreement (the paper's ΠABA interface,
// Lemma 3.3), run as a slot-multiplexed plane. Each slot follows
// Mostéfaoui–Moumen–Raynal:
//
//  round r: BV-broadcast of EST(r, est): relay a value seen from t+1
//           senders, accept into bin_values on 2t+1 senders;
//           once bin_values ≠ ∅ send AUX(r, w), w ∈ bin_values;
//           on n−t AUX values all inside bin_values, flip the common coin c:
//             values = {b}: est := b, decide b if b == c;
//             values = {0,1}: est := c;
//           advance to round r+1.
//
// Decisions propagate through a Bracha-style DECIDED gadget (relay on t+1,
// halt on 2t+1) so that executions quiesce.
//
// Every tally is a PartySet (a bitset over sender ids with a maintained
// count): the EST senders per value, the AUX senders (first AUX per sender
// wins) and the subset of them whose AUX was 1, and the DECIDED senders per
// value. The rules count distinct senders only, so that is all their state.
//
// AbaBank — one party's ΠABA plane for one start tick T. Every ΠBA whose
// ΠABA is scheduled to start at T (its start time + T_BC) enrolls one slot
// with the party's ONE plane for T, at route plane/at:T/aba
// (AbaBank::at_tick), the shape of HoneyBadgerBFT's concurrent ABAs (Miller
// et al., CCS 2016) and of the SBA schedules (SbaBank::at_tick). Enrollment
// must come before T. At T the plane lays the slots out in key order (the
// enrolling ΠBA's RouteId, the same on every party whatever order the ΠBAs
// were built in) and fixes K. A message that reaches the plane before T is
// dropped: K is not yet fixed, and honest parties send nothing before T.
//
// Each slot keeps its own MMR state and its own coin key (the path hash of
// its ΠBA's interior route .../aba, so the coin's bits do not depend on the
// plane or the layout). What the slots share is the wire: every EST/AUX/
// DECIDED a party sends in one tick is buffered and goes out as ONE message
// at the end of that same tick — a timer at now(), never at a Δ boundary,
// so the asynchronous path is not slowed. The message lists (type, round,
// value) groups, each with the set of slots it speaks for (abawire).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/ba/coin.hpp"
#include "src/common/codec.hpp"
#include "src/common/party_set.hpp"
#include "src/core/timing.hpp"
#include "src/sim/instance.hpp"

namespace bobw {

/// The plane's wire format: a sequence, until the payload ends, of groups
///   u8 tag = type << 1 | value, varint round, slot set (bcwire's code),
/// in strictly ascending (type, round, value) order.
namespace abawire {

/// Round ids at or past this bound are Byzantine and dropped.
inline constexpr std::uint64_t kMaxRound = std::uint64_t{1} << 20;

struct Group {
  std::uint8_t type = 0;  // AbaBank::Vote
  std::uint32_t round = 0;
  bool value = false;
  std::vector<std::uint32_t> slots;
};

/// The canonical message for `groups` in any order: groups sorted by
/// (type, round, value), equal keys merged, each slot set sorted and
/// deduplicated.
Bytes encode(std::vector<Group> groups);

/// Never throws. Slot ids at or past K are clipped. A group with an unknown
/// type or a round outside [1, kMaxRound) is dropped; a group whose key
/// does not exceed its predecessor's, or a malformed one, ends the message
/// (the well-formed prefix stands). So each slot appears at most once per
/// (type, round, value).
std::vector<Group> decode(const Bytes& b, std::uint64_t K);

}  // namespace abawire

class AbaBank : public Instance {
 public:
  using Handler = std::function<void(bool)>;

  /// Also the order a message's groups are read in: DECIDED first, so a slot
  /// it halts ignores the same message's EST/AUX. A party sends its DECIDED
  /// before the EST of the round after its decision, so this is the order
  /// the sender produced them in.
  enum Vote : std::uint8_t { kDecided = 0, kEst = 1, kAux = 2 };
  /// The plane's one message type.
  static constexpr int kBatch = 0;

  /// This party's plane for ΠABAs starting at `start_time`, built by the
  /// first ΠBA that asks for it and owned by the party. t = ctx.ts and the
  /// coin is ctx.coin.
  static AbaBank& at_tick(Party& party, Tick start_time, const Ctx& ctx);

  /// A plane on its own route (tests run one-slot planes this way).
  AbaBank(Party& party, const Addr& addr, int t, CoinSource& coin, Tick start_time);

  /// Enroll one slot under `key`, unique per plane, whose round-r coin is
  /// coin(coin_key, r, self). Returns the seat index. Throws once the plane
  /// has laid out its slots.
  int enroll(RouteId key, std::uint64_t coin_key, Handler on_decide);

  /// Join the seat's ΠABA with an input bit. May be called at any local
  /// time; a start before the plane's start tick takes effect at it.
  void start(int seat, bool input);

  bool decided(int seat) const { return slots_[static_cast<std::size_t>(seat)].decided; }
  bool value(int seat) const { return slots_[static_cast<std::size_t>(seat)].value; }

  void on_message(const Msg& m) override;

 private:
  struct Round {
    explicit Round(int n) : est_senders{PartySet(n), PartySet(n)}, aux(n), aux_one(n) {}
    PartySet est_senders[2];
    bool est_sent[2] = {false, false};
    bool bin[2] = {false, false};
    bool aux_sent = false;
    PartySet aux;      // senders whose first AUX arrived
    PartySet aux_one;  // ... and was 1
    bool advanced = false;
  };
  struct Slot {
    Slot(RouteId k, std::uint64_t ck, Handler h, int n)
        : key(k),
          coin_key(ck),
          on_decide(std::move(h)),
          decided_senders{PartySet(n), PartySet(n)} {}
    RouteId key;
    std::uint64_t coin_key;
    Handler on_decide;
    std::uint32_t pos = 0;  // wire position, fixed at the start tick
    std::map<int, Round> rounds;  // keyed: Byzantine round ids reach 2^20
    int round = 0;
    bool est = false;
    bool started = false;
    bool decided = false;
    bool value = false;
    bool halted = false;
    bool decided_sent = false;
    PartySet decided_senders[2];
  };
  struct Send {
    Vote type;
    int round;
    bool value;
    std::uint32_t pos;
  };

  Round& round(Slot& s, int r) { return s.rounds.try_emplace(r, n()).first->second; }

  void lay_out();
  /// The per-slot rule for one received (type, round, value) from `from`.
  void on_vote(Slot& s, Vote type, int r, bool b, int from);
  void begin_round(Slot& s);
  void maybe_send_aux(Slot& s);
  void try_advance(Slot& s);
  void decide(Slot& s, bool b);
  void send_est(Slot& s, int r, bool b);
  /// Buffers one send; the tick's sends leave together at its end.
  void queue(Vote type, int r, bool b, const Slot& s);
  void flush();

  int t_;
  CoinSource& coin_;
  std::vector<Slot> slots_;         // seat order
  std::vector<std::uint32_t> seat_of_;  // wire position -> seat; empty before T
  bool laid_out_ = false;
  std::vector<Send> outbox_;
  bool flush_scheduled_ = false;
};

}  // namespace bobw
