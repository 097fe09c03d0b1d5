// Frozen reference wiring for the ΠVSS schedule plane. The group layout is
// not frozen here: it is planelayout::sharing_plane_groups
// (src/vss/plane.hpp), the same 4n+4 groups Vss builds its plane from. What
// this header keeps is the old transport: every group on its OWN ΠBC bank —
// its own AcastBank, its own private SBA schedule and the ΠBC rule — so
// 4n+4 Acast windows and 4n+4 SBA schedules, where the plane shares one
// Acast window and seven run-wide SBA schedules (one per distinct layer
// start time). A group cannot be a src/ BcBank: those seat their slots on
// the party's run-wide schedules (SbaBank::at_tick) and would silently
// share them. Every per-child and per-layer wiring the plane replaced sits
// between these two extremes, so the differential suite in
// tests/bc_bank_test.cpp (VssSchedulePlane.*) drives identical traffic
// through both and demands per-slot handlers, ticks and outputs
// tick-for-tick identical. Do not "fix" or consolidate the wiring here; it
// exists to stay costly the old way.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/bcast/bc_bank.hpp"
#include "src/core/timing.hpp"
#include "src/vss/plane.hpp"

namespace bobw {
namespace legacyvss {

/// One plane group as a self-contained ΠBC bank: the sender Acasts at T0,
/// the private schedule reads every slot's Acast output at T0+3Δ, and at
/// T0+T_BC a slot outputs m iff the Acast delivered m and the SBA decided
/// it; a ⊥ slot switches to the Acast value whenever it arrives (fallback).
class GroupBc {
 public:
  GroupBc(Party& party, const Addr& addr, BcBank::Group g, const Ctx& ctx)
      : senders_(g.senders.size()),
        handler_(std::move(g.handler)),
        regular_(senders_),
        current_(senders_),
        done_(senders_, 0) {
    const RouteId route = party.sim().routes().resolve(addr);
    acast_ = std::make_unique<AcastBank>(party, Addr(route, "acast"), std::move(g.senders),
                                         ctx.ts, ctx.delta,
                                         [this](int s, const Bytes& m) { on_acast(s, m); });
    sba_ = std::make_unique<SbaBank>(party, Addr(route, "sba"), ctx, g.start + 3 * ctx.delta);
    seat_ = sba_->enroll(route, static_cast<int>(senders_), [this](int s) -> std::uint32_t {
      const auto m = acast_->output(s);
      return m ? sba_->intern_input(wrap(*m)) : 0;
    });
    party.at(g.start + ctx.T.t_bc, [this] {
      for (std::size_t s = 0; s < senders_; ++s) decide(s);
    });
  }

  void broadcast(int slot, const Bytes& m) { acast_->start(slot, m); }
  std::optional<Bytes> output(int slot) const { return current_[static_cast<std::size_t>(slot)]; }

 private:
  static Bytes wrap(const Bytes& m) {
    Bytes b;
    b.reserve(m.size() + 1);
    b.push_back(0x01);
    b.insert(b.end(), m.begin(), m.end());
    return b;
  }

  void decide(std::size_t s) {
    done_[s] = 1;
    const auto m = acast_->output(static_cast<int>(s));
    const auto decided = sba_->output_vid(seat_, static_cast<int>(s));
    if (m && decided && *decided == sba_->intern_input(wrap(*m))) regular_[s] = current_[s] = m;
    if (handler_) handler_(static_cast<int>(s), regular_[s], /*fallback=*/false);
    if (!regular_[s] && m) on_acast(static_cast<int>(s), *m);
  }

  void on_acast(int slot, const Bytes& m) {
    const auto s = static_cast<std::size_t>(slot);
    if (!done_[s] || regular_[s] || current_[s]) return;
    current_[s] = m;
    if (handler_) handler_(slot, m, /*fallback=*/true);
  }

  std::size_t senders_;
  BcBank::Handler handler_;
  std::unique_ptr<AcastBank> acast_;
  std::unique_ptr<SbaBank> sba_;
  int seat_ = 0;
  std::vector<std::optional<Bytes>> regular_, current_;
  std::vector<char> done_;
};

/// One party's view of one sharing's broadcast layers with every plane
/// group on an independent bank. Same (group, slot) surface as the plane.
class Planes {
 public:
  using Handler =
      std::function<void(int group, int slot, const std::optional<Bytes>& value, bool fallback)>;

  Planes(Party& party, const Addr& addr, int dealer, const Ctx& ctx, Tick vss_base,
         Handler handler) {
    const RouteId route = party.sim().routes().resolve(addr);
    auto groups = planelayout::sharing_plane_groups(party.n(), dealer, vss_base, ctx,
                                                    std::move(handler));
    banks_.reserve(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g)
      banks_.push_back(std::make_unique<GroupBc>(party, Addr(route, "g", static_cast<int>(g)),
                                                 std::move(groups[g]), ctx));
  }

  void broadcast(int group, int slot, const Bytes& m) {
    banks_[static_cast<std::size_t>(group)]->broadcast(slot, m);
  }
  std::optional<Bytes> output(int group, int slot) const {
    return banks_[static_cast<std::size_t>(group)]->output(slot);
  }

 private:
  std::vector<std::unique_ptr<GroupBc>> banks_;  // one per plane group
};

}  // namespace legacyvss
}  // namespace bobw
