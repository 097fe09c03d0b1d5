// Frozen reference wiring for the ΠVSS schedule plane. The group layout is
// not frozen here: it is planelayout::sharing_plane_groups
// (src/vss/plane.hpp), the same 4n+4 groups Vss builds its plane from. What
// this header keeps is the old transport: every group on its OWN standalone
// single-group BcBank — 4n+4 Acast windows and 4n+4 SBA schedules, where the
// plane shares one Acast window and seven SBA schedules (one per distinct
// layer start time). Every per-child and per-layer wiring the plane
// replaced sits between these two extremes, so the differential suite in
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
      banks_.push_back(std::make_unique<BcBank>(party, Addr(route, "g", static_cast<int>(g)),
                                                std::move(groups[g].senders), ctx,
                                                groups[g].start, std::move(groups[g].handler)));
  }

  void broadcast(int group, int slot, const Bytes& m) {
    banks_[static_cast<std::size_t>(group)]->broadcast(slot, m);
  }
  std::optional<Bytes> output(int group, int slot) const {
    return banks_[static_cast<std::size_t>(group)]->output(slot);
  }

 private:
  std::vector<std::unique_ptr<BcBank>> banks_;  // one per plane group
};

}  // namespace legacyvss
}  // namespace bobw
