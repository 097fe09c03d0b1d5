// Frozen reference wiring for the ΠVSS schedule plane: one sharing's
// 4n+4 broadcast/BA groups (planelayout::sharing_plane_groups below, the
// exact layout src/vss/vss.cpp builds) each on its OWN standalone
// single-group BcBank — 4n+4 Acast windows and 4n+4 SBA schedules, where
// the plane shares one Acast window and seven SBA schedules (one per
// distinct layer start time). Every per-child and per-layer wiring the
// plane replaced sits between these two extremes, so the differential suite
// in tests/bc_bank_test.cpp (VssSchedulePlane.*) drives identical traffic
// through both and demands per-slot handlers, ticks and outputs
// tick-for-tick identical. Do not "fix" or consolidate anything here; it
// exists to stay costly the old way.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/bcast/bc_bank.hpp"
#include "src/core/timing.hpp"

namespace bobw {

namespace planelayout {

/// Group layout of one sharing's schedule plane, identical to the one
/// src/vss/vss.cpp builds (handlers replaced by one dispatch function):
///     0..n-1   child-ΠWPS ok grids        (n² slots, start B+3Δ)
///     n        dealer ok grid             (n² slots, B+Δ+T_WPS)
///     n+1+j    child j wef                (1 slot,  B+3Δ+T_BC)
///     2n+1+j   child j ΠBA inputs         (n slots, B+3Δ+2T_BC)
///     3n+1+j   child j ★₂                 (1 slot,  B+Δ+T_WPS)
///     4n+1     ΠVSS wef                   (1 slot,  B+Δ+T_WPS+T_BC)
///     4n+2     ΠVSS ΠBA inputs            (n slots, B+Δ+T_WPS+2T_BC)
///     4n+3     ΠVSS ★₂                    (1 slot,  B+Δ+T_WPS+2T_BC+T_BA)
/// Test/bench drivers build the plane bank from this so their differential
/// traffic hits the exact production layout.
inline std::vector<BcBank::Group> sharing_plane_groups(
    int n, int dealer, Tick vss_base, const Ctx& ctx,
    std::function<void(int group, int slot, const std::optional<Bytes>& value, bool fallback)>
        handler) {
  const Tick child_ok = vss_base + 3 * ctx.delta;
  const Tick ok_start = vss_base + ctx.delta + ctx.T.t_wps;
  const Tick accept_time = ok_start + 2 * ctx.T.t_bc;
  std::vector<int> grid(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      grid[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(j)] = i;
  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) everyone[static_cast<std::size_t>(j)] = j;
  auto fwd = [handler](int group) {
    return [handler, group](int slot, const std::optional<Bytes>& v, bool fb) {
      if (handler) handler(group, slot, v, fb);
    };
  };
  std::vector<BcBank::Group> groups;
  groups.reserve(4 * static_cast<std::size_t>(n) + 4);
  for (int j = 0; j < n; ++j) groups.push_back({grid, child_ok, fwd(j)});
  groups.push_back({grid, ok_start, fwd(n)});
  for (int j = 0; j < n; ++j)
    groups.push_back({std::vector<int>{j}, child_ok + ctx.T.t_bc, fwd(n + 1 + j)});
  for (int j = 0; j < n; ++j)
    groups.push_back({everyone, child_ok + 2 * ctx.T.t_bc, fwd(2 * n + 1 + j)});
  for (int j = 0; j < n; ++j)
    groups.push_back({std::vector<int>{j}, ok_start, fwd(3 * n + 1 + j)});
  groups.push_back({std::vector<int>{dealer}, ok_start + ctx.T.t_bc, fwd(4 * n + 1)});
  groups.push_back({everyone, accept_time, fwd(4 * n + 2)});
  groups.push_back({std::vector<int>{dealer}, accept_time + ctx.T.t_ba, fwd(4 * n + 3)});
  return groups;
}

}  // namespace planelayout

namespace legacyvss {

/// One party's view of one sharing's broadcast layers with every plane
/// group on an independent bank. Same (group, slot) surface as the plane.
class Planes {
 public:
  using Handler =
      std::function<void(int group, int slot, const std::optional<Bytes>& value, bool fallback)>;

  Planes(Party& party, const std::string& id, int dealer, const Ctx& ctx, Tick vss_base,
         Handler handler) {
    auto groups = planelayout::sharing_plane_groups(party.n(), dealer, vss_base, ctx,
                                                    std::move(handler));
    banks_.reserve(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g)
      banks_.push_back(std::make_unique<BcBank>(party, sub_id(id, std::to_string(g)),
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
