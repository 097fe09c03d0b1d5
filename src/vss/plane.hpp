// The broadcast layers of the ΠWPS/ΠVSS skeleton and their place on a
// slot-multiplexed BcBank (the "schedule plane").
//
// One skeleton — a ΠWPS, or ΠVSS's own dealer layer — has four broadcast
// layers, all started relative to its ok-verdict start T0:
//     kOk      n² ok/NOK verdicts (slot i*n+j = Pi on Pj)   start T0
//     kWef     the dealer's (W,E,F)                         T0+T_BC
//     kBa      the ΠBA input bits (slot j = Pj's bit)       T0+2T_BC
//     kStar2   the dealer's (E',F')                         T0+2T_BC+T_BA
// A standalone ΠWPS puts exactly these four groups, in this order, on its
// own bank. One ΠVSS sharing puts its n child skeletons (dealer j, T0 =
// B+3Δ) and its own (T0 = B+Δ+T_WPS) on one 4n+4-group plane:
//     0..n-1   child-ΠWPS ok grids        (n² slots, start B+3Δ)
//     n        dealer ok grid             (n² slots, B+Δ+T_WPS)
//     n+1+j    child j wef                (1 slot,  B+3Δ+T_BC)
//     2n+1+j   child j ΠBA inputs         (n slots, B+3Δ+2T_BC)
//     3n+1+j   child j ★₂                 (1 slot,  B+Δ+T_WPS — equal to
//                                          the dealer grid's start, so the
//                                          two share one SBA seat)
//     4n+1     ΠVSS wef                   (1 slot,  B+Δ+T_WPS+T_BC)
//     4n+2     ΠVSS ΠBA inputs            (n slots, B+Δ+T_WPS+2T_BC)
//     4n+3     ΠVSS ★₂                    (1 slot,  B+Δ+T_WPS+2T_BC+T_BA)
// Seven distinct start times, so the plane takes seven seats, one on each
// of seven run-wide SBA schedules (SbaBank::at_tick), for any n. Every other
// bank of the run with the same start times — the sibling sharings of one
// ΠACS, say — sits on the same seven schedules.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <vector>

#include "src/bcast/bc_bank.hpp"
#include "src/core/timing.hpp"

namespace bobw {
namespace planelayout {

enum Layer { kOk = 0, kWef = 1, kBa = 2, kStar2 = 3 };
constexpr int kLayers = 4;

/// The bank group of each of one skeleton's layers, indexed by Layer.
using StarGroups = std::array<int, kLayers>;
/// A standalone skeleton's own four-group bank.
constexpr StarGroups kOwnGroups{0, 1, 2, 3};
/// Child j's (the Π(j)WPS) groups on a sharing's plane.
inline StarGroups child_groups(int n, int j) { return {j, n + 1 + j, 2 * n + 1 + j, 3 * n + 1 + j}; }
/// The ΠVSS dealer layer's groups on a sharing's plane.
inline StarGroups dealer_groups(int n) { return {n, 4 * n + 1, 4 * n + 2, 4 * n + 3}; }

/// Inverse of child_groups/dealer_groups: the owning child (-1 = the ΠVSS
/// dealer layer) and layer of plane group g.
struct Owner {
  int child;
  Layer layer;
};
Owner owner_of(int n, int g);

/// Handler for a whole bank: group index plus BcBank::Handler's arguments.
using PlaneHandler =
    std::function<void(int group, int slot, const std::optional<Bytes>& value, bool fallback)>;

/// Layer `l` of a skeleton dealt by `dealer` whose ok grid starts at `t0`.
BcBank::Group star_group(int n, int dealer, Tick t0, const Ctx& ctx, Layer l,
                         BcBank::Handler handler);

/// The 4n+4 groups of one sharing's plane (table above); every group's
/// handler forwards to `handler` with its group index (null handler: the
/// groups get none, for the caller to fill in).
std::vector<BcBank::Group> sharing_plane_groups(int n, int dealer, Tick vss_base, const Ctx& ctx,
                                                PlaneHandler handler);

}  // namespace planelayout
}  // namespace bobw
