// ΠVSS — the best-of-both-worlds verifiable secret sharing protocol
// (paper §4.2, Fig 4, Theorem 4.16), generalised to L polynomials.
//
// Same skeleton as ΠWPS (StarCore, src/vss/star_core.hpp) with a second
// communication layer: instead of sending pairwise points directly, each Pj
// re-shares its row polynomials through its own ΠWPS instance; Pi's
// "received point" q_ji is the wps-share it computes in Π(j)WPS. This
// upgrade is what turns weak commitment into strong commitment: parties
// outside W interpolate their row from the wps-shares of any ts+1 parties
// of F, all of which are guaranteed correct.
//
// Schedule, relative to the publicly known base time B (Δ-aligned):
//   B                      dealer sends rows q_i(x) = Q^(ℓ)(x, α_i)
//   B+Δ                    each Pi deals its rows through Π(i)WPS
//   B+Δ+T_WPS              OK/NOK verdicts broadcast (one ΠBC per (i,j))
//   B+Δ+T_WPS+T_BC         dealer prunes, computes W, broadcasts (W,E,F)
//   B+Δ+T_WPS+2T_BC        accept check; ΠBA vote
//   +T_BA                  BA 0 -> shares via W / SS_i ⊆ F interpolation;
//                          BA 1 -> (n,ta)-star (E',F') path
//   T_VSS = Δ + T_WPS + 2 T_BC + T_BA
//
// Output at Pi: the L shares q^(ℓ)(α_i).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/bcast/bc_bank.hpp"
#include "src/vss/star_core.hpp"
#include "src/vss/wps.hpp"

namespace bobw {

class Vss : public StarCore {
 public:
  /// Builds the sharing's schedule plane, the n child ΠWPS instances (dealer
  /// j, base B+Δ) on it, and attaches its own four layers to the plane's
  /// dealer groups.
  Vss(Party& party, const Addr& addr, int dealer, int L, const Ctx& ctx,
      Tick base, Handler on_shares);

  /// Dealer-side, fully adversarial (fault injection).
  using StarCore::deal_rows_custom;

  void on_message(const Msg& m) override;

 private:
  void start_second_layer() override;
  const std::optional<std::vector<Fp>>& values_from(int j) const override {
    return wsh_[static_cast<std::size_t>(j)];
  }
  void complete_from(const std::vector<int>& providers) override;

  void on_wps_share(int j);
  void try_interpolate();

  // The whole sharing's broadcast/BA traffic — the (n+1)·n² ok-verdict
  // grids, the n+1 wef and ★₂ dealer broadcasts and the (n+1)·n ΠBA input
  // bits — rides ONE slot-multiplexed schedule plane: one Acast coalescing
  // window and one SBA schedule per distinct layer start time (seven for
  // the whole sharing, independent of n). Its 4n+4 groups are
  // planelayout::sharing_plane_groups (src/vss/plane.hpp).
  std::unique_ptr<BcBank> plane_;
  std::vector<std::unique_ptr<Wps>> wps_;            // n children, dealer j
  std::vector<std::optional<std::vector<Fp>>> wsh_;  // wsh_[j]: my shares in Π(j)WPS

  std::vector<char> provider_;
  bool interpolating_ = false;
};

}  // namespace bobw
