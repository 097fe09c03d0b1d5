// All protocol deadlines of the paper, derived from Δ and (n, ts, ta).
//
// The structure mirrors the paper exactly; two constants differ because of
// the documented substrate substitutions (README, "Substrate substitutions"):
//   T_BGP: we run 3-round phase-king with t+1 phases, so T_BGP = 3(t+1)Δ
//          (paper: recursive BGP with (12n−6)Δ);
//   T_ABA: our ABA decides within 2 coin rounds on unanimous inputs, so
//          T_ABA = 6Δ (paper: kΔ for a protocol-dependent constant k).
#pragma once

#include "src/sim/events.hpp"

namespace bobw {

class CoinSource;  // ba/coin.hpp

struct Timing {
  Tick delta = 0;
  Tick t_bgp = 0;      // SBA deadline (phase-king, t = ts)
  Tick t_bc = 0;       // ΠBC regular-mode deadline  = 3Δ + T_BGP
  Tick t_aba = 0;      // ΠABA unanimous-input deadline = 6Δ
  Tick t_ba = 0;       // ΠBA  = T_BC + T_ABA
  Tick t_wps = 0;      // ΠWPS = 2Δ + 2 T_BC + T_BA
  Tick t_vss = 0;      // ΠVSS = Δ + T_WPS + 2 T_BC + T_BA
  Tick t_acs = 0;      // ΠACS = T_VSS + 2 T_BA
  Tick t_tripsh = 0;   // ΠTripSh = T_ACS + 4Δ
  Tick t_tripgen = 0;  // ΠPreProcessing = T_TripSh + 2 T_BA + Δ

  static Timing compute(int ts, Tick delta);
};

/// Shared per-run protocol context: thresholds, network bound, deadline
/// table and the common-coin substrate. One Ctx is shared by every protocol
/// instance of a run.
struct Ctx {
  int n = 0;
  int ts = 0;  // synchronous corruption threshold (BC/BA layer runs at t=ts)
  int ta = 0;  // asynchronous corruption threshold
  Tick delta = 1000;
  Timing T;
  CoinSource* coin = nullptr;

  static Ctx make(int n, int ts, int ta, Tick delta, CoinSource* coin);
};

}  // namespace bobw
