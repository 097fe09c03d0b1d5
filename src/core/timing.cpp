#include "src/core/timing.hpp"

namespace bobw {

Timing Timing::compute(int ts, Tick delta) {
  Timing t;
  t.delta = delta;
  t.t_bgp = 3 * static_cast<Tick>(ts + 1) * delta;
  t.t_bc = 3 * delta + t.t_bgp;
  t.t_aba = 6 * delta;
  t.t_ba = t.t_bc + t.t_aba;
  t.t_wps = 2 * delta + 2 * t.t_bc + t.t_ba;
  t.t_vss = delta + t.t_wps + 2 * t.t_bc + t.t_ba;
  t.t_acs = t.t_vss + 2 * t.t_ba;
  t.t_tripsh = t.t_acs + 4 * delta;
  t.t_tripgen = t.t_tripsh + 2 * t.t_ba + delta;
  return t;
}

Ctx Ctx::make(int n, int ts, int ta, Tick delta, CoinSource* coin) {
  Ctx c;
  c.n = n;
  c.ts = ts;
  c.ta = ta;
  c.delta = delta;
  c.T = Timing::compute(ts, delta);
  c.coin = coin;
  return c;
}

}  // namespace bobw
