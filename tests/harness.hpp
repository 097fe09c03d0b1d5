// Shared test scaffolding: builds simulators in each network mode and hosts
// per-party protocol sessions.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/ba/coin.hpp"
#include "src/core/timing.hpp"
#include "src/sim/party.hpp"

namespace bobw::test {

struct World {
  std::unique_ptr<Sim> sim;
  std::shared_ptr<Adversary> adv;
  std::unique_ptr<IdealCoin> coin;
  Ctx ctx;

  Party& party(int i) { return sim->party(i); }
  bool honest(int i) const { return sim->honest(i); }
  int n() const { return ctx.n; }

  /// Should party i run protocol code? (honest, or corrupt-but-active)
  bool runs_code(int i) const {
    if (honest(i)) return true;
    return adv && adv->participates(i);
  }
};

inline World make_world(int n, int ts, int ta, NetMode mode,
                        std::shared_ptr<Adversary> adv = nullptr,
                        std::uint64_t seed = 42, Tick delta = 1000) {
  World w;
  NetConfig net;
  net.mode = mode;
  net.delta = delta;
  net.clamp_sync_min();
  w.adv = std::move(adv);
  w.sim = std::make_unique<Sim>(n, net, seed, w.adv);
  w.coin = std::make_unique<IdealCoin>(seed ^ 0xC01AULL);
  w.ctx = Ctx::make(n, ts, ta, delta, w.coin.get());
  return w;
}

/// Corrupt parties that run honest code unmodified.
inline std::shared_ptr<Adversary> passive(std::initializer_list<int> corrupt) {
  auto a = std::make_shared<PassiveAdversary>();
  for (int c : corrupt) a->corrupt(c);
  return a;
}

/// Corrupt parties that stay silent.
inline std::shared_ptr<Adversary> crash(std::initializer_list<int> corrupt) {
  auto a = std::make_shared<CrashAdversary>();
  for (int c : corrupt) a->corrupt(c);
  return a;
}

/// Banks holding cross-party state (Sim::shared_state) on routes whose name
/// contains `within`: ACast banks (".../acast", one per BcBank) and SBA
/// schedules (a last segment "sba" or "sba:T"). Every BcBank rides the
/// run-wide schedule of its start tick T, "plane/sba:T", which no bank's
/// route contains: count those with `within` = "" or "plane/sba". A private
/// ".../sba" schedule belongs to a frozen reference. `aba` counts the ΠABA
/// planes, one per distinct ΠABA start tick T at "plane/at:T/aba" (they
/// keep no shared state, so they are counted from the route table).
struct BankCount {
  int acast = 0, sba = 0, aba = 0;
};
inline BankCount count_banks(const Sim& sim, std::string_view within = "") {
  BankCount c;
  for (const std::string& name : sim.shared_state_keys()) {
    if (name.find(within) == std::string::npos) continue;
    const std::string_view last = std::string_view(name).substr(name.rfind('/') + 1);
    if (last == "acast") ++c.acast;
    if (last == "sba" || last.rfind("sba:", 0) == 0) ++c.sba;
  }
  const RouteTable& routes = sim.routes();
  for (RouteId r = 0; r < routes.size(); ++r) {
    const std::string& name = routes.name(r);
    if (name.find(within) == std::string::npos || name.rfind("plane/at:", 0) != 0) continue;
    if (std::string_view(name).substr(name.rfind('/') + 1) == "aba") ++c.aba;
  }
  return c;
}

}  // namespace bobw::test
