#include "src/core/runner.hpp"

#include <stdexcept>

#include "src/ba/coin.hpp"
#include "src/mpc/cir_eval.hpp"

namespace bobw {

void MpcConfig::validate() const {
  if (n < 4) throw std::invalid_argument("MpcConfig: need n >= 4");
  if (ta > ts) throw std::invalid_argument("MpcConfig: need ta <= ts");
  if (3 * ts + ta >= n) throw std::invalid_argument("MpcConfig: need 3*ts + ta < n");
  if (static_cast<int>(corrupt.size()) > (mode == NetMode::kSynchronous ? ts : ta))
    throw std::invalid_argument("MpcConfig: corrupt set exceeds the network's threshold");
  for (int c : corrupt)
    if (c < 0 || c >= n) throw std::invalid_argument("MpcConfig: corrupt id outside [0, n)");
  if (adversary)
    for (int c : adversary->corrupt_set())
      if (c < 0 || c >= n)
        throw std::invalid_argument("MpcConfig: adversary corrupts an id outside [0, n)");
}

bool MpcResult::all_honest_agree(const std::set<int>& corrupt) const {
  std::optional<Fp> seen;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (corrupt.count(static_cast<int>(i))) continue;
    if (!outputs[i]) return false;
    if (seen && *seen != *outputs[i]) return false;
    seen = outputs[i];
  }
  return seen.has_value();
}

MpcResult run_mpc(const Circuit& cir, const std::vector<Fp>& inputs, const MpcConfig& cfg) {
  cfg.validate();
  if (static_cast<int>(inputs.size()) != cfg.n)
    throw std::invalid_argument("run_mpc: one input per party required");

  std::shared_ptr<Adversary> adv = cfg.adversary;
  if (!adv && !cfg.corrupt.empty()) {
    adv = std::make_shared<CrashAdversary>();
    for (int c : cfg.corrupt) adv->corrupt(c);
  }

  NetConfig net;
  net.mode = cfg.mode;
  net.delta = cfg.delta;
  net.async_min = cfg.async_min;
  net.async_max = cfg.async_max;
  if (cfg.sync_min > 0) net.sync_min_delay = cfg.sync_min;
  net.clamp_sync_min();

  Sim sim(cfg.n, net, cfg.seed, adv);
  sim.set_threads(cfg.threads, cfg.min_batch);
  IdealCoin coin(mix64(cfg.seed ^ 0xBEEF));
  Ctx ctx = Ctx::make(cfg.n, cfg.ts, cfg.ta, cfg.delta, &coin);

  MpcResult res;
  res.outputs.resize(static_cast<std::size_t>(cfg.n));
  res.output_vectors.resize(static_cast<std::size_t>(cfg.n));
  res.finish_time.assign(static_cast<std::size_t>(cfg.n), 0);

  std::vector<std::shared_ptr<CirEval>> sessions(static_cast<std::size_t>(cfg.n));
  for (int i = 0; i < cfg.n; ++i) {
    const bool runs = sim.honest(i) || (adv && adv->participates(i));
    if (!runs) continue;
    sessions[static_cast<std::size_t>(i)] = std::make_shared<CirEval>(
        sim.party(i), "mpc", cir, inputs[static_cast<std::size_t>(i)], ctx, /*base=*/0,
        [&res, &sim, i](const std::vector<Fp>& y) {
          res.outputs[static_cast<std::size_t>(i)] = y[0];
          res.output_vectors[static_cast<std::size_t>(i)] = y;
          res.finish_time[static_cast<std::size_t>(i)] = sim.now();
        });
    sim.party(i).own(sessions[static_cast<std::size_t>(i)]);
  }

  res.events = sim.run(~Tick{0}, cfg.max_events);
  res.truncated = sim.truncated();
  res.end_time = sim.now();
  res.honest_bits = sim.metrics().honest_bits();
  res.honest_msgs = sim.metrics().honest_msgs();
  for (int i = 0; i < cfg.n; ++i) {
    const auto& s = sessions[static_cast<std::size_t>(i)];
    if (s && sim.honest(i) && s->input_cs()) {
      res.input_cs = *s->input_cs();
      break;
    }
  }
  return res;
}

}  // namespace bobw
