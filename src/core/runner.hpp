// Public entry point: run the best-of-both-worlds MPC protocol end-to-end
// inside the simulator and collect outputs, timing and communication
// metrics. This is the API the examples and benches consume.
//
// Quickstart:
//   bobw::MpcConfig cfg;                    // n=4, ts=1, ta=0, synchronous
//   auto cir = bobw::circuits::sum_all(4);
//   auto res = bobw::run_mpc(cir, {x0,x1,x2,x3}, cfg);
//   res.outputs[i]  — party i's output (f evaluated over the CS inputs)
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/timing.hpp"
#include "src/mpc/circuit.hpp"
#include "src/sim/party.hpp"

namespace bobw {

struct MpcConfig {
  int n = 4;
  int ts = 1;
  int ta = 0;
  NetMode mode = NetMode::kSynchronous;
  Tick delta = 1000;
  /// Synchronous lower delay bound: delays drawn uniformly in [sync_min, Δ].
  /// 0 keeps the legacy NetConfig mapping (round-crisp at Δ <= 1000).
  Tick sync_min = 0;
  std::uint64_t seed = 1;
  /// Corrupt parties. Default behaviour: crash-silent. Pass a custom
  /// adversary for active behaviours.
  std::set<int> corrupt;
  /// Optional; overrides `corrupt`. validate() checks that its corrupt set
  /// names parties in [0, n), but not the network's threshold: a custom
  /// adversary may exceed it on purpose (`sabotage_scenario` does, to
  /// prove the fuzz harness detects violations).
  std::shared_ptr<Adversary> adversary;
  /// Asynchronous-mode delay band (ignored in synchronous mode).
  Tick async_min = 1, async_max = 4000;
  /// Hard stop (0 = none): simulation aborts after this many events.
  std::uint64_t max_events = 200'000'000ULL;
  /// Shard each Δ-window's parties across this many OS threads (see
  /// src/sim/executor.hpp), in both network modes. Traces stay
  /// bit-identical at any value. 1 = sequential.
  int threads = 1;
  /// Executor tuning: smallest due-delivery window worth sharding
  /// (0 = library default). Tests and benches lower it to force the
  /// parallel path onto small-n runs.
  std::size_t min_batch = 0;

  /// Validate n > 3ts + ta, ta <= ts, a corrupt set of ids in [0, n)
  /// within the network's threshold, and an adversary corrupting only ids
  /// in [0, n); throws std::invalid_argument.
  void validate() const;
};

struct MpcResult {
  /// First output value per party (nullopt = party never terminated).
  std::vector<std::optional<Fp>> outputs;
  /// Full output vector per party (multi-output circuits).
  std::vector<std::optional<std::vector<Fp>>> output_vectors;
  /// Local termination time per party.
  std::vector<Tick> finish_time;
  /// The agreed input set (from any honest party's view).
  std::vector<int> input_cs;
  std::uint64_t honest_bits = 0;
  std::uint64_t honest_msgs = 0;
  std::uint64_t events = 0;
  Tick end_time = 0;
  /// True iff the run hit max_events (or a time horizon) with events still
  /// pending — the results above are a partial prefix, not a protocol
  /// outcome. Callers MUST check this before trusting outputs.
  bool truncated = false;

  /// True iff every honest party terminated with the same output.
  bool all_honest_agree(const std::set<int>& corrupt) const;
};

/// Run ΠCirEval over `cir` with the given per-party inputs (size n).
MpcResult run_mpc(const Circuit& cir, const std::vector<Fp>& inputs, const MpcConfig& cfg);

}  // namespace bobw
