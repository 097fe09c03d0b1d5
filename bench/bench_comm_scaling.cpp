// T2 — Communication-complexity exponents + message-plane throughput.
//
// Paper claims (bits sent by honest parties):
//   ΠACast O(n² ℓ)          (Lemma 2.4)
//   ΠBC    O(n² ℓ) for BGP; our phase-king substitute costs O(n³ ℓ) — the
//          *documented* substitution gap (README, "Substrate
//          substitutions"), expected slope ≈ 3
//   ΠWPS   O(n² L + n⁴ log F)   (Thm 4.8; the banked ok-grid shares one SBA
//          vector per round across all n² slots -> measured ≈ 3)
//   ΠVSS   O(n³ L + n⁵ log F)   (Thm 4.16; banked -> measured ≈ 4)
// We sweep n (ΠACast/ΠBC now up to n = 64, in all three scenario flavours:
// synchronous, asynchronous, and crash-adversary), measure honest bits, fit
// the log-log slope — and measure simulator *throughput* (events/sec), both
// on the full protocol stack and on a pure message-plane flood.
//
// Since PR 5 it also measures the ok-verdict broadcast grid both ways in the
// same binary: n² ΠBC slots on the slot-multiplexed BcBank versus n²
// independent per-pair Bc instances (the frozen pre-bank path in
// tests/reference/legacy_bcgrid.hpp, from the bobw_reference library). The
// message-count reduction and the wall-clock ratio are the machine-portable
// before/after claims gated in CI.
//
// With --emit-json PATH, appends the "comm_scaling" section consumed by the
// CI bench-quick job (BENCH_pr5.json).
#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "bench/bench_util.hpp"
#include "src/bcast/bc_bank.hpp"
#include "src/vss/vss.hpp"
#include "src/vss/wire.hpp"
#include "src/vss/wps.hpp"
#include "tests/harness.hpp"
#include "tests/reference/acast.hpp"
#include "tests/reference/legacy_bcgrid.hpp"

using namespace bobw;

namespace {

struct Run {
  double bits = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
};

Run measure_acast(int n, std::size_t ell_bytes, NetMode mode,
                  std::shared_ptr<Adversary> adv = nullptr) {
  auto t0 = std::chrono::steady_clock::now();
  auto w = test::make_world(n, (n - 1) / 3, 0, mode, std::move(adv));
  std::vector<std::unique_ptr<Acast>> inst(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (!w.runs_code(i)) continue;
    inst[static_cast<std::size_t>(i)] =
        std::make_unique<Acast>(w.party(i), "acast", 0, (n - 1) / 3, nullptr);
  }
  Bytes m(ell_bytes, 0x5A);
  w.party(0).at(0, [&] { inst[0]->start(m); });
  Run r;
  r.events = w.sim->run();
  auto t1 = std::chrono::steady_clock::now();
  r.bits = static_cast<double>(w.sim->metrics().honest_bits());
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

Run measure_bc(int n, std::size_t ell_bytes, NetMode mode = NetMode::kSynchronous,
               std::shared_ptr<Adversary> adv = nullptr) {
  auto t0 = std::chrono::steady_clock::now();
  auto w = test::make_world(n, (n - 1) / 3, 0, mode, std::move(adv));
  std::vector<std::unique_ptr<BcBank>> inst(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (!w.runs_code(i)) continue;
    inst[static_cast<std::size_t>(i)] =
        std::make_unique<BcBank>(w.party(i), "bc", std::vector<int>{0}, w.ctx, 0, nullptr);
  }
  Bytes m(ell_bytes, 0x5A);
  w.party(0).at(0, [&] { inst[0]->broadcast(0, m); });
  Run r;
  r.events = w.sim->run();
  auto t1 = std::chrono::steady_clock::now();
  r.bits = static_cast<double>(w.sim->metrics().honest_bits());
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

Run measure_wps(int n) {
  const int ts = (n - 1) / 3, ta = std::max(0, n - 3 * ts - 1);
  auto t0 = std::chrono::steady_clock::now();
  auto w = test::make_world(n, ts, std::min(ta, ts), NetMode::kSynchronous);
  std::vector<std::unique_ptr<Wps>> inst(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    inst[static_cast<std::size_t>(i)] =
        std::make_unique<Wps>(w.party(i), "wps", 0, 1, w.ctx, 0, nullptr);
  Rng rng(1);
  Poly q = Poly::random(ts, rng);
  w.party(0).at(0, [&] { inst[0]->deal({q}); });
  Run r;
  r.events = w.sim->run();
  auto t1 = std::chrono::steady_clock::now();
  r.bits = static_cast<double>(w.sim->metrics().honest_bits());
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

// ---------------------------------------------------------------------------
// The ΠWPS/ΠVSS ok-verdict grid, both ways in one binary: n² ΠBC slots (slot
// i*n+j = Pi's 1-byte OK verdict on Pj, one shared start time — exactly the
// pairwise-consistency broadcast workload) on the BcBank versus n²
// independent per-pair Bc instances from
// tests/reference/legacy_bcgrid.hpp.
// ---------------------------------------------------------------------------

struct GridRun {
  std::uint64_t msgs = 0;
  double bits = 0;
  double wall_ms = 0;
};

GridRun grid_banked(int n) {
  auto t0 = std::chrono::steady_clock::now();
  auto w = test::make_world(n, (n - 1) / 3, 0, NetMode::kSynchronous);
  const Bytes verdict = wire::encode_verdict(wire::Verdict{});
  std::vector<int> senders(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) senders[static_cast<std::size_t>(i * n + j)] = i;
  std::vector<std::unique_ptr<BcBank>> inst(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    inst[static_cast<std::size_t>(i)] =
        std::make_unique<BcBank>(w.party(i), "ok", senders, w.ctx, 0, nullptr);
  for (int i = 0; i < n; ++i)
    w.party(i).at(0, [&, i] {
      for (int j = 0; j < n; ++j) inst[static_cast<std::size_t>(i)]->broadcast(i * n + j, verdict);
    });
  w.sim->run();
  auto t1 = std::chrono::steady_clock::now();
  GridRun r;
  r.msgs = w.sim->metrics().honest_msgs();
  r.bits = static_cast<double>(w.sim->metrics().honest_bits());
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

GridRun grid_perpair(int n) {
  auto t0 = std::chrono::steady_clock::now();
  auto w = test::make_world(n, (n - 1) / 3, 0, NetMode::kSynchronous);
  const Bytes verdict = wire::encode_verdict(wire::Verdict{});
  std::vector<std::vector<std::unique_ptr<legacybc::Bc>>> inst(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    inst[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (int s = 0; s < n * n; ++s)
      inst[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)] =
          std::make_unique<legacybc::Bc>(w.party(i), "ok:" + std::to_string(s), s / n, w.ctx, 0,
                                         nullptr);
  }
  for (int i = 0; i < n; ++i)
    w.party(i).at(0, [&, i] {
      for (int j = 0; j < n; ++j)
        inst[static_cast<std::size_t>(i)][static_cast<std::size_t>(i * n + j)]->broadcast(verdict);
    });
  w.sim->run();
  auto t1 = std::chrono::steady_clock::now();
  GridRun r;
  r.msgs = w.sim->metrics().honest_msgs();
  r.bits = static_cast<double>(w.sim->metrics().honest_bits());
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

double measure_vss(int n) {
  const int ts = (n - 1) / 3;
  auto w = test::make_world(n, ts, 0, NetMode::kSynchronous);
  std::vector<std::unique_ptr<Vss>> inst(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    inst[static_cast<std::size_t>(i)] =
        std::make_unique<Vss>(w.party(i), "vss", 0, 1, w.ctx, 0, nullptr);
  Rng rng(1);
  Poly q = Poly::random(ts, rng);
  w.party(0).at(0, [&] { inst[0]->deal({q}); });
  w.sim->run();
  return static_cast<double>(w.sim->metrics().honest_bits());
}

// ---------------------------------------------------------------------------
// Pure message-plane flood: one hop-H
// broadcast seeds it; each party re-broadcasts the FIRST message it sees of
// each hop level, so every level costs exactly n send_alls = n² messages.
// No field arithmetic, no protocol logic — events/sec here is the message
// plane and nothing else.
// ---------------------------------------------------------------------------

class Flood : public Instance {
 public:
  Flood(Party& p, int levels)
      : Instance(p, "flood"), seen_(static_cast<std::size_t>(levels + 1), 0) {}
  void on_message(const Msg& m) override {
    if (m.type <= 0) return;
    auto& s = seen_[static_cast<std::size_t>(m.type)];
    if (s) return;
    s = 1;
    send_all(m.type - 1, m.body);  // shares the in-flight payload
  }

 private:
  std::vector<char> seen_;
};

struct FloodResult {
  std::uint64_t events = 0;
  double events_per_sec = 0;
};

// Protocol-weight flood for the window-executor measurement: same topology as
// Flood, plus a deterministic per-delivery body scan (an FNV-1a pass)
// standing in for the handler work real protocol messages do (decode, field
// ops, state updates). Handler work runs in the parallel execute phase;
// RNG/metrics/enqueue stay in the sequential merge — so this workload
// measures exactly what the executor parallelises. The digest feeds `sink_`
// so the scan cannot be dead-code-eliminated.
class HeavyFlood : public Instance {
 public:
  HeavyFlood(Party& p, int levels)
      : Instance(p, "flood"), seen_(static_cast<std::size_t>(levels + 1), 0) {}
  void on_message(const Msg& m) override {
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : m.body.bytes()) h = (h ^ c) * 1099511628211ULL;
    sink_ ^= h;
    if (m.type <= 0) return;
    auto& s = seen_[static_cast<std::size_t>(m.type)];
    if (s) return;
    s = 1;
    send_all(m.type - 1, m.body);
  }
  std::uint64_t sink() const { return sink_; }

 private:
  std::vector<char> seen_;
  std::uint64_t sink_ = 0;
};

// One HeavyFlood run at a given thread count; threads=1 is the sequential
// engine, threads=N the window executor — same binary, same workload, so the
// events/sec quotient is the machine-portable executor speedup.
FloodResult flood_heavy(int n, int levels, std::size_t ell, int threads) {
  NetConfig net;  // defaults: sync, round-crisp Δ = 1000
  auto t0 = std::chrono::steady_clock::now();
  Sim sim(n, net, /*seed=*/42);
  sim.set_threads(threads);
  Bytes body(ell, 0xA5);
  std::vector<std::unique_ptr<HeavyFlood>> inst;
  for (int i = 0; i < n; ++i) inst.push_back(std::make_unique<HeavyFlood>(sim.party(i), levels));
  sim.party(0).at(0, [&] { sim.party(0).send_all("flood", levels, body); });
  FloodResult r;
  r.events = sim.run();
  auto t1 = std::chrono::steady_clock::now();
  r.events_per_sec =
      static_cast<double>(r.events) / std::chrono::duration<double>(t1 - t0).count();
  // Fold the handler digests in so the FNV pass stays live at any -O level.
  std::uint64_t sink = 0;
  for (const auto& f : inst) sink ^= f->sink();
  if (sink == 0xDEADBEEF) std::printf("(unreachable digest)\n");
  return r;
}

FloodResult flood(int n, int levels, std::size_t ell) {
  NetConfig net;  // defaults: sync, round-crisp Δ = 1000
  auto t0 = std::chrono::steady_clock::now();
  Sim sim(n, net, /*seed=*/42);
  Bytes body(ell, 0xA5);
  std::vector<std::unique_ptr<Flood>> inst;
  for (int i = 0; i < n; ++i) inst.push_back(std::make_unique<Flood>(sim.party(i), levels));
  sim.party(0).at(0, [&] { sim.party(0).send_all("flood", levels, body); });
  FloodResult r;
  r.events = sim.run();
  auto t1 = std::chrono::steady_clock::now();
  r.events_per_sec =
      static_cast<double>(r.events) / std::chrono::duration<double>(t1 - t0).count();
  return r;
}

void report(const char* name, const std::vector<double>& ns, const std::vector<double>& bits,
            double paper_exp, double our_exp) {
  double slope = bobw::bench::loglog_slope(ns, bits);
  std::printf("%-8s", name);
  for (std::size_t i = 0; i < ns.size(); ++i) std::printf(" n=%-2.0f:%10.3g", ns[i], bits[i]);
  std::printf("   slope %.2f (paper %.0f, ours %.0f)\n", slope, paper_exp, our_exp);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_emit_json(argc, argv);
  std::vector<bench::JsonMetric> metrics;

  std::printf("T2: honest-party communication vs n (log-log slope = exponent)\n");
  bobw::bench::rule();

  {
    std::vector<double> ns, bits;
    for (int n : {4, 8, 16, 32, 64}) {
      ns.push_back(n);
      bits.push_back(measure_acast(n, 512, NetMode::kSynchronous).bits);
    }
    report("ACast", ns, bits, 2, 2);
    metrics.push_back({"acast_slope_x100", bench::loglog_slope(ns, bits) * 100});
    metrics.push_back({"acast_bits_n64", bits.back()});
  }
  std::uint64_t bc16_events = 0, bc64_events = 0;
  double bc16_ms = 0, bc64_ms = 0;
  {
    std::vector<double> ns, bits;
    for (int n : {4, 8, 16, 32, 64}) {
      ns.push_back(n);
      Run r = measure_bc(n, 512);
      bits.push_back(r.bits);
      if (n == 16) {
        bc16_events = r.events;
        bc16_ms = r.wall_ms;
      }
      if (n == 64) {
        bc64_events = r.events;
        bc64_ms = r.wall_ms;
      }
    }
    report("BC", ns, bits, 2, 3);
    metrics.push_back({"bc_slope_x100", bench::loglog_slope(ns, bits) * 100});
    metrics.push_back({"bc_bits_n64", bits.back()});
  }
  {
    std::vector<double> ns, bits;
    for (int n : {4, 7, 10}) {
      ns.push_back(n);
      bits.push_back(measure_wps(n).bits);
    }
    report("WPS", ns, bits, 4, 3);
  }
  {
    std::vector<double> ns, bits;
    for (int n : {4, 7, 10}) {
      ns.push_back(n);
      bits.push_back(measure_vss(n));
    }
    report("VSS", ns, bits, 5, 4);
  }
  bobw::bench::rule();

  // Full-stack simulator throughput: the BC scenario is message-plane-bound
  // (hash-free routing and shared payloads dominate its profile).
  std::printf("sim throughput (full ΠBC stack): n=16 %7.3g ev/s   n=64 %7.3g ev/s\n",
              static_cast<double>(bc16_events) / (bc16_ms / 1e3),
              static_cast<double>(bc64_events) / (bc64_ms / 1e3));
  metrics.push_back({"sim_events_per_sec_n16",
                     static_cast<double>(bc16_events) / (bc16_ms / 1e3)});
  metrics.push_back({"sim_events_per_sec_n64",
                     static_cast<double>(bc64_events) / (bc64_ms / 1e3)});

  // n = 64 scenario sweep: synchronous, asynchronous and crash-adversary
  // flavours of the ΠACast/ΠBC layers. The synchronous BC n=64 run is the
  // one already timed in the slope loop above — no need to repeat the
  // heaviest scenario; the sweep total composes the three wall times.
  {
    Run async = measure_acast(64, 512, NetMode::kAsynchronous);
    auto crash_adv = test::crash({1, 5, 9, 13, 17});
    Run crash = measure_acast(64, 512, NetMode::kSynchronous, crash_adv);
    const double sweep_ms = bc64_ms + async.wall_ms + crash.wall_ms;
    std::printf("n=64 sweep (BC sync + ACast async + ACast crash): %.1f ms, %llu events\n",
                sweep_ms,
                static_cast<unsigned long long>(bc64_events + async.events + crash.events));
    metrics.push_back({"sweep_wall_ms_n64", sweep_ms});
    metrics.push_back({"acast_async_bits_n64", async.bits});
    metrics.push_back({"acast_crash_bits_n64", crash.bits});
  }

  // The ok-verdict broadcast grid, banked vs per-pair, same binary. The
  // message-count ratio is fully deterministic; the wall ratio is the
  // machine-portable speedup claim (ISSUE 5 gates: >= 5x messages, >= 2x
  // wall at n = 16).
  bobw::bench::rule();
  for (int n : {8, 16}) {
    GridRun banked = grid_banked(n);
    GridRun perpair = grid_perpair(n);
    const double msg_ratio =
        static_cast<double>(perpair.msgs) / static_cast<double>(banked.msgs);
    const double wall_ratio = perpair.wall_ms / banked.wall_ms;
    std::printf(
        "ok-grid n=%-2d (%4d slots): banked %8llu msgs %8.1f ms   per-pair %9llu msgs %8.1f ms"
        "   msgs/batched %.1fx   wall %.1fx\n",
        n, n * n, static_cast<unsigned long long>(banked.msgs), banked.wall_ms,
        static_cast<unsigned long long>(perpair.msgs), perpair.wall_ms, msg_ratio, wall_ratio);
    std::string tag = "n";
    tag += std::to_string(n);
    metrics.push_back({"okgrid_msgs_" + tag, static_cast<double>(banked.msgs)});
    metrics.push_back({"okgrid_msgs_perpair_" + tag, static_cast<double>(perpair.msgs)});
    metrics.push_back({"okgrid_msg_reduction_" + tag + "_speedup", msg_ratio});
    metrics.push_back({"okgrid_wall_" + tag + "_speedup", wall_ratio});
  }
  // Full ΠWPS sharings at grid scale — affordable now that the ok-grid is
  // banked (the n = 32 grid is 1024 slots).
  {
    Run wps16 = measure_wps(16);
    Run wps32 = measure_wps(32);
    std::printf("wps sharing wall: n=16 %.1f ms   n=32 %.1f ms\n", wps16.wall_ms, wps32.wall_ms);
    metrics.push_back({"wps_wall_ms_n16", wps16.wall_ms});
    metrics.push_back({"wps_wall_ms_n32", wps32.wall_ms});
    metrics.push_back({"wps_bits_n32", wps32.bits});
  }

  // Message-plane flood throughput (raw events/sec; the plane itself is
  // pinned by the golden traces).
  bobw::bench::rule();
  for (int n : {16, 64}) {
    const int levels = n == 16 ? 1200 : 90;  // ~300-370k messages either way
    const FloodResult r = flood(n, levels, 256);
    std::printf("msgplane flood n=%-2d: %9.3g ev/s\n", n, r.events_per_sec);
    metrics.push_back({"msgplane_events_per_sec_n" + std::to_string(n), r.events_per_sec});
  }

  // Window-executor throughput: the protocol-weight flood at n = 64 on the
  // sequential engine vs the parallel executor, same binary (the ISSUE 7
  // acceptance gate — >= 2x — rides on this ratio; CI measures it on a
  // multi-core runner). A 1-core host can only measure the executor's
  // overhead, not a speedup, so the mt metrics are not emitted there at all
  // — a committed 1-core BENCH_*.json would otherwise record a misleading
  // ratio (compare_bench.py downgrades the floor on such hosts to match).
  {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw >= 2) {
      const int mt_threads = static_cast<int>(std::min(8u, hw));
      const int levels = 90;  // ~370k messages at n = 64
      // One seq/par pair swings widely on a shared host, so the gate reads
      // the median of kPairs alternating pairs (each pair's own quotient).
      constexpr int kPairs = 5;
      std::vector<double> seq_eps, par_eps, ratio;
      for (int k = 0; k < kPairs; ++k) {
        seq_eps.push_back(flood_heavy(64, levels, 256, /*threads=*/1).events_per_sec);
        par_eps.push_back(flood_heavy(64, levels, 256, mt_threads).events_per_sec);
        ratio.push_back(par_eps.back() / seq_eps.back());
      }
      auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
      };
      const double mt_speedup = median(ratio);
      std::printf(
          "window executor n=64: threads=1 %9.3g ev/s   threads=%d %9.3g ev/s   speedup %.2fx"
          "   (%u hw threads; medians of %d pairs, pair speedups",
          median(seq_eps), mt_threads, median(par_eps), mt_speedup, hw, kPairs);
      for (double r : ratio) std::printf(" %.2f", r);
      std::printf(")\n");
      metrics.push_back({"msgplane_mt_threads", static_cast<double>(mt_threads)});
      metrics.push_back({"msgplane_mt_events_per_sec_n64", median(par_eps)});
      metrics.push_back({"msgplane_mt_n64_speedup", mt_speedup});
    } else {
      std::printf("window executor n=64: skipped (1 hw thread — no mt speedup to measure)\n");
    }
  }

  bobw::bench::rule();
  std::printf(
      "'ours': BC pays +1 over the paper for the recursive-BGP -> phase-king\n"
      "substitution (README, \"Substrate substitutions\"); WPS/VSS pay -1\n"
      "versus the paper's n^4/n^5 broadcast terms because the banked ok-grid\n"
      "shares one SBA vector per round across all n^2 slots and groups\n"
      "identical verdict values.\n");

  if (!json_path.empty()) bench::emit_json_section(json_path, "comm_scaling", metrics);
  return 0;
}
