// F2 — ΠVSS sharing latency (paper Theorem 4.16).
//
// Claims regenerated:
//   * sync + honest dealer: every honest party has its shares at T_VSS;
//   * sync + corrupt (late) dealer: no deadline, but all-or-nothing within
//     2Δ of each other (strong commitment);
//   * async + honest dealer: eventual, latency tracks real delays.
#include <algorithm>
#include <memory>

#include "bench/bench_util.hpp"
#include "src/bcast/bc_bank.hpp"
#include "src/vss/vss.hpp"
#include "tests/harness.hpp"
#include "tests/reference/legacy_vssplanes.hpp"

using namespace bobw;

namespace {

struct Sample {
  Tick first = 0, last = 0;
  int outputs = 0;
  double wall_ms = 0;  // host wall-clock of the whole simulated run
};

Sample run_vss(int n, NetMode mode, Tick dealer_delay, std::uint64_t seed, int L = 1) {
  const int ts = (n - 1) / 3;
  auto w = test::make_world(n, ts, 0, mode, nullptr, seed);
  std::vector<std::unique_ptr<Vss>> inst(static_cast<std::size_t>(n));
  std::vector<std::optional<Tick>> t(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& slot = t[static_cast<std::size_t>(i)];
    auto* world = &w;
    inst[static_cast<std::size_t>(i)] = std::make_unique<Vss>(
        w.party(i), "vss", 0, L, w.ctx, 0,
        [&slot, world](const std::vector<Fp>&) { slot = world->sim->now(); });
  }
  Rng rng(seed);
  std::vector<Poly> qs;
  for (int l = 0; l < L; ++l) qs.push_back(Poly::random(ts, rng));
  w.party(0).at(dealer_delay, [&] { inst[0]->deal(qs); });
  const auto t0 = std::chrono::steady_clock::now();
  w.sim->run();
  const auto t1 = std::chrono::steady_clock::now();
  Sample s;
  s.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  s.first = ~Tick{0};
  for (int i = 0; i < n; ++i) {
    if (!t[static_cast<std::size_t>(i)]) continue;
    ++s.outputs;
    s.first = std::min(s.first, *t[static_cast<std::size_t>(i)]);
    s.last = std::max(s.last, *t[static_cast<std::size_t>(i)]);
  }
  return s;
}

/// One full ΠVSS sharing at production scale on the given executor thread
/// count. Also reports the schedule-plane shape: how many shared Acast
/// states and SBA schedules one sharing registered (independent per-group
/// banks would pay 4n+4 of each), its ΠABA planes, the total honest message
/// count and the decode-cache hit rate.
struct BigSample {
  double wall_ms = 0;
  int outputs = 0;
  int plane_acasts = 0;
  int sba_schedules = 0;
  int aba_planes = 0;
  double msgs = 0;
  double decode_hit_rate = 0;
};

BigSample run_vss_big(int n, int threads, std::uint64_t seed) {
  const int ts = (n - 1) / 3;
  auto w = test::make_world(n, ts, 0, NetMode::kSynchronous, nullptr, seed);
  w.sim->set_threads(threads);
  std::vector<std::unique_ptr<Vss>> inst(static_cast<std::size_t>(n));
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    auto& flag = done[static_cast<std::size_t>(i)];
    inst[static_cast<std::size_t>(i)] = std::make_unique<Vss>(
        w.party(i), "vss", 0, 1, w.ctx, 0, [&flag](const std::vector<Fp>&) { flag = 1; });
  }
  Rng rng(seed);
  Poly q = Poly::random(ts, rng);
  w.party(0).at(0, [&] { inst[0]->deal({q}); });
  const auto t0 = std::chrono::steady_clock::now();
  w.sim->run();
  const auto t1 = std::chrono::steady_clock::now();
  BigSample s;
  s.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (char f : done) s.outputs += f;
  // The sharing's Acast state lives under its plane; its SBA schedules are
  // the party's run-wide ones, one per start tick (plane/sba:T).
  s.plane_acasts = test::count_banks(*w.sim, "/plane/").acast;
  s.sba_schedules = test::count_banks(*w.sim, "plane/sba").sba;
  s.aba_planes = test::count_banks(*w.sim).aba;
  s.msgs = static_cast<double>(w.sim->metrics().honest_msgs());
  const auto& cs = w.sim->decode_cache_stats();
  const double hits = static_cast<double>(cs.hits.load());
  const double misses = static_cast<double>(cs.misses.load());
  s.decode_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0;
  return s;
}

/// Transport-only same-binary comparison over EVERY broadcast/BA layer of a
/// sharing: the full plane traffic — ok grids, per-child and ΠVSS wef/★₂
/// broadcasts, ΠBA input bits — through the 4n+4-group schedule plane (one
/// Acast window, seven run-wide SBA schedules) vs every group on its own
/// bank with a private schedule (4n+4 Acast windows and 4n+4 SBA schedules,
/// tests/reference/legacy_vssplanes.hpp).
/// Identical bytes, identical Ctx; the quotient is the schedule-sharing win.
double run_plane_transport(int n, bool shared, std::uint64_t seed) {
  const int ts = (n - 1) / 3;
  auto w = test::make_world(n, ts, 0, NetMode::kSynchronous, nullptr, seed);
  const Ctx& ctx = w.ctx;
  const Tick child_ok = 3 * ctx.delta;
  const Tick child_wef = child_ok + ctx.T.t_bc;
  const Tick child_accept = child_ok + 2 * ctx.T.t_bc;
  const Tick child_star2 = child_accept + ctx.T.t_ba;
  const Tick ok_start = ctx.delta + ctx.T.t_wps;
  const Tick accept_time = ok_start + 2 * ctx.T.t_bc;
  std::vector<std::unique_ptr<BcBank>> planes(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<legacyvss::Planes>> legacy(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (shared) {
      planes[static_cast<std::size_t>(i)] = std::make_unique<BcBank>(
          w.party(i), "vss/plane",
          planelayout::sharing_plane_groups(n, /*dealer=*/0, /*vss_base=*/0, ctx, nullptr), ctx);
    } else {
      legacy[static_cast<std::size_t>(i)] =
          std::make_unique<legacyvss::Planes>(w.party(i), "vss", /*dealer=*/0, ctx, 0, nullptr);
    }
  }
  const Bytes ok{0x01};        // verdicts / BA bits: the common honest case
  const Bytes star{0x02, 0x7F};  // stands in for an encoded (W,E,F)
  for (int i = 0; i < n; ++i) {
    auto bcast = [&, i](int g, int s, const Bytes& m) {
      if (shared)
        planes[static_cast<std::size_t>(i)]->broadcast(g, s, m);
      else
        legacy[static_cast<std::size_t>(i)]->broadcast(g, s, m);
    };
    w.party(i).at(child_ok, [bcast, i, n, &ok] {
      for (int g = 0; g < n; ++g)
        for (int j = 0; j < n; ++j) bcast(g, i * n + j, ok);
    });
    w.party(i).at(child_wef, [bcast, i, n, &star] { bcast(n + 1 + i, 0, star); });
    w.party(i).at(child_accept, [bcast, i, n, &ok] {
      for (int g = 0; g < n; ++g) bcast(2 * n + 1 + g, i, ok);
    });
    w.party(i).at(child_star2, [bcast, i, n, &star] { bcast(3 * n + 1 + i, 0, star); });
    w.party(i).at(ok_start, [bcast, i, n, &ok] {
      for (int j = 0; j < n; ++j) bcast(n, i * n + j, ok);
    });
    if (i == 0) {
      w.party(i).at(ok_start + ctx.T.t_bc, [bcast, n, &star] { bcast(4 * n + 1, 0, star); });
      w.party(i).at(accept_time + ctx.T.t_ba,
                    [bcast, n, &star] { bcast(4 * n + 3, 0, star); });
    }
    w.party(i).at(accept_time, [bcast, i, n, &ok] { bcast(4 * n + 2, i, ok); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  w.sim->run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  // --emit-json <path>: also append a "vss_latency" section to the
  // BENCH_*.json perf-trajectory file (see bench/bench_util.hpp).
  std::string json_path = bench::parse_emit_json(argc, argv);
  std::vector<bench::JsonMetric> metrics;

  std::printf("F2: VSS share-delivery time (Delta units) — bound T_VSS\n");
  bench::rule();
  std::printf("%4s %11s | %16s | %22s | %16s\n", "n", "T_VSS bound", "sync honest D",
              "sync late D (spread)", "async honest D");
  bench::rule();
  for (int n : {4, 7, 10}) {
    const int ts = (n - 1) / 3;
    Timing T = Timing::compute(ts, 1000);
    auto sh = run_vss(n, NetMode::kSynchronous, 0, 1);
    auto sl = run_vss(n, NetMode::kSynchronous, 7000, 2);  // dealer 7Δ late
    auto ah = run_vss(n, NetMode::kAsynchronous, 0, 3);
    std::printf("%4d %11.1f | %16.1f | %10.1f (+%5.1f) | %16.1f\n", n, bench::in_delta(T.t_vss),
                bench::in_delta(sh.last), sl.outputs ? bench::in_delta(sl.last) : -1.0,
                sl.outputs ? bench::in_delta(sl.last - sl.first) : 0.0, bench::in_delta(ah.last));
    if (sh.last > T.t_vss)
      std::printf("     ^^ honest-dealer sync deadline violated — DIVERGES\n");
    const std::string suffix = "_n" + std::to_string(n);
    metrics.push_back({"t_vss_bound_delta" + suffix, bench::in_delta(T.t_vss)});
    metrics.push_back({"sync_honest_last_delta" + suffix, bench::in_delta(sh.last)});
    metrics.push_back({"async_honest_last_delta" + suffix, bench::in_delta(ah.last)});
  }
  bench::rule();
  std::printf("expectation: honest sync column <= T_VSS; late dealer exceeds the\n"
              "deadline but all honest parties finish within a small spread;\n"
              "async column finite (eventual delivery).\n\n");

  // Batched sharing: host wall-clock of a whole n = 7 sync honest-dealer run
  // as the batch width L grows. The protocol tick latency is L-independent;
  // the per-polynomial wall cost must flatten as the shared-grid kernels
  // (cached PointSets, the OEC bank) amortise across the batch.
  std::printf("batched sharing wall-clock (n = 7, sync, honest dealer)\n");
  bench::rule();
  std::printf("%6s | %12s | %14s\n", "L", "wall ms", "ms per poly");
  bench::rule();
  for (int L : {1, 16, 64}) {
    auto s = run_vss(7, NetMode::kSynchronous, 0, 4, L);
    std::printf("%6d | %12.2f | %14.3f\n", L, s.wall_ms, s.wall_ms / L);
    const std::string suffix = "_L" + std::to_string(L);
    metrics.push_back({"vss_wall_ms_n7" + suffix, s.wall_ms});
    metrics.push_back({"vss_wall_ms_per_poly_n7" + suffix, s.wall_ms / L});
  }
  bench::rule();

  // Production scale: one n = 64 sharing on the schedule plane with the
  // t+1 = 22-phase phase-king. Thread count 1 keeps the cache-rate metric
  // deterministic.
  std::printf("\nn = 64 sharing (sync, honest dealer) — the VSS schedule plane\n");
  bench::rule();
  std::printf("%10s | %8s | %7s | %9s | %10s | %10s | %10s\n", "wall ms", "outputs", "acasts",
              "SBA scheds", "ABA planes", "msgs", "cache hit");
  bench::rule();
  const BigSample big = run_vss_big(64, 1, 5);
  std::printf("%10.0f | %8d | %7d | %10d | %10d | %10.3g | %9.1f%%\n", big.wall_ms, big.outputs,
              big.plane_acasts, big.sba_schedules, big.aba_planes, big.msgs,
              100 * big.decode_hit_rate);
  bench::rule();
  metrics.push_back({"vss_wall_ms_n64", big.wall_ms});
  metrics.push_back({"vss_n64_ok_banks_delta", static_cast<double>(big.plane_acasts)});
  // Structural count, pinned EXACTLY in CI (--pin): one SBA schedule per
  // distinct layer start time of a sharing — seven, independent of n.
  metrics.push_back({"vss_n64_sba_schedules", static_cast<double>(big.sba_schedules)});
  // Also pinned: one ΠABA plane (plane/at:T/aba) per distinct ΠBA start of
  // a sharing — the dealer's ΠBA and the n child ΠWPS ΠBAs.
  metrics.push_back({"vss_n64_aba_planes", static_cast<double>(big.aba_planes)});
  metrics.push_back({"vss_n64_msgs_per_sharing", big.msgs});
  metrics.push_back({"vss_n64_decode_hit_rate", big.decode_hit_rate});

  // Schedule-sharing quotient: the SAME all-layers traffic — ok grids,
  // wef/★₂ stars, BA bits — through the 4n+4-group plane (1 Acast window,
  // 7 SBA schedules) vs one independent bank per group (4n+4 of each,
  // tests/reference/legacy_vssplanes.hpp). Single-threaded, so the floor
  // holds on 1-core CI hosts too.
  const double plane_ms = run_plane_transport(64, /*shared=*/true, 7);
  const double per_group_ms = run_plane_transport(64, /*shared=*/false, 7);
  const double sched_speedup = plane_ms > 0 ? per_group_ms / plane_ms : 0;
  std::printf("all-layers transport n = 64: plane %.0f ms, per-group banks %.0f ms — %.1fx\n",
              plane_ms, per_group_ms, sched_speedup);
  metrics.push_back({"vss_n64_sched_share_speedup", sched_speedup});

  if (!json_path.empty()) bench::emit_json_section(json_path, "vss_latency", metrics);
  return 0;
}
