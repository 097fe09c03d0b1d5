// M1–M3: substrate micro-benchmarks (google-benchmark), plus the
// seed-vs-kernel comparison suite behind --emit-json that records the
// BENCH_*.json perf trajectory (see bench/bench_util.hpp for the format).
//
//   ./bench_micro                        # google-benchmark harness
//   ./bench_micro --emit-json OUT.json   # comparison suite -> "micro_kernels"
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.hpp"
#include "src/field/fp.hpp"
#include "src/field/kernels.hpp"
#include "src/field/poly.hpp"
#include "src/graph/star.hpp"
#include "src/rs/oec_bank.hpp"
#include "src/vss/wire.hpp"
#include "tests/reference/reference.hpp"
#include "tests/reference/scalar_decoder.hpp"

namespace bobw {
namespace {

// ---------------------------------------------------------------- fixtures --

struct Points {
  std::vector<Fp> xs, ys;
};

Points points_on_random_poly(int d, int count, std::uint64_t seed) {
  Rng rng(seed);
  Poly q = Poly::random(d, rng);
  Points p;
  for (int k = 0; k < count; ++k) {
    p.xs.push_back(alpha(k));
    p.ys.push_back(q.eval(alpha(k)));
  }
  return p;
}

// One arrival into either OEC; true once it has decoded.
bool feed(ref::Oec& oec, Fp x, Fp y) {
  oec.add_point(x, y);
  return oec.done();
}
bool feed(OecBank& oec, Fp x, Fp y) {
  oec.add_point(x, std::span<const Fp>(&y, 1));
  return oec.all_done();
}

// Stream an n-point opening with the full t corrupt points arriving first —
// the decoder's worst case — through the seed ref::Oec or a one-lane OecBank.
template <typename OecT>
void run_oec_stream(OecT oec, int n, int t, const Points& p) {
  for (int k = 0; k < n; ++k) {
    Fp y = p.ys[static_cast<std::size_t>(k)];
    if (k < t) y += Fp(9);
    if (feed(oec, p.xs[static_cast<std::size_t>(k)], y)) break;
  }
}

// An L-lane batched opening over the shared α-grid: lane l's points lie on
// its own random degree-d polynomial, and the first `corrupt_first` senders
// deliver corrupt values in EVERY lane (the "t corrupt parties" shape).
struct BankPoints {
  std::vector<Fp> xs;
  std::vector<std::vector<Fp>> ys;  // ys[k] = the L lane values of sender k
};

BankPoints bank_points(int n, int d, int L, int corrupt_first, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Poly> qs;
  for (int l = 0; l < L; ++l) qs.push_back(Poly::random(d, rng));
  BankPoints p;
  p.ys.assign(static_cast<std::size_t>(n), std::vector<Fp>(static_cast<std::size_t>(L)));
  for (int k = 0; k < n; ++k) {
    p.xs.push_back(alpha(k));
    for (int l = 0; l < L; ++l) {
      Fp y = qs[static_cast<std::size_t>(l)].eval(alpha(k));
      if (k < corrupt_first) y += Fp(static_cast<std::uint64_t>(9 + l));
      p.ys[static_cast<std::size_t>(k)][static_cast<std::size_t>(l)] = y;
    }
  }
  return p;
}

// The PR 2 per-instance path: L independent incremental OECs, each arrival
// fed to every not-yet-done lane, values read per lane — exactly what the
// batched consumers did before OecBank.
Fp run_per_instance(const BankPoints& p, int d, int t, int L) {
  std::vector<OecBank> oecs;
  oecs.reserve(static_cast<std::size_t>(L));
  for (int l = 0; l < L; ++l) oecs.emplace_back(d, t, 1);
  for (std::size_t k = 0; k < p.xs.size(); ++k) {
    bool all_done = true;
    for (int l = 0; l < L; ++l) {
      auto& oec = oecs[static_cast<std::size_t>(l)];
      if (!oec.all_done()) feed(oec, p.xs[k], p.ys[k][static_cast<std::size_t>(l)]);
      all_done = all_done && oec.all_done();
    }
    if (all_done) break;
  }
  Fp acc(0);
  for (int l = 0; l < L; ++l)
    acc += oecs[static_cast<std::size_t>(l)].result(0)->constant_term();
  return acc;
}

Fp run_bank(const BankPoints& p, int d, int t, int L) {
  OecBank bank(d, t, L);
  for (std::size_t k = 0; k < p.xs.size() && !bank.all_done(); ++k)
    bank.add_point(p.xs[k], p.ys[k]);
  Fp acc(0);
  for (int l = 0; l < L; ++l) acc += bank.value(l);
  return acc;
}

// -------------------------------------------------- google-benchmark suite --

void BM_FieldMul(benchmark::State& state) {
  Rng rng(1);
  Fp a = Fp::random(rng), b = Fp::random(rng);
  for (auto _ : state) {
    a = a * b + a;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldInv(benchmark::State& state) {
  Rng rng(2);
  Fp a = Fp::random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.inv());
    a += Fp(1);
  }
}
BENCHMARK(BM_FieldInv);

void BM_BatchInverse(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<Fp> xs;
  for (int i = 0; i < k; ++i) xs.push_back(Fp::random(rng));
  for (auto _ : state) {
    std::vector<Fp> ys = xs;
    batch_inverse(ys);
    benchmark::DoNotOptimize(ys);
  }
}
BENCHMARK(BM_BatchInverse)->Arg(8)->Arg(64);

void BM_Interpolate(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  auto p = points_on_random_poly(d, d + 1, 3);
  for (auto _ : state) benchmark::DoNotOptimize(Poly::interpolate(p.xs, p.ys));
}
BENCHMARK(BM_Interpolate)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(63);

void BM_PointSetCachedEval(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  auto p = points_on_random_poly(d, d + 1, 6);
  PointSet ps(p.xs);
  for (auto _ : state) benchmark::DoNotOptimize(ps.eval(p.ys, Fp(0)));
}
BENCHMARK(BM_PointSetCachedEval)->Arg(8)->Arg(21)->Arg(63);

void BM_RsDecode(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0)), e = static_cast<int>(state.range(1));
  auto p = points_on_random_poly(d, d + 2 * e + 1, 4);
  for (int k = 0; k < e; ++k) p.ys[static_cast<std::size_t>(k)] += Fp(7);
  for (auto _ : state) benchmark::DoNotOptimize(rs_decode(d, e, p.xs, p.ys));
}
BENCHMARK(BM_RsDecode)->Args({2, 2})->Args({4, 4})->Args({8, 8});

void BM_OecDecodeStream(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3, d = t;
  auto p = points_on_random_poly(d, n, 8);
  for (auto _ : state) run_oec_stream(OecBank(d, t, 1), n, t, p);
}
BENCHMARK(BM_OecDecodeStream)->Arg(16)->Arg(64);

void BM_OecBankOpen(benchmark::State& state) {
  const int n = 64, t = (n - 1) / 3, d = t;
  const int L = static_cast<int>(state.range(0));
  auto p = bank_points(n, d, L, 0, 21);
  for (auto _ : state) benchmark::DoNotOptimize(run_bank(p, d, t, L));
}
BENCHMARK(BM_OecBankOpen)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_StarFinding(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  Graph g(n);
  for (int u = 0; u < n - t; ++u)
    for (int v = u + 1; v < n - t; ++v) g.add_edge(u, v);
  for (auto _ : state) benchmark::DoNotOptimize(find_star(g, t));
}
BENCHMARK(BM_StarFinding)->Arg(7)->Arg(13)->Arg(25);

// ------------------------------------------- seed-vs-kernel emission suite --

// The acceptance kernels at n = 64 (ts = d = t = 21): Lagrange
// interpolation, share opening, and the OEC decode stream, each timed
// against the frozen scalar seed path from tests/reference/reference.hpp.
int emit_comparison(const std::string& path) {
  std::vector<bench::JsonMetric> out;
  const int n = 64;
  const int t = (n - 1) / 3, d = t;
  auto push = [&out](const std::string& name, double seed_ns, double kernel_ns) {
    out.push_back({name + "_seed_ns", seed_ns});
    out.push_back({name + "_kernel_ns", kernel_ns});
    out.push_back({name + "_speedup", seed_ns / kernel_ns});
    std::printf("%-24s seed %12.0f ns   kernel %12.0f ns   speedup %6.1fx\n", name.c_str(),
                seed_ns, kernel_ns, seed_ns / kernel_ns);
  };

  {  // Full-width interpolation through n points.
    auto p = points_on_random_poly(n - 1, n, 11);
    double seed = bench::time_ns_per_iter(
        [&] { benchmark::DoNotOptimize(ref::interpolate(p.xs, p.ys)); }, 10);
    double kernel = bench::time_ns_per_iter(
        [&] { benchmark::DoNotOptimize(Poly::interpolate(p.xs, p.ys)); }, 200);
    push("interpolate_n64", seed, kernel);
  }

  {  // Share opening: L = 64 batched secrets over the same t+1 providers
     // (the ΠVSS SS-set path) — seed rebuilds weights + inverts per secret,
     // kernel reuses one cached weight vector.
    const int L = 64;
    auto p = points_on_random_poly(t, t + 1, 12);
    std::vector<std::vector<Fp>> batches(L, p.ys);
    double seed = bench::time_ns_per_iter(
        [&] {
          Fp acc(0);
          for (const auto& ys : batches) acc += ref::lagrange_eval(p.xs, ys, Fp(0));
          benchmark::DoNotOptimize(acc);
        },
        20);
    double kernel = bench::time_ns_per_iter(
        [&] {
          auto ps = pointset(p.xs);
          Fp acc(0);
          for (const auto& ys : batches) acc += ps->eval(ys, Fp(0));
          benchmark::DoNotOptimize(acc);
        },
        200);
    push("open_L64_n64", seed, kernel);
  }

  {  // Batched inversion of n elements.
    Rng rng(13);
    std::vector<Fp> xs;
    for (int i = 0; i < n; ++i) xs.push_back(Fp::random(rng));
    double seed = bench::time_ns_per_iter(
        [&] {
          std::vector<Fp> ys = xs;
          for (auto& y : ys) y = y.inv();
          benchmark::DoNotOptimize(ys);
        },
        100);
    double kernel = bench::time_ns_per_iter(
        [&] {
          std::vector<Fp> ys = xs;
          batch_inverse(ys);
          benchmark::DoNotOptimize(ys);
        },
        100);
    push("batch_inverse_n64", seed, kernel);
  }

  {  // OEC decode of one share over an n-party stream, t corrupt-first.
    auto p = points_on_random_poly(d, n, 14);
    double seed =
        bench::time_ns_per_iter([&] { run_oec_stream(ref::Oec(d, t), n, t, p); }, 2, 3);
    double kernel =
        bench::time_ns_per_iter([&] { run_oec_stream(OecBank(d, t, 1), n, t, p); }, 10, 3);
    push("oec_decode_n64", seed, kernel);
  }

  {  // L = 64 batched opening, honest senders: the OEC bank against the
     // PR 2 per-instance path (L independent incremental OECs). This is the
     // shape every VSS open / Beaver opening / output reconstruction has.
    const int L = 64;
    auto p = bank_points(n, d, L, 0, 15);
    double perinst = bench::time_ns_per_iter(
        [&] { benchmark::DoNotOptimize(run_per_instance(p, d, t, L)); }, 20);
    double bank = bench::time_ns_per_iter(
        [&] { benchmark::DoNotOptimize(run_bank(p, d, t, L)); }, 100);
    push("bank_open_L64_n64", perinst, bank);
  }

  {  // Same opening with the full t corrupt senders arriving first in every
     // lane — the error path's batched Berlekamp–Welch elimination.
    const int L = 64;
    auto p = bank_points(n, d, L, t, 16);
    double perinst = bench::time_ns_per_iter(
        [&] { benchmark::DoNotOptimize(run_per_instance(p, d, t, L)); }, 1, 3);
    double bank = bench::time_ns_per_iter(
        [&] { benchmark::DoNotOptimize(run_bank(p, d, t, L)); }, 2, 3);
    push("bank_open_err_L64_n64", perinst, bank);
  }

  {  // Per-lane cost of an honest batched open as L grows: the bank's
     // shared-grid work amortises, so the curve must flatten towards the
     // L = 64 point (the per-instance path is flat by construction).
    for (int L : {1, 4, 16, 64}) {
      auto p = bank_points(n, d, L, 0, 17);
      double bank = bench::time_ns_per_iter(
          [&] { benchmark::DoNotOptimize(run_bank(p, d, t, L)); }, L >= 16 ? 100 : 400);
      out.push_back({"bank_open_perlane_ns_L" + std::to_string(L), bank / L});
      std::printf("%-24s %12.0f ns/lane\n",
                  ("bank_open_perlane_L" + std::to_string(L)).c_str(), bank / L);
    }
  }

  {  // A ΠTripSh dealer's rows at n = 7, ts = 2 (about 1000 per recipient
     // on mult-heavy): the point round evaluates all of them at every α_j.
     // Kernel: one eval_rows per point; seed: a Poly::eval loop.
    const int n7 = 7, ts = 2;
    const std::size_t L = 1024, m = ts + 1;
    Rng rng(18);
    RowBlock block(L, m);
    std::vector<Poly> polys;
    for (std::size_t l = 0; l < L; ++l) {
      for (auto& c : block.row(l)) c = Fp::random(rng);
      polys.emplace_back(std::vector<Fp>(block.row(l).begin(), block.row(l).end()));
    }
    std::vector<Fp> vals(L);
    double seed = bench::time_ns_per_iter(
        [&] {
          for (int j = 0; j < n7; ++j)
            for (std::size_t l = 0; l < L; ++l) vals[l] = polys[l].eval(alpha(j));
          benchmark::DoNotOptimize(vals.data());
        },
        200);
    double kernel = bench::time_ns_per_iter(
        [&] {
          for (int j = 0; j < n7; ++j) eval_rows(block, alpha(j), vals.data());
          benchmark::DoNotOptimize(vals.data());
        },
        200);
    push("eval_rows_L1024_n7", seed, kernel);

    // One recipient's dealer payload through the wire: encode + decode.
    double codec = bench::time_ns_per_iter(
        [&] {
          auto dec = wire::decode_rows(wire::encode_rows(block), static_cast<int>(L), ts);
          benchmark::DoNotOptimize(dec);
        },
        200);
    out.push_back({"rows_codec_L1024_ns", codec});
    std::printf("%-24s %12.0f ns\n", "rows_codec_L1024", codec);
  }

  bench::emit_json_section(path, "micro_kernels", out);
  return 0;
}

}  // namespace
}  // namespace bobw

int main(int argc, char** argv) {
  if (std::string path = bobw::bench::parse_emit_json(argc, argv); !path.empty())
    return bobw::emit_comparison(path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
