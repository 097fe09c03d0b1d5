// bobw_cli — run the best-of-both-worlds MPC protocol on a circuit
// described in a text file, with a chosen network type, fault set and
// inputs. The fifth example application, and the tool a downstream user
// would reach for first.
//
// Usage:
//   bobw_cli --circuit FILE --inputs a,b,c,... [--mode sync|async]
//            [--ts K] [--ta K] [--corrupt i,j,...] [--seed S] [--delta D]
//
// Exit status: 0 iff the honest parties agree; 1 on a circuit or config
// error (such as a corrupt id outside [0, n)); 2 with the usage line on a
// missing, unknown or malformed argument.
//
// Try:
//   ./build/bobw_cli --circuit examples/circuits/quickstart.cir --inputs 3,4,5,6 --corrupt 3
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "src/core/runner.hpp"
#include "src/mpc/circuit_io.hpp"

using namespace bobw;

namespace {

/// Stores the whole of `s` as a decimal T; false on an empty string, a stray
/// character, a sign T cannot hold, or overflow.
template <typename T>
bool set_num(std::string_view s, T& out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return !s.empty() && ec == std::errc() && ptr == end;
}

/// Comma-separated decimals into `out`; false if any item is malformed.
template <typename T>
bool set_list(const char* s, std::vector<T>& out) {
  out.clear();
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    T v{};
    if (!set_num(item, v)) return false;
    out.push_back(v);
  }
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: bobw_cli --circuit FILE --inputs a,b,... [--mode sync|async]\n"
               "                [--ts K] [--ta K] [--corrupt i,j,...] [--seed S] [--delta D]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string circuit_path, mode_str = "sync";
  std::vector<std::uint64_t> input_values;
  std::vector<int> corrupt_ids;
  MpcConfig cfg;
  cfg.ts = -1;  // sentinel: derive defaults from n
  cfg.ta = -1;

  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    bool ok = true;
    if (auto v = arg("--circuit")) circuit_path = v;
    else if (auto v2 = arg("--inputs")) ok = set_list(v2, input_values);
    else if (auto v3 = arg("--mode")) {
      mode_str = v3;
      ok = mode_str == "sync" || mode_str == "async";
    } else if (auto v4 = arg("--ts")) ok = set_num(v4, cfg.ts) && cfg.ts >= 0;
    else if (auto v5 = arg("--ta")) ok = set_num(v5, cfg.ta) && cfg.ta >= 0;
    else if (auto v6 = arg("--corrupt")) ok = set_list(v6, corrupt_ids);
    else if (auto v7 = arg("--seed")) ok = set_num(v7, cfg.seed);
    else if (auto v8 = arg("--delta")) ok = set_num(v8, cfg.delta);
    else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return usage();
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: %s\n", argv[i - 1], argv[i]);
      return usage();
    }
  }
  if (circuit_path.empty() || input_values.empty()) return usage();

  std::ifstream f(circuit_path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", circuit_path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << f.rdbuf();

  Circuit cir(1);
  try {
    cir = parse_circuit(buf.str());
  } catch (const CircuitParseError& e) {
    std::fprintf(stderr, "%s: %s\n", circuit_path.c_str(), e.what());
    return 1;
  }

  cfg.n = cir.n_parties();
  if (cfg.ts < 0) cfg.ts = (cfg.n - 1) / 3;
  if (cfg.ta < 0) cfg.ta = std::min(cfg.ts, std::max(0, cfg.n - 3 * cfg.ts - 1));
  cfg.mode = mode_str == "async" ? NetMode::kAsynchronous : NetMode::kSynchronous;
  cfg.corrupt.insert(corrupt_ids.begin(), corrupt_ids.end());

  std::vector<Fp> inputs;
  for (auto v : input_values) inputs.push_back(Fp(v));
  if (static_cast<int>(inputs.size()) != cfg.n) {
    std::fprintf(stderr, "expected %d inputs, got %zu\n", cfg.n, inputs.size());
    return 1;
  }

  MpcResult res;
  try {
    res = run_mpc(cir, inputs, cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "config error: %s\n", e.what());
    return 1;
  }

  std::printf("n=%d ts=%d ta=%d mode=%s  c_M=%d D_M=%d  corrupt={", cfg.n, cfg.ts, cfg.ta,
              cfg.mode == NetMode::kSynchronous ? "sync" : "async", cir.mult_count(),
              cir.mult_depth());
  bool first = true;
  for (int c : cfg.corrupt) {
    std::printf("%s%d", first ? "" : ",", c);
    first = false;
  }
  std::printf("}\n");

  std::printf("input set CS:");
  for (int j : res.input_cs) std::printf(" P%d", j);
  std::printf("\n");
  for (int i = 0; i < cfg.n; ++i) {
    if (!res.output_vectors[static_cast<std::size_t>(i)]) {
      std::printf("P%d: no output (corrupt or not terminated)\n", i);
      continue;
    }
    std::printf("P%d @ %6.1fΔ:", i,
                double(res.finish_time[static_cast<std::size_t>(i)]) / double(cfg.delta));
    for (const auto& y : *res.output_vectors[static_cast<std::size_t>(i)])
      std::printf(" %llu", static_cast<unsigned long long>(y.value()));
    std::printf("\n");
  }
  std::printf("honest traffic: %llu msgs, %llu bits; agreement: %s\n",
              static_cast<unsigned long long>(res.honest_msgs),
              static_cast<unsigned long long>(res.honest_bits),
              res.all_honest_agree(cfg.corrupt) ? "yes" : "NO");
  return res.all_honest_agree(cfg.corrupt) ? 0 : 1;
}
