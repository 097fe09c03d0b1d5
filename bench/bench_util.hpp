// Shared helpers for the bench binaries: log-log slope fitting for
// communication exponents, table printing, the BENCH_*.json emitter and a
// wall-clock timer. Worlds come from the test harness (tests/harness.hpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/ticks.hpp"

namespace bobw::bench {

/// Least-squares slope of log(y) vs log(x) — the measured complexity
/// exponent compared against the paper's O(n^k) claims.
inline double loglog_slope(const std::vector<double>& xs, const std::vector<double>& ys) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double m = static_cast<double>(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double lx = std::log(xs[i]), ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  return (m * sxy - sx * sy) / (m * sxx - sx * sx);
}

/// Ticks expressed in units of the benches' network bound Δ = 1000, for
/// table printing.
inline double in_delta(Tick t) { return static_cast<double>(t) / 1000.0; }

inline void rule() { std::printf("%s\n", std::string(78, '-').c_str()); }

// ---------------------------------------------------------------------------
// BENCH_*.json emitter — the repo's perf-trajectory format.
//
// Each BENCH_<tag>.json file is one JSON object with one key per bench
// section, each section a flat {"metric": number} object:
//
//   {"micro_kernels": {"interpolate_n64_seed_ns": 123.4, ...},
//    "vss_latency":   {"sync_honest_last_delta_n10": 7.0, ...}}
//
// Sections are appended create-or-extend so several bench binaries can
// contribute to the same trajectory file; the appender only understands
// files it wrote itself (a trailing '}' object). Re-emitted sections are
// appended verbatim — JSON parsers take the last occurrence.
// ---------------------------------------------------------------------------

struct JsonMetric {
  std::string name;
  double value;
};

/// Scan argv for `--emit-json PATH` (the shared flag of every bench binary
/// that appends to a BENCH_*.json trajectory file). Returns the path, or ""
/// when the flag is absent; prints to stderr and exits 1 on a missing path.
inline std::string parse_emit_json(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--emit-json") continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "--emit-json requires an output path\n");
      std::exit(1);
    }
    return argv[i + 1];
  }
  return "";
}

inline void emit_json_section(const std::string& path, const std::string& section,
                              const std::vector<JsonMetric>& metrics) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  auto strip_ws = [&existing] {
    while (!existing.empty() && (existing.back() == '\n' || existing.back() == '\r' ||
                                 existing.back() == ' ' || existing.back() == '\t'))
      existing.pop_back();
  };
  // Remove exactly the top-level object's closing brace; anything else means
  // a file this emitter didn't write — start it over.
  strip_ws();
  if (!existing.empty() && existing.back() == '}') {
    existing.pop_back();
    strip_ws();
  } else {
    existing.clear();
  }
  std::ofstream out(path, std::ios::trunc);
  if (existing.empty() || existing == "{") {
    out << "{";
  } else {
    out << existing << ",";
  }
  out << "\n  \"" << section << "\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", metrics[i].value);
    out << (i ? ",\n    " : "\n    ") << "\"" << metrics[i].name << "\": " << buf;
  }
  out << "\n  }\n}\n";
  std::printf("wrote section \"%s\" (%zu metrics) to %s\n", section.c_str(), metrics.size(),
              path.c_str());
}

/// Median-of-repeats wall-clock timer for the seed-vs-kernel comparisons:
/// runs `fn` `iters` times per repeat and returns ns per iteration.
template <typename Fn>
double time_ns_per_iter(Fn&& fn, int iters, int repeats = 5) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(t1 - t0).count() /
        iters);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace bobw::bench
