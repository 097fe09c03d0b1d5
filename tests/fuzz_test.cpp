// Seed-reproducible property fuzzer over the adversary zoo.
//
// Default mode (gtest): FuzzDriver.Block expands and runs a block of
// scenarios from a fixed master seed and fails if any P1–P4 invariant is
// violated, printing for every violation a single-line repro:
//
//   REPRO: fuzz_test --fuzz_seed=N    # re-runs exactly that scenario
//
// ctest runs the default block as four 250-seed shards (CMakeLists.txt);
// FuzzSanity.BlockCoverage checks the whole block's coverage floor from the
// scenario expansions alone.
//
// Flags (parsed by the custom main below, composable with --gtest_*):
//   --fuzz_seed=N           run the single scenario N, print its report, exit
//   --fuzz_master=N         first seed of the block (default 20260808)
//   --fuzz_count=K          block size (default 1000)
//   --fuzz_jobs=J           run scenarios on J worker threads (default 1).
//                           Scenarios are self-contained sims, so sharding is
//                           embarrassingly parallel; reports are replayed on
//                           the main thread in seed order, so the FAIL/REPRO
//                           output and the verdict are identical at any J.
//   --fuzz_failures_file=P  append failing seeds to P, one per line
//
// FuzzSanity covers the harness itself: a deliberately over-budget adversary
// (sabotage_scenario) must be reported, deterministically, with the same
// one-line repro contract — a fuzzer that cannot see planted violations is
// vacuous.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/scenario.hpp"

namespace bobw {
namespace {

std::uint64_t g_master = 20260808;
std::uint64_t g_count = 1000;
std::uint64_t g_jobs = 1;
std::string g_failures_file;

struct Coverage {
  std::set<int> kinds, profiles, mals;
  int max_n = 0;
  int sched_victim = 0, sched_partition = 0, mobile = 0, dealer_corrupt = 0;
  int vss_big_corrupt_dealer = 0;  // kVss, n >= 6, party 0 (the dealer) corrupt

  void tally(const Scenario& s) {
    kinds.insert(static_cast<int>(s.kind));
    profiles.insert(static_cast<int>(s.profile));
    max_n = std::max(max_n, s.n);
    for (const auto& [p, plan] : s.plans) {
      mals.insert(static_cast<int>(plan.kind));
      if (p == 0) {
        ++dealer_corrupt;
        if (s.kind == ScenarioKind::kVss && s.n >= 6) ++vss_big_corrupt_dealer;
      }
    }
    if (s.sched.victim >= 0) ++sched_victim;
    if (!s.sched.side_of.empty()) ++sched_partition;
    if (s.mobile.period > 0) ++mobile;
  }
};

// Runs one scenario; on violation prints the describe() line, each violation
// and the one-line repro. Returns the report.
ScenarioReport run_one(std::uint64_t seed, bool sabotage) {
  const Scenario s = sabotage ? sabotage_scenario(seed) : expand_scenario(seed);
  // Mid-size sims get the two-phase window executor; when scenarios are
  // already sharded across fuzz jobs each sim stays single-threaded so the
  // machine is not oversubscribed. Reports are thread-count-invariant
  // (FuzzSanity.RunsDeterministicAcrossThreads), so the verdict is the same.
  const int threads = g_jobs > 1 ? 1 : (s.n >= 6 ? 2 : 1);
  const ScenarioReport rep = run_scenario(s, threads);
  if (!rep.violations.empty()) {
    std::printf("FAIL %s\n", s.describe().c_str());
    for (const auto& v : rep.violations) std::printf("  violation: %s\n", v.c_str());
    std::printf("REPRO: fuzz_test --fuzz_seed=%llu%s\n",
                static_cast<unsigned long long>(seed), sabotage ? " (sabotage)" : "");
    std::fflush(stdout);
  }
  return rep;
}

TEST(FuzzDriver, Block) {
  std::vector<std::uint64_t> failing;
  const std::uint64_t jobs = std::max<std::uint64_t>(1, g_jobs);
  if (jobs == 1) {
    for (std::uint64_t i = 0; i < g_count; ++i) {
      const std::uint64_t seed = g_master + i;
      if (!run_one(seed, /*sabotage=*/false).violations.empty()) failing.push_back(seed);
      if ((i + 1) % 100 == 0) {
        std::printf("fuzz: %llu/%llu scenarios, %zu failing\n",
                    static_cast<unsigned long long>(i + 1),
                    static_cast<unsigned long long>(g_count), failing.size());
        std::fflush(stdout);
      }
    }
  } else {
    // Sharded mode: every scenario is a self-contained Sim, so workers claim
    // seeds from an atomic cursor and drop reports into per-seed slots. The
    // main thread then replays the slots IN SEED ORDER — the FAIL/REPRO
    // lines, the failing list and the verdict are byte-identical to jobs=1.
    std::vector<ScenarioReport> slots(static_cast<std::size_t>(g_count));
    std::atomic<std::uint64_t> next{0}, done{0};
    std::mutex print_mu;
    auto worker = [&] {
      for (;;) {
        const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= g_count) return;
        slots[static_cast<std::size_t>(i)] =
            run_scenario(expand_scenario(g_master + i));
        const std::uint64_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (d % 100 == 0) {
          std::lock_guard<std::mutex> lk(print_mu);
          std::printf("fuzz: %llu/%llu scenarios (%llu jobs)\n",
                      static_cast<unsigned long long>(d),
                      static_cast<unsigned long long>(g_count),
                      static_cast<unsigned long long>(jobs));
          std::fflush(stdout);
        }
      }
    };
    std::vector<std::thread> pool;
    for (std::uint64_t j = 1; j < jobs; ++j) pool.emplace_back(worker);
    worker();
    for (auto& t : pool) t.join();
    for (std::uint64_t i = 0; i < g_count; ++i) {
      const std::uint64_t seed = g_master + i;
      const Scenario s = expand_scenario(seed);
      const ScenarioReport& rep = slots[static_cast<std::size_t>(i)];
      if (rep.violations.empty()) continue;
      std::printf("FAIL %s\n", s.describe().c_str());
      for (const auto& v : rep.violations) std::printf("  violation: %s\n", v.c_str());
      std::printf("REPRO: fuzz_test --fuzz_seed=%llu\n",
                  static_cast<unsigned long long>(seed));
      std::fflush(stdout);
      failing.push_back(seed);
    }
  }
  if (!failing.empty() && !g_failures_file.empty()) {
    std::ofstream f(g_failures_file, std::ios::app);
    for (std::uint64_t seed : failing) f << seed << "\n";
  }
  EXPECT_TRUE(failing.empty())
      << failing.size() << " scenario(s) violated P1-P4; seeds printed above as "
      << "'REPRO: fuzz_test --fuzz_seed=N'";
}

// Coverage floor: a block big enough must exercise every axis of the zoo.
// Expansion alone decides it, so this checks the block [fuzz_master,
// fuzz_master + fuzz_count) without running it (ctest runs the block itself
// as seed-range shards, each too small for the floor).
TEST(FuzzSanity, BlockCoverage) {
  Coverage cov;
  for (std::uint64_t i = 0; i < g_count; ++i) cov.tally(expand_scenario(g_master + i));
  if (g_count >= 500) {
    EXPECT_EQ(cov.kinds.size(), 3u) << "scenario kinds not all sampled";
    EXPECT_EQ(cov.profiles.size(), 3u) << "network profiles not all sampled";
    EXPECT_EQ(cov.mals.size(), 6u) << "per-party behaviours not all sampled";
    EXPECT_EQ(cov.max_n, 32) << "n = 32 (broadcast-bank scale) never reached";
    EXPECT_GT(cov.sched_victim, 0) << "targeted-delay never sampled";
    EXPECT_GT(cov.sched_partition, 0) << "partition-then-heal never sampled";
    EXPECT_GT(cov.mobile, 0) << "mobile corruption never sampled";
    EXPECT_GT(cov.dealer_corrupt, 0) << "party 0 (the VSS dealer) never corrupt";
    // The schedule plane multiplexes every broadcast/BA layer of a sharing
    // through one bank; a corrupt dealer at n >= 6 is the scenario most
    // likely to skew one layer relative to another, so the block must sample
    // it.
    EXPECT_GT(cov.vss_big_corrupt_dealer, 0)
        << "no VSS scenario at n >= 6 with a corrupt dealer sampled";
  }
}

// Expansion is a pure function of the seed: byte-identical descriptions.
TEST(FuzzSanity, ExpansionDeterministic) {
  for (std::uint64_t seed : {1ULL, 42ULL, 20260808ULL, ~0ULL}) {
    EXPECT_EQ(expand_scenario(seed).describe(), expand_scenario(seed).describe());
  }
}

// A planted over-budget adversary (2 silent parties vs ts = 1) must be
// caught, and caught identically on a re-run from the repro seed.
TEST(FuzzSanity, SabotageDetectedDeterministically) {
  const std::vector<std::string> first = run_one(7, /*sabotage=*/true).violations;
  const std::vector<std::string> second = run_one(7, /*sabotage=*/true).violations;
  ASSERT_FALSE(first.empty()) << "over-budget adversary not detected";
  EXPECT_EQ(first, second) << "sabotage violations not reproducible from the seed";
}

// Scenario runs are deterministic end-to-end: same seed, same report.
TEST(FuzzSanity, RunsDeterministic) {
  for (std::uint64_t seed : {20260808ULL, 20260815ULL}) {
    const Scenario s = expand_scenario(seed);
    const ScenarioReport a = run_scenario(s);
    const ScenarioReport b = run_scenario(s);
    EXPECT_EQ(a.violations, b.violations) << s.describe();
    EXPECT_EQ(a.summary, b.summary) << s.describe();
  }
}

// ... and invariant under the executor's thread count: the per-party window
// delivery sequences are canonical, so 1-, 2- and 8-thread runs of the same
// scenario produce byte-identical reports.
TEST(FuzzSanity, RunsDeterministicAcrossThreads) {
  for (std::uint64_t seed : {20260808ULL, 20260815ULL, 20260824ULL}) {
    const Scenario s = expand_scenario(seed);
    const ScenarioReport one = run_scenario(s, 1);
    for (int threads : {2, 8}) {
      const ScenarioReport rep = run_scenario(s, threads);
      EXPECT_EQ(one.violations, rep.violations) << s.describe() << " threads " << threads;
      EXPECT_EQ(one.summary, rep.summary) << s.describe() << " threads " << threads;
    }
  }
}

bool parse_u64(const char* arg, const char* name, std::uint64_t* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::strtoull(arg + len + 1, nullptr, 10);
  return true;
}

}  // namespace
}  // namespace bobw

// Custom main: --fuzz_seed short-circuits to a single-scenario repro run;
// everything else configures the FuzzDriver.Block gtest above. Defining main
// here keeps gtest_main's own main object out of the link.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  std::optional<std::uint64_t> single;
  for (int i = 1; i < argc; ++i) {
    std::uint64_t v = 0;
    if (bobw::parse_u64(argv[i], "--fuzz_seed", &v)) single = v;
    else if (bobw::parse_u64(argv[i], "--fuzz_master", &v)) bobw::g_master = v;
    else if (bobw::parse_u64(argv[i], "--fuzz_count", &v)) bobw::g_count = v;
    else if (bobw::parse_u64(argv[i], "--fuzz_jobs", &v)) bobw::g_jobs = v;
    else if (std::strncmp(argv[i], "--fuzz_failures_file=", 21) == 0)
      bobw::g_failures_file = argv[i] + 21;
  }
  if (single) {
    std::printf("%s\n", bobw::expand_scenario(*single).describe().c_str());
    const bobw::ScenarioReport rep = bobw::run_one(*single, /*sabotage=*/false);
    const bool ok = rep.violations.empty();
    std::printf("%s: %s\n", ok ? "PASS" : "FAIL", rep.summary.c_str());
    return ok ? 0 : 1;
  }
  return RUN_ALL_TESTS();
}
