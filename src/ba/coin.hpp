// Common-coin substrate for the randomized ABA.
//
// The paper's ΠABA ([3,7]) manufactures its coin from shunning-AVSS; that
// tower is orthogonal to this paper's contribution, so we substitute a coin
// oracle behind an interface (README, "Substrate substitutions"). `IdealCoin`
// returns the same unpredictable bit to every party per (instance, round);
// its first two rounds are fixed to 1 then 0, which gives the Lemma 3.3
// liveness profile: unanimous-input executions decide within two rounds (a
// *fixed* deadline), mixed-input executions decide almost-surely. ABA safety
// never depends on coin unpredictability, so the substitution is
// property-preserving.
// `LocalCoin` (per-party independent bits, Ben-Or style) backs the
// private-coin safety test (`AbaLocalCoin.SafetyHoldsWithPrivateCoins`).
#pragma once

#include <cstdint>
#include <string>

namespace bobw {

class CoinSource {
 public:
  virtual ~CoinSource() = default;
  /// The round-r coin for `instance`, as seen by `party`.
  virtual bool coin(const std::string& instance, int round, int party) = 0;
};

/// FNV-1a — deterministic across platforms (std::hash is not guaranteed).
std::uint64_t fnv1a(const std::string& s);

class IdealCoin : public CoinSource {
 public:
  explicit IdealCoin(std::uint64_t seed) : seed_(seed) {}
  bool coin(const std::string& instance, int round, int party) override;

 private:
  std::uint64_t seed_;
};

class LocalCoin : public CoinSource {
 public:
  explicit LocalCoin(std::uint64_t seed) : seed_(seed) {}
  bool coin(const std::string& instance, int round, int party) override;

 private:
  std::uint64_t seed_;
};

}  // namespace bobw
