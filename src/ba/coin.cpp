#include "src/ba/coin.hpp"

#include "src/common/rng.hpp"

namespace bobw {

bool IdealCoin::coin(std::uint64_t instance, int round, int /*party*/) {
  if (round == 1) return true;
  if (round == 2) return false;
  return (mix64(seed_ ^ instance ^ (static_cast<std::uint64_t>(round) << 32)) & 1) != 0;
}

bool LocalCoin::coin(std::uint64_t instance, int round, int party) {
  return (mix64(seed_ ^ instance ^ (static_cast<std::uint64_t>(round) << 32) ^
                (static_cast<std::uint64_t>(party) << 16)) &
          1) != 0;
}

}  // namespace bobw
