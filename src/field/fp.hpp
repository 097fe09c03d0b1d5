// Prime field F_p with p = 2^61 - 1 (a Mersenne prime).
//
// The paper (§2) requires |F| > 2n with publicly known distinct non-zero
// evaluation points α_1..α_n, β_1..β_n; any prime field works. A Mersenne
// modulus gives branch-light reduction from the 128-bit product.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/common/rng.hpp"

namespace bobw {

class Fp {
 public:
  static constexpr std::uint64_t kP = (1ULL << 61) - 1;

  constexpr Fp() : v_(0) {}
  /// Reduces any u64 into canonical form.
  constexpr explicit Fp(std::uint64_t v) : v_(reduce_once(v % kP)) {}

  static Fp from_int(std::int64_t x) {
    if (x >= 0) return Fp(static_cast<std::uint64_t>(x));
    std::uint64_t m = static_cast<std::uint64_t>(-x) % kP;
    return Fp(m == 0 ? 0 : kP - m);
  }

  std::uint64_t value() const { return v_; }
  bool is_zero() const { return v_ == 0; }

  friend Fp operator+(Fp a, Fp b) {
    std::uint64_t s = a.v_ + b.v_;
    if (s >= kP) s -= kP;
    return from_raw(s);
  }
  friend Fp operator-(Fp a, Fp b) {
    std::uint64_t s = a.v_ >= b.v_ ? a.v_ - b.v_ : a.v_ + kP - b.v_;
    return from_raw(s);
  }
  friend Fp operator*(Fp a, Fp b) {
    __uint128_t prod = static_cast<__uint128_t>(a.v_) * b.v_;
    std::uint64_t lo = static_cast<std::uint64_t>(prod & kP);
    std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
    std::uint64_t s = lo + hi;
    if (s >= kP) s -= kP;
    return from_raw(s);
  }
  Fp operator-() const { return from_raw(v_ == 0 ? 0 : kP - v_); }

  Fp& operator+=(Fp o) { return *this = *this + o; }
  Fp& operator-=(Fp o) { return *this = *this - o; }
  Fp& operator*=(Fp o) { return *this = *this * o; }

  friend bool operator==(Fp a, Fp b) { return a.v_ == b.v_; }
  friend bool operator!=(Fp a, Fp b) { return a.v_ != b.v_; }

  /// Canonical form of any 128-bit value, e.g. an unreduced sum of up to 64
  /// products of canonical elements (dot() in src/field/kernels.hpp).
  static Fp reduce(__uint128_t x) {
    // 2^61 = 1 (mod p): fold the high bits onto the low bits twice, leaving
    // at most p + 1 for one conditional subtraction.
    const __uint128_t hi = x >> 61;  // < 2^67
    std::uint64_t s = (static_cast<std::uint64_t>(x) & kP) + (static_cast<std::uint64_t>(hi) & kP) +
                      static_cast<std::uint64_t>(hi >> 61);
    s = (s & kP) + (s >> 61);
    return from_raw(reduce_once(s));
  }

  /// a^e by square-and-multiply.
  Fp pow(std::uint64_t e) const;
  /// Multiplicative inverse via Fermat; requires non-zero.
  Fp inv() const;

  static Fp random(Rng& rng);

  friend std::ostream& operator<<(std::ostream& os, Fp x);

 private:
  static constexpr std::uint64_t reduce_once(std::uint64_t v) {
    return v >= kP ? v - kP : v;
  }
  static constexpr Fp from_raw(std::uint64_t v) {
    Fp x;
    x.v_ = v;
    return x;
  }
  std::uint64_t v_;
};

/// The paper's public evaluation point α_i for party P_i (0-indexed party
/// i gets α = i+1; all distinct and non-zero).
inline Fp alpha(int party_index) { return Fp(static_cast<std::uint64_t>(party_index + 1)); }

/// The auxiliary public points β_j (distinct from every α_i): β_j = n + 1 + j.
inline Fp beta(int n, int j) { return Fp(static_cast<std::uint64_t>(n + 1 + j)); }

std::vector<std::uint64_t> to_words(const std::vector<Fp>& xs);
std::vector<Fp> from_words(const std::vector<std::uint64_t>& ws);

}  // namespace bobw
