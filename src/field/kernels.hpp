// Batched field kernels — the shared engine under every reconstruction
// primitive in the stack (VSS share distribution, OEC, triple extraction,
// circuit-evaluation openings).
//
// The scalar seed paths recompute two things from scratch on every call:
//   * one Fermat inversion (61 squarings) per Lagrange denominator, and
//   * the Lagrange basis / Vandermonde fragments for the SAME public point
//     sets α/β that stay fixed for a whole protocol run.
// The kernels here amortise all inversions in a loop into a single Fermat
// exponentiation (Montgomery's batch-inversion trick) and precompute each
// point set's barycentric data once per process, memoising the weight vector
// per evaluation point. All outputs are bit-identical to the scalar paths
// (field arithmetic is exact); tests/kernels_test.cpp proves it
// differentially against the frozen seed reference in
// tests/reference/reference.hpp.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/field/fp.hpp"
#include "src/field/poly.hpp"

namespace bobw {

/// In-place Montgomery batch inversion: replaces every non-zero element with
/// its multiplicative inverse using 3(k-1) multiplications plus ONE Fermat
/// inversion (the scalar path pays one Fermat inversion — ~120 field
/// multiplications — per element). Zero entries stay zero, matching
/// Fp::inv()'s 0 -> 0 behaviour.
void batch_inverse(std::vector<Fp>& xs);

/// An immutable set of pairwise-distinct evaluation points with precomputed
/// barycentric weights and master polynomial. Construction is O(k^2) with a
/// single field inversion; afterwards
///   * weights_at(at) is O(k) on first use per `at` and O(1) memoised, and
///   * interpolate(ys) is O(k^2) with no inversions at all
/// — versus the scalar seed path's O(k^3) basis rebuild with k Fermat
/// inversions per call.
///
/// Throws std::invalid_argument if the points are not pairwise distinct.
class PointSet {
 public:
  explicit PointSet(std::vector<Fp> xs);

  // Copy/move transfer the math and the memo table but not the mutex (a
  // mutex member otherwise deletes both; OecBank keeps PointSets in
  // std::optional). Only ever invoked from single-threaded construction
  // sites — concurrent access applies to a settled PointSet.
  PointSet(const PointSet& o)
      : xs_(o.xs_), bary_(o.bary_), master_(o.master_), weight_cache_(o.weight_cache_) {}
  PointSet(PointSet&& o) noexcept
      : xs_(std::move(o.xs_)),
        bary_(std::move(o.bary_)),
        master_(std::move(o.master_)),
        weight_cache_(std::move(o.weight_cache_)) {}
  PointSet& operator=(const PointSet& o) {
    if (this != &o) {
      xs_ = o.xs_;
      bary_ = o.bary_;
      master_ = o.master_;
      weight_cache_ = o.weight_cache_;
    }
    return *this;
  }
  PointSet& operator=(PointSet&& o) noexcept {
    xs_ = std::move(o.xs_);
    bary_ = std::move(o.bary_);
    master_ = std::move(o.master_);
    weight_cache_ = std::move(o.weight_cache_);
    return *this;
  }

  const std::vector<Fp>& xs() const { return xs_; }
  std::size_t size() const { return xs_.size(); }

  /// Lagrange weights w_j such that q(at) = sum_j w_j q(xs_j) for every
  /// polynomial q with deg q < size(). Memoised per `at` (the protocol asks
  /// for the same handful of points — 0, the α/β grid — over and over).
  /// Thread-safe: PointSets are shared process-wide via pointset() and the
  /// window executor evaluates parties concurrently, so the memo table is
  /// mutex-guarded (returned references stay valid — node-based map).
  const std::vector<Fp>& weights_at(Fp at) const;

  /// The unique degree-<(k) polynomial through (xs_j, ys_j).
  Poly interpolate(const std::vector<Fp>& ys) const;

  /// Evaluate that interpolant at `at` without materialising the polynomial.
  Fp eval(const std::vector<Fp>& ys, Fp at) const;

 private:
  std::vector<Fp> xs_;
  std::vector<Fp> bary_;    // bary_j = 1 / prod_{m != j} (xs_j - xs_m)
  std::vector<Fp> master_;  // N(x) = prod_j (x - xs_j), low degree first
  mutable std::mutex weight_mu_;
  mutable std::unordered_map<std::uint64_t, std::vector<Fp>> weight_cache_;
};

/// Process-wide PointSet cache keyed by the point values. The α/β evaluation
/// points are public and fixed for a whole protocol run, so every instance —
/// and every simulated party — shares one precomputation per (xs) set.
/// Callers that outlive a single expression must hold the returned
/// shared_ptr (the cache evicts wholesale when it grows past a bound).
/// Deterministic pure math; thread-safe (the window executor evaluates
/// parties concurrently).
std::shared_ptr<const PointSet> pointset(const std::vector<Fp>& xs);

/// Rows of powers for the online Berlekamp–Welch system: row k holds
/// xs[k]^0 .. xs[k]^width. Each arriving OEC point computes its row once;
/// every subsequent decode attempt assembles its matrix from the cache
/// instead of re-deriving the Vandermonde fragments.
std::vector<Fp> power_row(Fp x, int width);

namespace detail {
/// Products of canonical elements are < 2^122: 64 of them, plus one more
/// canonical term, fit a 128-bit accumulator.
inline constexpr std::size_t kDotFold = 64;

/// Unreduced sum_k a[k] * b[k] for k <= kDotFold.
inline __uint128_t dot_unreduced(const Fp* a, const Fp* b, std::size_t k) {
  __uint128_t sum = 0;
  for (std::size_t i = 0; i < k; ++i) sum += static_cast<__uint128_t>(a[i].value()) * b[i].value();
  return sum;
}
}  // namespace detail

/// sum_k a[k] * b[k], reduced once per 64 terms instead of once per
/// product; exact for any k.
Fp dot(const Fp* a, const Fp* b, std::size_t k);

/// c(at) = sum_k c[k] at^k for a polynomial of m coefficients, given the
/// power row pw[k] = at^k. pw[0] = 1, so c[0] joins the first fold without
/// a product; polynomials of up to 65 coefficients take one fold.
inline Fp eval_at_powers(const Fp* c, const Fp* pw, std::size_t m) {
  if (m == 0) return Fp(0);
  const std::size_t head = std::min(detail::kDotFold, m - 1);
  const Fp v = Fp::reduce(c[0].value() + detail::dot_unreduced(c + 1, pw + 1, head));
  return head + 1 == m ? v : v + dot(c + 1 + head, pw + 1 + head, m - 1 - head);
}

/// `rows` polynomials of `width` coefficients each (low degree first) in one
/// allocation — a dealer's L rows for one recipient, from the bivariates
/// down to the wire and back.
class RowBlock {
 public:
  RowBlock() = default;
  RowBlock(std::size_t rows, std::size_t width) : rows_(rows), width_(width), c_(rows * width) {}

  std::size_t rows() const { return rows_; }
  std::size_t width() const { return width_; }
  std::span<Fp> row(std::size_t l) { return {c_.data() + l * width_, width_}; }
  std::span<const Fp> row(std::size_t l) const { return {c_.data() + l * width_, width_}; }

  bool operator==(const RowBlock&) const = default;

 private:
  std::size_t rows_ = 0, width_ = 0;
  std::vector<Fp> c_;
};

/// out[l] = row l of `rows` evaluated at `at`, for every row: one power row
/// of `at`, then one eval_at_powers() per row.
void eval_rows(const RowBlock& rows, Fp at, Fp* out);

}  // namespace bobw
