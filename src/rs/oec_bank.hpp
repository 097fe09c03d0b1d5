// OecBank — L parallel Online Error Correction instances over one shared
// x-grid and arrival schedule (paper §2.1; every batched primitive in the
// stack opens L values against the SAME public α-grid).
//
// Feeding one arrival (x, y_1..y_L) does the grid work once instead of once
// per lane:
//   * the Berlekamp–Welch power row of x is computed once and shared,
//   * the duplicate-x scan runs once,
//   * the head-interpolant fast path keeps one PointSet over the first d+1
//     grid points and per arrival derives ONE Lagrange weight vector; each
//     lane's agreement check is then a single dot product, and the head
//     interpolant itself is only materialised if a caller asks for the Poly
//     (consumers that want q(0) use value(), one more dot product), and
//   * the error path runs a batched Berlekamp–Welch elimination: the L
//     systems share their Vandermonde block, so the bank eliminates those
//     columns once across all lanes and finishes each lane on its own small
//     column stripe with deferred pivots — ONE Montgomery batch_inverse for
//     every stripe pivot of every lane instead of one Fermat exponentiation
//     per pivot per lane.
//
// Every lane is decision- and bit-identical to an independent seed-reference
// OEC (bobw::ref::Oec in tests/reference/reference.hpp) fed the same stream;
// tests/oec_bank_test.cpp proves it differentially under shuffled arrivals,
// duplicate injection, per-lane error patterns and the m > d+2t+1
// out-of-regime corner. A lone OEC is OecBank(d, t, 1).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/field/fp.hpp"
#include "src/field/kernels.hpp"
#include "src/field/poly.hpp"

namespace bobw {

/// Why an arrival was accepted or rejected. A rejected arrival is NOT stored
/// and can never influence any lane's decode.
enum class OecStatus {
  kAccepted,        // point stored; zero or more lanes may have decoded
  kDuplicateX,      // this x already contributed (first wins) — rejected
  kAlreadyDecoded,  // every lane finished on an earlier point — rejected
};

class OecBank {
 public:
  struct Outcome {
    OecStatus status = OecStatus::kAccepted;
    /// Lanes whose decode completed on THIS arrival, in ascending lane
    /// order (empty unless kAccepted).
    std::vector<int> decoded;
    bool accepted() const { return status == OecStatus::kAccepted; }
  };

  /// d: polynomial degree bound; t: corruption bound among contributors;
  /// L: number of lanes sharing the grid. Throws std::invalid_argument on
  /// d < 0, t < 0 or L < 1.
  OecBank(int d, int t, int L);

  /// Feed one grid arrival: x plus one y per lane (ys.size() must be L,
  /// else std::invalid_argument). Lanes that already decoded ignore it.
  Outcome add_point(Fp x, std::span<const Fp> ys);

  int lanes() const { return L_; }
  /// Accepted arrivals so far (shared across lanes; stops growing once
  /// every lane has decoded).
  int points_received() const { return static_cast<int>(xs_.size()); }
  bool done(int lane) const { return lanes_[static_cast<std::size_t>(lane)].done; }
  bool all_done() const { return active_ == 0; }

  /// The decoded polynomial of `lane` (engaged iff done(lane)). Fast-path
  /// lanes materialise the head interpolant lazily on first access.
  const std::optional<Poly>& result(int lane) const;

  /// q_lane(0) without materialising the Poly — what the batched-open
  /// consumers actually read. Requires done(lane) (throws std::logic_error).
  Fp value(int lane) const;

 private:
  struct Lane {
    std::vector<Fp> ys;  // one entry per accepted arrival while undecoded
    int head_agree = 0;  // received points lying on the head interpolant
    bool done = false;
    bool via_head = false;  // result IS the head interpolant (lazy Poly)
  };

  void try_decode(std::vector<int>& decoded_now);
  /// One batched Berlekamp–Welch attempt at error count e >= 1 for every
  /// lane in `pending`; accepted lanes are removed and appended to
  /// `decoded_now`.
  void attempt_bw(int e, std::vector<int>& pending, std::vector<int>& decoded_now);
  void complete_via_head(int lane);
  Fp head_eval(const Lane& lane, const std::vector<Fp>& weights) const;

  int d_, t_, L_;
  int active_;  // lanes not yet decoded
  std::vector<Fp> xs_;
  // rows_[k] = xs_[k]^0 .. xs_[k]^(d+t), computed once per accepted arrival
  // and shared by every lane's decode attempts.
  std::vector<std::vector<Fp>> rows_;
  // Barycentric data over the first d+1 grid points — the shared engine of
  // the head fast path. Local, deliberately NOT the process-wide pointset()
  // cache: the first d+1 arrivals are delay-ordered, so the keys are
  // near-unique across banks and would only pollute the cache of genuinely
  // shared (fixed-order) α/β sets.
  std::optional<PointSet> head_ps_;
  std::vector<Lane> lanes_;
  // Error-path results are stored eagerly; head-path results materialise on
  // first result() call.
  mutable std::vector<std::optional<Poly>> results_;
};

}  // namespace bobw
