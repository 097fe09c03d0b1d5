// ΠBeaver — Beaver's multiplication protocol (paper §6.1, Fig 6), batched.
//
// For each item k the parties hold ts-sharings of x_k, y_k and of a triple
// (a_k, b_k, c_k). They locally form e_k = x_k − a_k, d_k = y_k − b_k,
// publicly reconstruct them (one message round, OEC at the receivers), and
// locally output [z_k] = d_k·e_k + e_k·[b_k] + d_k·[a_k] + [c_k]; z = x·y
// iff the triple is multiplicative. One protocol round for the whole batch.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/mpc/sharing.hpp"

namespace bobw {

struct BeaverIn {
  Fp x, y;          // shares of the factors
  TripleShare trip;  // shares of the helper triple
};

class BeaverBatch {
 public:
  using Handler = std::function<void(const std::vector<Fp>&)>;

  BeaverBatch(Party& party, const Addr& addr, const Ctx& ctx, Handler on_z_shares);

  void start(std::vector<BeaverIn> in);

  bool done() const { return done_; }
  const std::vector<Fp>& z_shares() const { return z_; }

 private:
  void on_opened(const std::vector<Fp>& de);

  Party& party_;
  RouteId route_;
  Ctx ctx_;
  Handler handler_;
  std::vector<BeaverIn> in_;
  std::unique_ptr<Reconstruct> rec_;
  std::vector<Fp> z_;
  bool started_ = false, done_ = false;
};

}  // namespace bobw
