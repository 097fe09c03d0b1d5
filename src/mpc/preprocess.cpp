#include "src/mpc/preprocess.hpp"

#include "src/field/kernels.hpp"

namespace bobw {

Preprocess::Preprocess(Party& party, const Addr& addr, const Ctx& ctx, Tick base,
                       int c_m, Handler on_triples)
    : party_(party), route_(party.sim().routes().resolve(addr)), ctx_(ctx), base_(base),
      c_m_(c_m),
      // d is fixed by |CS| = n − ts (the first-(n−ts) rule).
      d_((ctx.n - ctx.ts - 1) / 2),
      // L = ⌈c_M / (d+1−ts)⌉; d+1−ts > 0 since n > 3ts.
      L_((c_m + d_ - ctx.ts) / (d_ + 1 - ctx.ts)),
      handler_(std::move(on_triples)),
      vote_(party, route_, ctx, base + ctx.T.t_tripsh, SubsetVote::Rule::kFirstNMinusTs,
            [this](int j) {
              tripsh_.push_back(std::make_unique<TripSh>(
                  party_, Addr(route_, "tsh", j), j, L_, ctx_, base_,
                  [this, j](const std::vector<TripleShare>&) {
                    vote_.vote_one(j);
                    maybe_extract();
                  }));
            },
            [this](const std::vector<int>&) { maybe_extract(); }) {}

void Preprocess::deal() { tripsh_[static_cast<std::size_t>(party_.id())]->deal(); }

void Preprocess::maybe_extract() {
  if (extracting_ || done_ || !vote_.cs()) return;
  const auto& members = *vote_.cs();
  for (int j : members)
    if (!tripsh_[static_cast<std::size_t>(j)]->done()) return;  // stragglers
  extracting_ = true;
  // Grid: the α's of the first 2d+1 CS members.
  std::vector<Fp> grid;
  grid.reserve(static_cast<std::size_t>(2 * d_ + 1));
  for (int k = 0; k < 2 * d_ + 1; ++k) grid.push_back(alpha(members[static_cast<std::size_t>(k)]));
  // Warm the process-wide PointSet caches for the grid and its base prefix
  // before the L-way TripExt fan-out: every extraction instance (for every
  // party — the grid is public and identical) then finds the Lagrange
  // precomputation ready instead of redoing it on its own critical path.
  pointset(grid);
  pointset(std::vector<Fp>(grid.begin(), grid.begin() + d_ + 1));
  ext_.resize(static_cast<std::size_t>(L_));
  for (int l = 0; l < L_; ++l) {
    ext_[static_cast<std::size_t>(l)] = std::make_unique<TripExt>(
        party_, Addr(route_, "ext", l), ctx_, d_, grid,
        [this](const std::vector<TripleShare>&) {
          ++ext_done_;
          on_extract_done();
        });
    std::vector<TripleShare> in;
    in.reserve(static_cast<std::size_t>(2 * d_ + 1));
    for (int k = 0; k < 2 * d_ + 1; ++k) {
      int j = members[static_cast<std::size_t>(k)];
      in.push_back(tripsh_[static_cast<std::size_t>(j)]->triples()[static_cast<std::size_t>(l)]);
    }
    ext_[static_cast<std::size_t>(l)]->start(std::move(in));
  }
}

void Preprocess::on_extract_done() {
  if (done_ || ext_done_ < L_) return;
  done_ = true;
  out_.reserve(static_cast<std::size_t>(c_m_));
  for (const auto& e : ext_)
    for (const auto& t : e->out()) {
      if (static_cast<int>(out_.size()) >= c_m_) break;
      out_.push_back(t);
    }
  if (handler_) handler_(out_);
}

}  // namespace bobw
