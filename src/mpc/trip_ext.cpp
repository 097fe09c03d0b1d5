#include "src/mpc/trip_ext.hpp"

namespace bobw {

TripExt::TripExt(Party& party, const Addr& addr, const Ctx& ctx, int d,
                 std::vector<Fp> grid, Handler on_out)
    : party_(party), ctx_(ctx), d_(d), handler_(std::move(on_out)) {
  tt_ = std::make_unique<TripTrans>(
      party_, Addr(party.sim().routes().resolve(addr), "tt"), ctx_, d_, std::move(grid),
      [this](const std::vector<TripleShare>&) {
        const int count = d_ + 1 - ctx_.ts;
        out_.reserve(static_cast<std::size_t>(count));
        for (int k = 0; k < count; ++k) {
          const Fp b = beta(ctx_.n, k);
          out_.push_back(TripleShare{tt_->x_at(b), tt_->y_at(b), tt_->z_at(b)});
        }
        done_ = true;
        if (handler_) handler_(out_);
      });
}

void TripExt::start(std::vector<TripleShare> in) { tt_->start(std::move(in)); }

}  // namespace bobw
