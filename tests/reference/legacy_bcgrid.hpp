// Frozen copy of the PR 4 per-pair ΠBC path — one Acast + one phase-king SBA
// per broadcast instance — kept for same-binary differential tests and bench
// comparison against the slot-multiplexed BcBank (the repo's ref:: idiom).
//
// This is byte-for-byte the pre-bank src/bcast/bc.cpp composition: the
// sender Acasts m at T0, every party joins a per-instance PhaseKing at
// T0+3Δ with input = its current Acast output, and the regular-mode output
// at T0+T_BC is m* iff Acast delivered m* and the SBA decided m*. A grid of
// n² of these is the seed's ok-verdict ΠBC grid: every instance pays its own
// O(n²) echo/ready traffic and its own 3(t+1)-round send_all schedule.
// Do not "fix" or de-duplicate anything here; it exists to stay costly the
// old way (it still reuses tests/reference/acast.hpp and phase_king.hpp, whose
// per-slot decision logic the bank must preserve bit-for-bit).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "src/core/timing.hpp"
#include "tests/reference/acast.hpp"
#include "tests/reference/phase_king.hpp"

namespace bobw::legacybc {

class Bc {
 public:
  using Handler = std::function<void(const std::optional<Bytes>& value, bool fallback)>;

  Bc(Party& party, const Addr& addr, int sender, const Ctx& ctx,
     Tick start_time, Handler handler)
      : party_(party),
        sender_(sender),
        ctx_(ctx),
        start_(start_time),
        handler_(std::move(handler)) {
    const RouteId route = party_.sim().routes().resolve(addr);
    acast_ = std::make_unique<Acast>(party_, Addr(route, "acast"), sender_, ctx_.ts,
                                     [this](const Bytes& m) { on_acast(m); });
    sba_ = std::make_unique<PhaseKing>(
        party_, Addr(route, "sba"), ctx_.ts, start_ + 3 * ctx_.delta,
        [this]() -> Bytes {
          return acast_->output() ? wrap(*acast_->output()) : Bytes{};
        },
        nullptr);
    party_.at(start_ + ctx_.T.t_bc, [this] { decide_regular(); });
  }

  void broadcast(const Bytes& m) { acast_->start(m); }

  int sender() const { return sender_; }
  Tick start_time() const { return start_; }
  bool regular_decided() const { return regular_done_; }
  const std::optional<Bytes>& regular_output() const { return regular_; }
  const std::optional<Bytes>& output() const { return current_; }

 private:
  static Bytes wrap(const Bytes& m) {
    Bytes b;
    b.reserve(m.size() + 1);
    b.push_back(0x01);
    b.insert(b.end(), m.begin(), m.end());
    return b;
  }

  void decide_regular() {
    regular_done_ = true;
    const auto& sba_out = sba_->output();
    if (acast_->output() && sba_out && *sba_out == wrap(*acast_->output())) {
      regular_ = acast_->output();
      current_ = regular_;
    }
    if (handler_) handler_(regular_, /*fallback=*/false);
    if (!regular_ && acast_->output()) on_acast(*acast_->output());
  }

  void on_acast(const Bytes& m) {
    if (!regular_done_ || regular_) return;
    if (current_) return;
    current_ = m;
    if (handler_) handler_(current_, /*fallback=*/true);
  }

  Party& party_;
  int sender_;
  Ctx ctx_;
  Tick start_;
  Handler handler_;
  std::unique_ptr<Acast> acast_;
  std::unique_ptr<PhaseKing> sba_;
  bool regular_done_ = false;
  std::optional<Bytes> regular_;
  std::optional<Bytes> current_;
};

}  // namespace bobw::legacybc
