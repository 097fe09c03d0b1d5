// Communication metering: counts messages/bits sent by honest parties,
// overall and per top-level protocol label — the quantities compared against
// the paper's complexity theorems (see bench/bench_comm_scaling.cpp).
//
// Per-label counters are keyed by the route table's dense LabelId (a vector
// index, resolved once when the route was interned) instead of re-parsing
// and hashing the label prefix per send; the string-keyed view is
// materialised on demand for reporting.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/message.hpp"
#include "src/sim/route.hpp"

namespace bobw {

class Metrics {
 public:
  /// Attach the route table used to resolve LabelIds back to label names in
  /// honest_bits_by_label(). Called once by Sim's constructor.
  void bind(const RouteTable* routes) { routes_ = routes; }

  void record_send(const Msg& m, bool honest_sender, LabelId label);

  std::uint64_t honest_msgs() const { return honest_msgs_; }
  std::uint64_t honest_bits() const { return honest_bits_; }
  std::uint64_t total_msgs() const { return total_msgs_; }

  /// Honest bits per top-level instance label (prefix before first '/'),
  /// materialised from the dense per-LabelId counters.
  std::map<std::string, std::uint64_t> honest_bits_by_label() const;

  void reset();

 private:
  std::uint64_t honest_msgs_ = 0, honest_bits_ = 0, total_msgs_ = 0;
  std::vector<std::uint64_t> by_label_;
  const RouteTable* routes_ = nullptr;
};

}  // namespace bobw
