// Base class for protocol instances. An instance is a leaf of the protocol
// tree: it resolves its Addr (a root name, or a child segment of its
// parent's route) to a RouteId once, at construction, registers itself on
// its party under that route and receives every message addressed to it.
// Its children are named under route(); composites that are not instances
// (BcBank, Ba, TripSh, ...) resolve their own Addr to an interior route and
// build their children under it the same way. The route's name lives in
// Sim::routes(), for debug output and adversaries only.
#pragma once

#include <functional>
#include <utility>

#include "src/sim/party.hpp"

namespace bobw {

class Instance {
 public:
  Instance(Party& party, const Addr& addr);
  virtual ~Instance();

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  RouteId route() const { return route_; }
  Party& party() { return party_; }
  int self() const { return party_.id(); }
  int n() const { return party_.n(); }
  Tick now() const { return party_.now(); }

  virtual void on_message(const Msg& m) = 0;

 protected:
  void send(int to, int type, const Bytes& body) { party_.send(to, route_, type, Payload(body)); }
  void send(int to, int type, Bytes&& body) {
    party_.send(to, route_, type, Payload(std::move(body)));
  }
  void send(int to, int type, Payload body) { party_.send(to, route_, type, std::move(body)); }
  void send_all(int type, const Bytes& body) { party_.send_all(route_, type, Payload(body)); }
  void send_all(int type, Bytes&& body) {
    party_.send_all(route_, type, Payload(std::move(body)));
  }
  /// Re-broadcasting a received body (e.g. ΠACast's echo) shares the payload
  /// with the original in-flight copies — no byte copy at all.
  void send_all(int type, Payload body) { party_.send_all(route_, type, std::move(body)); }
  void at(Tick time, std::function<void()> fn) { party_.at(time, std::move(fn)); }

  Party& party_;

 private:
  RouteId route_;
};

}  // namespace bobw
