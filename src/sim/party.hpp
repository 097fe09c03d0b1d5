// Party and Sim: the runtime that hosts protocol instances.
//
// A Sim owns n parties, the event queue, the route table, the delay model,
// the adversary and the metrics. A Party owns a registry of protocol
// Instances addressed by dense RouteIds (dispatch is a flat vector index —
// the route names live in Sim::routes() as debug names);
// messages for instances that have not registered yet are buffered and
// flushed on registration (asynchronous protocols may receive messages
// "from the future" of their local schedule).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/sim/adversary.hpp"
#include "src/sim/events.hpp"
#include "src/sim/message.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/network.hpp"
#include "src/sim/route.hpp"

namespace bobw {

class Instance;
class Sim;
class WindowExecutor;
struct WindowCtx;

class Party {
 public:
  Party(Sim& sim, int id, bool honest, Rng rng);
  ~Party();

  int id() const { return id_; }
  bool honest() const { return honest_; }
  Sim& sim() { return *sim_; }
  Rng& rng() { return rng_; }
  int n() const;
  Tick now() const;

  /// Local-clock timer (local time == simulation time; the paper's protocols
  /// only use local timers, never a shared clock, in the asynchronous case).
  /// `fn` is queued as is, owned by this party; it runs through fire(), so
  /// it never runs once the party has halted.
  void at(Tick time, std::function<void()> fn);
  /// Run one of this party's queued closures unless the party has halted.
  /// The one halted check on timers: both the sequential engine (through
  /// EventQueue's fire sink) and the window executor fire through it.
  void fire(const std::function<void()>& fn) {
    if (!halted_) fn();
  }

  /// Send a point-to-point message over the pairwise channel. The fast path
  /// used by every Instance: the route was resolved once at construction.
  void send(int to, RouteId route, int type, Payload body);
  /// Send to every party, self included (the paper's "send to all parties").
  /// The payload is allocated once and shared by all n in-flight copies.
  void send_all(RouteId route, int type, Payload body);

  /// Convenience overloads that intern the root route `inst` per call — test
  /// scaffolding and ad-hoc traffic only; protocol code sends through its
  /// Instance route.
  void send(int to, const std::string& inst, int type, Bytes body);
  void send_all(const std::string& inst, int type, const Bytes& body);

  void register_instance(Instance* inst);
  void unregister_instance(RouteId route);
  void deliver(const Msg& m);

  /// A terminated party stops processing and sending (ΠCirEval termination
  /// phase: "terminate all the sub-protocols").
  void halt() { halted_ = true; }
  bool halted() const { return halted_; }

  /// Root-level session objects owned by this party (keeps them alive for
  /// the duration of the run).
  void own(std::shared_ptr<void> session) { owned_.push_back(std::move(session)); }

  /// The run-wide object of type T this party keeps for start tick `t` (its
  /// SBA schedule or ΠABA plane for t), or null. Every protocol object of
  /// that start looks it up here, so the lookup resolves no route.
  template <class T>
  T* per_tick(Tick t) const {
    const auto it = per_tick_.find({std::type_index(typeid(T)), t});
    return it == per_tick_.end() ? nullptr : static_cast<T*>(it->second.get());
  }
  /// Keeps `obj` as this party's T for tick `t` until the party ends.
  template <class T>
  T& keep_per_tick(Tick t, std::shared_ptr<T> obj) {
    T& kept = *obj;
    per_tick_.emplace(std::pair{std::type_index(typeid(T)), t}, std::move(obj));
    return kept;
  }

  /// Window-executor capture hooks. While a window is active, send/at record
  /// into the thread-confined outbox (src/sim/outbox.hpp) instead of
  /// touching Sim/EventQueue shared state; the merge phase replays them.
  void begin_window(WindowCtx* w) { win_ = w; }
  void end_window() { win_ = nullptr; }

 private:
  Sim* sim_;
  int id_;
  bool honest_;
  bool halted_ = false;
  WindowCtx* win_ = nullptr;
  Rng rng_;
  /// Flat dispatch table indexed by RouteId, grown lazily on registration.
  std::vector<Instance*> by_route_;
  std::unordered_map<RouteId, std::vector<Msg>> pending_;
  std::vector<std::shared_ptr<void>> owned_;
  std::map<std::pair<std::type_index, Tick>, std::shared_ptr<void>> per_tick_;
};

class Sim {
 public:
  /// `adversary` may be null (all parties honest). The adversary's corrupt
  /// set decides which parties are honest.
  Sim(int n, NetConfig net, std::uint64_t seed, std::shared_ptr<Adversary> adversary = nullptr);
  ~Sim();

  int n() const { return n_; }
  Party& party(int i) { return *parties_[static_cast<std::size_t>(i)]; }
  EventQueue& queue() { return queue_; }
  Metrics& metrics() { return metrics_; }
  Adversary* adversary() { return adversary_.get(); }
  RouteTable& routes() { return routes_; }
  const RouteTable& routes() const { return routes_; }
  const NetConfig& net() const { return delay_.config(); }
  Tick delta() const { return delay_.config().delta; }
  Tick now() const { return queue_.now(); }
  Rng& rng() { return rng_; }

  /// Route a message through the (possibly adversarial) network.
  void post(Msg m);

  /// Run the simulation. Returns number of events executed.
  std::uint64_t run(Tick max_time = ~Tick{0}, std::uint64_t max_events = 200'000'000ULL);

  /// True iff the last run() stopped on max_events/max_time with events
  /// still pending — a truncated run, NOT quiescence. Results from a
  /// truncated run are partial and must not be read as protocol outcomes.
  bool truncated() const { return queue_.truncated(); }

  /// Shard each Δ-window's parties across `threads` OS threads (both network
  /// modes). Traces stay bit-identical at any thread count; `threads <= 1`
  /// restores the plain sequential path. `min_batch` is the smallest
  /// due-delivery count worth sharding (tests lower it to force every window
  /// parallel). Ticks below it, ticks holding an unowned closure and ticks
  /// near the event budget run on the sequential engine, EventQueue::step.
  void set_threads(int threads, std::size_t min_batch = 0);
  int threads() const;

  /// True if party i is honest under the configured adversary.
  bool honest(int i) const;

  /// Aggregate hit/miss counters for the cross-party decode caches (bank
  /// shared state, src/bcast/bank_shared.*). Atomics: window-executor worker
  /// threads bump these concurrently.
  struct DecodeCacheStats {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };
  DecodeCacheStats& decode_cache_stats() { return cache_stats_; }

  /// Cross-party shared-state registry, one slot per route. Protocol
  /// instances on the same route on different parties are views of ONE
  /// logical protocol object; state whose content is a pure function of
  /// received payloads (decode caches, value intern tables) can therefore be
  /// computed once per Sim and shared. `make` runs only for the first caller
  /// of a route. The returned object must do its own internal locking:
  /// window-executor worker threads reach it concurrently.
  std::shared_ptr<void> shared_state(RouteId route,
                                     const std::function<std::shared_ptr<void>()>& make) {
    std::lock_guard<std::mutex> lock(shared_mu_);
    if (shared_.size() <= route) shared_.resize(route + 1);
    auto& slot = shared_[route];
    if (!slot) slot = make();
    return slot;
  }

  /// Names of the routes holding shared state, in route order (bench
  /// introspection: counting the banks serving one sharing).
  std::vector<std::string> shared_state_keys() const {
    std::lock_guard<std::mutex> lock(shared_mu_);
    std::vector<std::string> keys;
    for (RouteId r = 0; r < shared_.size(); ++r)
      if (shared_[r]) keys.push_back(routes_.name(r));
    return keys;
  }

 private:
  int n_;
  EventQueue queue_;
  RouteTable routes_;
  DelayModel delay_;
  Metrics metrics_;
  Rng rng_;
  std::shared_ptr<Adversary> adversary_;
  /// Last epoch the adversary's corruption schedule was consulted for
  /// (mobile corruption; nullopt until the first post of a scheduled run).
  std::optional<std::uint64_t> adv_epoch_;
  std::vector<std::unique_ptr<Party>> parties_;
  std::unique_ptr<WindowExecutor> exec_;  // non-null iff threads > 1
  mutable std::mutex shared_mu_;
  std::vector<std::shared_ptr<void>> shared_;  // indexed by RouteId
  DecodeCacheStats cache_stats_;
};

}  // namespace bobw
