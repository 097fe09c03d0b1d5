#include "src/sim/party.hpp"

#include <cassert>

#include "src/sim/executor.hpp"
#include "src/sim/instance.hpp"
#include "src/sim/outbox.hpp"

namespace bobw {

Party::Party(Sim& sim, int id, bool honest, Rng rng)
    : sim_(&sim), id_(id), honest_(honest), rng_(rng) {}

Party::~Party() = default;

int Party::n() const { return sim_->n(); }
Tick Party::now() const { return sim_->now(); }

void Party::at(Tick time, std::function<void()> fn) {
  if (win_ != nullptr) {
    win_->record_timer(time, EventQueue::kTimer, std::move(fn));
    return;
  }
  sim_->queue().at(time, EventQueue::kTimer, id_, std::move(fn));
}

void Party::send(int to, RouteId route, int type, Payload body) {
  if (halted_) return;
  Msg m;
  m.from = id_;
  m.to = to;
  m.route = route;
  m.type = type;
  m.body = std::move(body);
  m.sent_at = now();
  if (win_ != nullptr) {
    win_->record_send(std::move(m));
    return;
  }
  sim_->post(std::move(m));
}

void Party::send_all(RouteId route, int type, Payload body) {
  // One shared payload for all n recipients; each Msg copy is a refcount
  // bump, not a byte copy.
  for (int to = 0; to < n(); ++to) send(to, route, type, body);
}

void Party::send(int to, const std::string& inst, int type, Bytes body) {
  send(to, sim_->routes().intern(inst), type, Payload(std::move(body)));
}

void Party::send_all(const std::string& inst, int type, const Bytes& body) {
  send_all(sim_->routes().intern(inst), type, Payload(body));
}

void Party::register_instance(Instance* inst) {
  const RouteId route = inst->route();
  if (by_route_.size() <= route) by_route_.resize(route + 1, nullptr);
  assert(by_route_[route] == nullptr && "duplicate instance id");
  by_route_[route] = inst;
  auto pend = pending_.find(route);
  if (pend != pending_.end()) {
    // Deliver buffered messages as an immediate event: the instance is still
    // inside its constructor here (virtual dispatch would be unsafe), and
    // "delivery happens as an event" keeps ordering semantics uniform.
    auto msgs = std::move(pend->second);
    pending_.erase(pend);
    auto flush = [this, route, ms = std::move(msgs)]() {
      Instance* found = route < by_route_.size() ? by_route_[route] : nullptr;
      if (!found) return;
      for (const auto& m : ms)
        if (!halted_) found->on_message(m);
    };
    if (win_ != nullptr)
      win_->record_timer(now(), EventQueue::kDelivery, std::move(flush));
    else
      sim_->queue().at(now(), EventQueue::kDelivery, id_, std::move(flush));
  }
}

void Party::unregister_instance(RouteId route) {
  if (route < by_route_.size()) by_route_[route] = nullptr;
}

void Party::deliver(const Msg& m) {
  if (halted_) return;
  Instance* inst = m.route < by_route_.size() ? by_route_[m.route] : nullptr;
  if (!inst) {
    pending_[m.route].push_back(m);
    return;
  }
  inst->on_message(m);
}

Sim::Sim(int n, NetConfig net, std::uint64_t seed, std::shared_ptr<Adversary> adversary)
    : n_(n),
      delay_(net, mix64(seed ^ 0xD31A7ULL)),
      rng_(mix64(seed)),
      adversary_(std::move(adversary)) {
  metrics_.bind(&routes_);
  if (adversary_) adversary_->bind_routes(&routes_);
  queue_.on_delivery([this](Msg&& m) {
    parties_[static_cast<std::size_t>(m.to)]->deliver(m);
  });
  queue_.on_fire([this](int owner, const std::function<void()>& fn) {
    parties_[static_cast<std::size_t>(owner)]->fire(fn);
  });
  parties_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    parties_.push_back(std::make_unique<Party>(*this, i, honest(i), rng_.fork(static_cast<std::uint64_t>(i))));
}

bool Sim::honest(int i) const { return !adversary_ || !adversary_->is_corrupt(i); }

void Sim::post(Msg m) {
  if (adversary_) {
    // Mobile corruption: advance the adversary's epoch lazily from the send
    // path (corruption only ever manifests through traffic, so this is the
    // earliest point a schedule change can matter; no queue events means
    // epoch-free adversaries keep bit-identical traces).
    if (auto period = adversary_->epoch_period()) {
      const std::uint64_t epoch = queue_.now() / *period;
      if (!adv_epoch_ || *adv_epoch_ != epoch) {
        adv_epoch_ = epoch;
        adversary_->on_epoch(epoch, queue_.now());
      }
    }
    if (adversary_->active(m.from) && !adversary_->filter_outgoing(m, rng_)) return;
  }
  metrics_.record_send(m, honest(m.from), routes_.label_of(m.route));
  Tick delay = delay_.delay_for(m);
  if (adversary_) {
    if (auto d = adversary_->delay_override(m)) delay = *d;
  }
  Tick arrive = queue_.now() + (delay == 0 ? 1 : delay);  // delivery strictly later
  queue_.post_delivery(arrive, std::move(m));
}

std::uint64_t Sim::run(Tick max_time, std::uint64_t max_events) {
  // Every delay draw — async jitter included — happens in Sim::post, which
  // the executor's merge phase replays in canonical (pri, seq) order, so the
  // window executor is bit-identical to the sequential engine in every
  // network profile; async runs use it too.
  if (exec_) return exec_->run(max_time, max_events);
  return queue_.run(max_time, max_events);
}

void Sim::set_threads(int threads, std::size_t min_batch) {
  exec_.reset();
  if (threads > 1) {
    if (min_batch == 0) min_batch = WindowExecutor::kDefaultMinBatch;
    exec_ = std::make_unique<WindowExecutor>(*this, threads, min_batch);
  }
}

int Sim::threads() const { return exec_ ? exec_->threads() : 1; }

Sim::~Sim() = default;

}  // namespace bobw
