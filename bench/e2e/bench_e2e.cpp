// End-to-end ΠCirEval benchmark program. Each process does one job and
// prints one JSON object as its last stdout line; bench/e2e/run.py spawns
// the processes one at a time and aggregates them.
//
//   bench_e2e run   --workload W --seed S --rep R [--smoke]
//       One public run_mpc call, timed, checked against the circuit
//       evaluated in the clear; then kSetups timed constructions of the
//       same instance trees (destroyed untimed) and the process's peak RSS.
//   bench_e2e trace --workload W --seed S [--smoke]
//       Rep 0 again, through a replica of run_mpc's glue under a recording
//       adversary, timing construction, the event loop and teardown apart;
//       then standalone runs of single layers (ΠVSS, ΠBA, ΠACS,
//       ΠPreProcessing, ΠBeaver, reconstruction).
//   bench_e2e ref
//       The fixed reference job, timed; run.py runs one before every rep.
//
// The seed S fixes the circuit wiring, the party inputs and the crash set;
// rep R's run seed is derived from (S, R). Everything here is single
// threaded (MpcConfig::threads = 1).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/acs/acs.hpp"
#include "src/ba/ba.hpp"
#include "src/ba/coin.hpp"
#include "src/core/runner.hpp"
#include "src/field/poly.hpp"
#include "src/mpc/beaver.hpp"
#include "src/mpc/cir_eval.hpp"
#include "src/mpc/preprocess.hpp"
#include "src/mpc/sharing.hpp"
#include "src/vss/vss.hpp"

using namespace bobw;

namespace {

constexpr Tick kDelta = 1000;
// Timed constructions per `run` process; run.py reports their median.
constexpr int kSetups = 3;

struct Workload {
  const char* name;
  int n, ts, ta;
  NetMode mode;
  int crashed;       // parties that crash (stay silent) from tick 0
  int width, depth;  // layered circuit: `width` gates mul(a, add(b, c)) per layer
};

// Why each workload exists is in bench/e2e/README.md.
constexpr Workload kFull[] = {
    {"sync-crisp", 10, 3, 0, NetMode::kSynchronous, 0, 4, 2},
    {"async-crash", 9, 2, 2, NetMode::kAsynchronous, 2, 4, 2},
    {"sync-crash", 10, 3, 0, NetMode::kSynchronous, 3, 4, 2},
    {"mult-heavy", 7, 2, 0, NetMode::kSynchronous, 0, 32, 8},
};
// --smoke: the same shapes at n = 4 / 5, for checking the pipeline quickly.
constexpr Workload kSmoke[] = {
    {"sync-crisp", 4, 1, 0, NetMode::kSynchronous, 0, 4, 2},
    {"async-crash", 5, 1, 1, NetMode::kAsynchronous, 1, 4, 2},
    {"sync-crash", 5, 1, 1, NetMode::kSynchronous, 1, 4, 2},
    {"mult-heavy", 5, 1, 1, NetMode::kSynchronous, 0, 16, 4},
};

using Clock = std::chrono::steady_clock;
double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t at(int i) { return static_cast<std::size_t>(i); }

// ------------------------------------------------------------ inputs ---

Circuit layered_circuit(int n, int width, int depth, Rng& rng) {
  Circuit c(n);
  std::vector<int> prev;
  for (int p = 0; p < n; ++p) prev.push_back(c.input(p));
  for (int d = 0; d < depth; ++d) {
    std::vector<int> cur;
    for (int g = 0; g < width; ++g) {
      const int a = prev[rng.next_below(prev.size())];
      const int b = prev[rng.next_below(prev.size())];
      const int e = prev[rng.next_below(prev.size())];
      cur.push_back(c.mul(a, c.add(b, e)));
    }
    prev = std::move(cur);
  }
  int out = prev[0];
  for (std::size_t k = 1; k < prev.size(); ++k) out = c.add(out, prev[k]);
  c.set_output(out);
  return c;
}

struct Job {
  Workload w;
  std::uint64_t seed;
  Circuit cir;
  std::vector<Fp> inputs;
  std::set<int> crash;
};

Job make_job(const Workload& w, std::uint64_t seed) {
  Rng rng(mix64(seed));
  Job j{w, seed, layered_circuit(w.n, w.width, w.depth, rng), {}, {}};
  for (int i = 0; i < w.n; ++i) j.inputs.push_back(Fp::random(rng));
  while (static_cast<int>(j.crash.size()) < w.crashed)
    j.crash.insert(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(w.n))));
  return j;
}

MpcConfig config(const Job& j, int rep) {
  MpcConfig cfg;
  cfg.n = j.w.n;
  cfg.ts = j.w.ts;
  cfg.ta = j.w.ta;
  cfg.mode = j.w.mode;
  cfg.delta = kDelta;  // async delays keep the default band U[1, 4Δ]
  cfg.seed = mix64(mix64(j.seed) + static_cast<std::uint64_t>(rep));
  cfg.corrupt = j.crash;
  cfg.threads = 1;
  return cfg;
}

std::shared_ptr<Adversary> crash_adversary(const std::set<int>& crash) {
  if (crash.empty()) return nullptr;
  auto adv = std::make_shared<CrashAdversary>();
  for (int c : crash) adv->corrupt(c);
  return adv;
}

Tick last_honest_finish(const Job& j, const MpcResult& r) {
  Tick last = 0;
  for (int i = 0; i < j.w.n; ++i)
    if (!j.crash.count(i)) last = std::max(last, r.finish_time[at(i)]);
  return last;
}

// "" when the run meets every check, else the first failure.
std::string check(const Job& j, const MpcResult& r) {
  const int n = j.w.n;
  if (r.truncated) return "run truncated";
  if (!r.all_honest_agree(j.crash)) return "an honest party has no output or they disagree";
  if (static_cast<int>(r.input_cs.size()) < n - j.w.ts) return "|CS| < n - ts";
  std::vector<Fp> x(at(n), Fp(0));
  for (int p : r.input_cs) x[at(p)] = j.inputs[at(p)];
  for (int i = 0; i < n; ++i)
    if (!j.crash.count(i) && *r.outputs[at(i)] != j.cir.eval_plain(x)) return "wrong output";
  if (j.w.mode == NetMode::kSynchronous) {
    for (int i = 0; i < n; ++i)
      if (!j.crash.count(i) &&
          std::find(r.input_cs.begin(), r.input_cs.end(), i) == r.input_cs.end())
        return "an honest party is missing from CS";
    const Tick bound = Timing::compute(j.w.ts, kDelta).t_tripgen +
                       static_cast<Tick>(j.cir.mult_depth() + 4) * kDelta;
    if (last_honest_finish(j, r) > bound) return "finished after T_TripGen + (D_M + 4)Δ";
  }
  return "";
}

// ------------------------------------------------------------- JSON ---

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Json {
 public:
  Json& num(const std::string& k, double v) { return raw(k, fmt(v)); }
  Json& count(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  Json& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& str(const std::string& k, const std::string& v) { return raw(k, "\"" + v + "\""); }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ", \"") + k + "\": " + v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <class T, class F>
std::string list(const std::vector<T>& xs, F&& f) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) s += (i ? ", " : "") + f(xs[i]);
  return s + "]";
}

// The fields a traced replica must reproduce exactly.
Json& result_fields(Json& js, const Job& j, const MpcResult& r) {
  return js.count("finish_tick", last_honest_finish(j, r))
      .count("end_tick", r.end_time)
      .count("msgs", r.honest_msgs)
      .count("bits", r.honest_bits)
      .count("events", r.events)
      .raw("outputs", list(r.outputs, [](const std::optional<Fp>& y) {
             return y ? std::to_string(y->value()) : std::string("null");
           }))
      .raw("finish", list(r.finish_time, [](Tick t) { return std::to_string(t); }))
      .raw("cs", list(r.input_cs, [](int p) { return std::to_string(p); }));
}

// ------------------------------------------------ run_mpc glue replica ---

// run_mpc (src/core/runner.cpp) split so that construction, the event loop
// and teardown can be timed apart. `trace` checks that it reproduces the
// timed run_mpc child exactly, so a change to run_mpc's glue shows up as a
// benchmark failure until this replica follows it.
struct Glue {
  std::unique_ptr<Sim> sim;
  std::unique_ptr<IdealCoin> coin;
  MpcResult res;
  std::vector<std::shared_ptr<CirEval>> evals;
};

NetConfig net_config(const MpcConfig& cfg) {
  NetConfig net;
  net.mode = cfg.mode;
  net.delta = cfg.delta;
  net.async_min = cfg.async_min;
  net.async_max = cfg.async_max;
  if (cfg.sync_min > 0) net.sync_min_delay = cfg.sync_min;
  net.clamp_sync_min();
  return net;
}

std::unique_ptr<Glue> construct(const Job& j, const MpcConfig& cfg,
                                const std::shared_ptr<Adversary>& adv) {
  auto g = std::make_unique<Glue>();
  g->sim = std::make_unique<Sim>(cfg.n, net_config(cfg), cfg.seed, adv);
  g->sim->set_threads(cfg.threads, cfg.min_batch);
  g->coin = std::make_unique<IdealCoin>(mix64(cfg.seed ^ 0xBEEF));
  const Ctx ctx = Ctx::make(cfg.n, cfg.ts, cfg.ta, cfg.delta, g->coin.get());

  MpcResult& res = g->res;
  res.outputs.resize(at(cfg.n));
  res.output_vectors.resize(at(cfg.n));
  res.finish_time.assign(at(cfg.n), 0);
  g->evals.resize(at(cfg.n));
  Sim& sim = *g->sim;
  for (int i = 0; i < cfg.n; ++i) {
    if (!sim.honest(i) && !(adv && adv->participates(i))) continue;
    g->evals[at(i)] = std::make_shared<CirEval>(
        sim.party(i), "mpc", j.cir, j.inputs[at(i)], ctx, /*base=*/0,
        [&res, &sim, i](const std::vector<Fp>& y) {
          res.outputs[at(i)] = y[0];
          res.output_vectors[at(i)] = y;
          res.finish_time[at(i)] = sim.now();
        });
    sim.party(i).own(g->evals[at(i)]);
  }
  return g;
}

void run_loop(Glue& g, const MpcConfig& cfg) {
  MpcResult& res = g.res;
  res.events = g.sim->run(~Tick{0}, cfg.max_events);
  res.truncated = g.sim->truncated();
  res.end_time = g.sim->now();
  res.honest_bits = g.sim->metrics().honest_bits();
  res.honest_msgs = g.sim->metrics().honest_msgs();
  for (int i = 0; i < cfg.n; ++i) {
    const auto& s = g.evals[at(i)];
    if (s && g.sim->honest(i) && s->input_cs()) {
      res.input_cs = *s->input_cs();
      break;
    }
  }
}

// -------------------------------------------------------------- tracer ---

// Crash-corrupts the workload's crash set and records every send. Sim::post
// asks delay_override after the metrics and the delay draw; returning
// nullopt keeps the drawn delay, so a traced run is event-for-event the
// untraced one.
class Tracer : public Adversary {
 public:
  enum Layer { kAcast, kSba, kAba, kVssP2p, kOpen, kOther, kLayerCount };
  static constexpr const char* kPhases[] = {"input_acs", "tripsh_vss", "tripsh_acs",
                                            "tripsh_verify", "prep_ba", "tripext", "online"};
  static constexpr int kPhaseCount = 7;

  struct Count {
    std::uint64_t msgs = 0, bits = 0;
    Tick last = 0;
  };
  struct Span {
    Tick first = ~Tick{0}, last = 0;
  };

  explicit Tracer(Tick delta) : delta_(delta) {}

  std::optional<Tick> delay_override(const Msg& m) override {
    if (m.route >= routes_.size()) routes_.resize(m.route + 1);
    Route& r = routes_[m.route];
    if (!r.known) classify(route_name(m), r);
    const std::uint64_t bits = m.bits();
    auto add = [&](Count& c) {
      ++c.msgs;
      c.bits += bits;
      c.last = std::max(c.last, m.sent_at);
    };
    add(layers_[r.layer]);
    if (r.phase >= 0) add(phases_[r.phase]);
    if (r.vss >= 0) widen(vss_spans_[at(r.vss)], m.sent_at);
    if (r.ba >= 0) widen(ba_spans_[at(r.ba)], m.sent_at);
    const std::size_t window = m.sent_at / delta_;
    if (window >= per_window_.size()) per_window_.resize(window + 1, 0);
    ++per_window_[window];
    return std::nullopt;
  }

  const Count& layer(Layer l) const { return layers_[l]; }
  const Count& phase(int p) const { return phases_[p]; }
  std::uint64_t acast_planes() const { return acast_routes_; }
  std::uint64_t sba_schedules() const { return sba_routes_; }
  const std::vector<Span>& vss_spans() const { return vss_spans_; }
  const std::vector<Span>& ba_spans() const { return ba_spans_; }
  std::uint64_t peak_window_msgs() const {
    return per_window_.empty() ? 0 : *std::max_element(per_window_.begin(), per_window_.end());
  }

 private:
  struct Route {
    bool known = false;
    Layer layer = kOther;
    int phase = -1, vss = -1, ba = -1;
  };

  static void widen(Span& s, Tick t) {
    s.first = std::min(s.first, t);
    s.last = std::max(s.last, t);
  }
  static bool starts(const std::string& s, const char* p) { return s.rfind(p, 0) == 0; }
  static bool is_seg(const std::string& s, const char* name) {
    const std::size_t k = std::strlen(name);
    return starts(s, name) && (s.size() == k || s[k] == ':');
  }

  // Routes are hierarchical ids such as "mpc/prep/tsh:3/acs/vss:2/plane/sba1".
  // The last segment names the sending layer; the leading ones the ΠCirEval
  // stage; a "vss"/"vss:J" or "ba"/"ba:J" segment closes an instance prefix.
  void classify(const std::string& name, Route& r) {
    r.known = true;
    std::vector<std::string> seg;
    for (std::size_t b = 0;;) {
      const std::size_t e = name.find('/', b);
      seg.push_back(name.substr(b, e == std::string::npos ? std::string::npos : e - b));
      if (e == std::string::npos) break;
      b = e + 1;
    }
    const std::string& last = seg.back();
    if (last == "acast") {
      r.layer = kAcast;
      ++acast_routes_;
    } else if (starts(last, "sba")) {
      r.layer = kSba;
      ++sba_routes_;
    } else if (last == "aba") {
      r.layer = kAba;
    } else if (is_seg(last, "vss") || is_seg(last, "wps")) {
      r.layer = kVssP2p;
    } else if (last == "open" || last == "gamma" || last == "suspect" || last == "out") {
      r.layer = kOpen;
    }

    if (seg.size() == 1 || is_seg(seg[1], "mul") || seg[1] == "out") {
      r.phase = 6;
    } else if (seg[1] == "in") {
      r.phase = 0;
    } else if (seg[1] == "prep" && seg.size() > 2) {
      if (is_seg(seg[2], "tsh"))
        r.phase = seg.size() > 3 && seg[3] == "vss" ? 1 : seg.size() > 3 && seg[3] == "acs" ? 2 : 3;
      else if (is_seg(seg[2], "ba"))
        r.phase = 4;
      else if (is_seg(seg[2], "ext"))
        r.phase = 5;
    }

    std::size_t last_ba = seg.size();
    for (std::size_t k = 0; k < seg.size(); ++k)
      if (is_seg(seg[k], "ba")) last_ba = k;
    std::string prefix;
    for (std::size_t k = 0; k < seg.size(); ++k) {
      prefix += (k ? "/" : "") + seg[k];
      if (r.vss < 0 && is_seg(seg[k], "vss")) r.vss = instance(vss_ids_, vss_spans_, prefix);
      if (k == last_ba) r.ba = instance(ba_ids_, ba_spans_, prefix);
    }
  }

  static int instance(std::unordered_map<std::string, int>& ids, std::vector<Span>& spans,
                      const std::string& prefix) {
    auto [it, fresh] = ids.emplace(prefix, static_cast<int>(spans.size()));
    if (fresh) spans.emplace_back();
    return it->second;
  }

  Tick delta_;
  std::vector<Route> routes_;
  Count layers_[kLayerCount];
  Count phases_[kPhaseCount];
  std::uint64_t acast_routes_ = 0, sba_routes_ = 0;
  std::unordered_map<std::string, int> vss_ids_, ba_ids_;
  std::vector<Span> vss_spans_, ba_spans_;
  std::vector<std::uint64_t> per_window_;
};

double in_delta(Tick t) { return static_cast<double>(t) / static_cast<double>(kDelta); }

// Nearest-rank percentile of instance spans, in Δ.
double span_percentile(const std::vector<Tracer::Span>& spans, double q) {
  std::vector<Tick> v;
  for (const auto& s : spans) v.push_back(s.last - s.first);
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return in_delta(v[std::max<std::size_t>(rank, 1) - 1]);
}

// ---------------------------------------------------- standalone layers ---

// One standalone layer run in its own Sim, with the workload's network
// profile and crash set. Host time covers construction and the event loop.
struct World {
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<Sim> sim;
  std::unique_ptr<IdealCoin> coin;
  Ctx ctx;
  std::vector<int> honest;
  std::vector<std::optional<Tick>> done;
  Rng rng;

  World(const Job& j, const MpcConfig& cfg) : rng(cfg.seed ^ 0x1A7E5ULL) {
    sim = std::make_unique<Sim>(cfg.n, net_config(cfg), cfg.seed, crash_adversary(j.crash));
    coin = std::make_unique<IdealCoin>(mix64(cfg.seed ^ 0xBEEF));
    ctx = Ctx::make(cfg.n, cfg.ts, cfg.ta, cfg.delta, coin.get());
    for (int i = 0; i < cfg.n; ++i)
      if (sim->honest(i)) honest.push_back(i);
    done.resize(at(cfg.n));
  }
  Party& party(int i) { return sim->party(i); }
  void mark(int i) { done[at(i)] = sim->now(); }

  struct Out {
    double ms;
    Tick last;  // tick of the last honest party's output
  };
  Out run(const char* layer) {
    sim->run();
    Out o{since(t0) * 1e3, 0};
    for (int i : honest) {
      if (!done[at(i)]) throw std::runtime_error(std::string(layer) + ": honest party without output");
      o.last = std::max(o.last, *done[at(i)]);
    }
    return o;
  }
  // The secret of a ts-sharing, from the honest parties' shares.
  Fp open(const std::vector<std::vector<Fp>>& shares, std::size_t k) const {
    std::vector<Fp> xs, ys;
    for (int i : honest) {
      xs.push_back(alpha(i));
      ys.push_back(shares[at(i)][k]);
    }
    return lagrange_eval(xs, ys, Fp(0));
  }
};

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(what);
}

// Triples each ΠTripSh dealer shares for c_M triples (ΠPreProcessing's L).
int per_dealer(const Job& j) {
  const int d = (j.w.n - j.w.ts - 1) / 2;
  const int per_ext = d + 1 - j.w.ts;
  return (std::max(1, j.cir.mult_count()) + per_ext - 1) / per_ext;
}

World::Out drive_vss(const Job& j, const MpcConfig& cfg) {
  World w(j, cfg);
  const int dealer = w.honest.front();
  const int L = 3 * per_dealer(j) * (2 * j.w.ts + 1);  // ΠTripSh's sharing
  std::vector<Poly> polys;
  for (int l = 0; l < L; ++l) polys.push_back(Poly::random_with_secret(j.w.ts, Fp::random(w.rng), w.rng));
  std::vector<std::vector<Fp>> shares(at(j.w.n));
  std::vector<std::unique_ptr<Vss>> inst(at(j.w.n));
  for (int i : w.honest)
    inst[at(i)] = std::make_unique<Vss>(w.party(i), "vss", dealer, L, w.ctx, 0,
                                        [&w, &shares, i](const std::vector<Fp>& s) {
                                          shares[at(i)] = s;
                                          w.mark(i);
                                        });
  inst[at(dealer)]->deal(polys);
  auto out = w.run("vss");
  require(w.open(shares, 0) == polys[0].constant_term(), "vss: wrong secret");
  return out;
}

World::Out drive_ba(const Job& j, const MpcConfig& cfg) {
  World w(j, cfg);
  std::vector<std::optional<bool>> bit(at(j.w.n));
  std::vector<std::unique_ptr<Ba>> inst(at(j.w.n));
  for (int i : w.honest) {
    inst[at(i)] = std::make_unique<Ba>(w.party(i), "ba", w.ctx, 0, [&w, &bit, i](bool b) {
      bit[at(i)] = b;
      w.mark(i);
    });
    inst[at(i)]->set_input(true);
  }
  auto out = w.run("ba");
  for (int i : w.honest) require(*bit[at(i)], "ba: unanimous input 1 not decided");
  return out;
}

World::Out drive_acs(const Job& j, const MpcConfig& cfg) {
  World w(j, cfg);
  std::vector<std::vector<int>> cs(at(j.w.n));
  std::vector<std::unique_ptr<Acs>> inst(at(j.w.n));
  for (int i : w.honest) {
    inst[at(i)] = std::make_unique<Acs>(w.party(i), "acs", 1, w.ctx, 0, Acs::CsRule::kAllOnes,
                                        [&w, &cs, i](const Acs::Output& o) {
                                          cs[at(i)] = o.cs;
                                          w.mark(i);
                                        });
    inst[at(i)]->set_input({Poly::random_with_secret(j.w.ts, Fp::random(w.rng), w.rng)});
  }
  auto out = w.run("acs");
  for (int i : w.honest) {
    require(cs[at(i)] == cs[at(w.honest.front())], "acs: parties disagree on CS");
    require(static_cast<int>(cs[at(i)].size()) >= j.w.n - j.w.ts, "acs: |CS| < n - ts");
  }
  return out;
}

World::Out drive_preprocess(const Job& j, const MpcConfig& cfg) {
  World w(j, cfg);
  const int cm = std::max(1, j.cir.mult_count());
  std::vector<std::vector<Fp>> a(at(j.w.n)), b(at(j.w.n)), c(at(j.w.n));
  std::vector<std::unique_ptr<Preprocess>> inst(at(j.w.n));
  for (int i : w.honest) {
    inst[at(i)] = std::make_unique<Preprocess>(
        w.party(i), "prep", w.ctx, 0, cm, [&, i](const std::vector<TripleShare>& t) {
          for (const auto& s : t) {
            a[at(i)].push_back(s.a);
            b[at(i)].push_back(s.b);
            c[at(i)].push_back(s.c);
          }
          w.mark(i);
        });
    inst[at(i)]->deal();
  }
  auto out = w.run("preprocess");
  for (int i : w.honest) require(static_cast<int>(a[at(i)].size()) == cm, "preprocess: triple count");
  require(w.open(a, 0) * w.open(b, 0) == w.open(c, 0), "preprocess: triple not multiplicative");
  return out;
}

// Shares of fresh random ts-sharings of `secrets`, indexed [party][k].
std::vector<std::vector<Fp>> deal_shares(World& w, const std::vector<Fp>& secrets) {
  std::vector<std::vector<Fp>> sh(at(w.ctx.n));
  for (Fp s : secrets) {
    const Poly p = Poly::random_with_secret(w.ctx.ts, s, w.rng);
    for (int i = 0; i < w.ctx.n; ++i) sh[at(i)].push_back(p.eval(alpha(i)));
  }
  return sh;
}

World::Out drive_beaver(const Job& j, const MpcConfig& cfg) {
  World w(j, cfg);
  const int width = j.w.width;  // the widest circuit layer
  std::vector<Fp> x, y, a, b, c;
  for (int k = 0; k < width; ++k) {
    x.push_back(Fp::random(w.rng));
    y.push_back(Fp::random(w.rng));
    a.push_back(Fp::random(w.rng));
    b.push_back(Fp::random(w.rng));
    c.push_back(a.back() * b.back());
  }
  const auto sx = deal_shares(w, x), sy = deal_shares(w, y), sa = deal_shares(w, a),
             sb = deal_shares(w, b), sc = deal_shares(w, c);
  std::vector<std::vector<Fp>> z(at(j.w.n));
  std::vector<std::unique_ptr<BeaverBatch>> inst(at(j.w.n));
  for (int i : w.honest) {
    std::vector<BeaverIn> in;
    for (std::size_t k = 0; k < at(width); ++k)
      in.push_back({sx[at(i)][k], sy[at(i)][k], {sa[at(i)][k], sb[at(i)][k], sc[at(i)][k]}});
    inst[at(i)] = std::make_unique<BeaverBatch>(w.party(i), "beaver", w.ctx,
                                                [&w, &z, i](const std::vector<Fp>& zs) {
                                                  z[at(i)] = zs;
                                                  w.mark(i);
                                                });
    inst[at(i)]->start(std::move(in));
  }
  auto out = w.run("beaver");
  require(w.open(z, 0) == x[0] * y[0], "beaver: wrong product");
  return out;
}

World::Out drive_reconstruct(const Job& j, const MpcConfig& cfg) {
  World w(j, cfg);
  const int L = std::max(1, j.cir.mult_count());
  std::vector<Fp> secrets;
  for (int k = 0; k < L; ++k) secrets.push_back(Fp::random(w.rng));
  const auto sh = deal_shares(w, secrets);
  std::vector<std::vector<Fp>> got(at(j.w.n));
  std::vector<std::unique_ptr<Reconstruct>> inst(at(j.w.n));
  for (int i : w.honest) {
    inst[at(i)] = std::make_unique<Reconstruct>(w.party(i), "rec", L, w.ctx,
                                                [&w, &got, i](const std::vector<Fp>& v) {
                                                  got[at(i)] = v;
                                                  w.mark(i);
                                                });
    inst[at(i)]->start(sh[at(i)]);
  }
  auto out = w.run("reconstruct");
  for (int i : w.honest) require(got[at(i)] == secrets, "reconstruct: wrong values");
  return out;
}

// ------------------------------------------------------- reference job ---

// A fixed job that uses none of the repository's code, so no change to the
// protocols moves it. Run in a fresh process just before each rep, its wall
// time says how fast the shared host is at that moment; run.py divides the
// rep's wall time by it. On the shared host, spells of contention last
// minutes and slow every run_mpc workload by up to 1.8x, memory-bound work
// more than arithmetic. The job is therefore half of each, in time: a
// discrete-event loop with a timer heap and a hash map of heap-allocated
// payloads, then a dependent chain of 61-bit modular products, the two kinds
// of work run_mpc does.
struct RefResult {
  double s;
  std::uint64_t sum;  // fixed for this job; printed so the work is not elided
};

RefResult reference_job() {
  constexpr std::uint64_t kP = (1ULL << 61) - 1;
  constexpr int kEvents = 150000, kProducts = 24000000;
  constexpr std::uint64_t kSlots = 60000;
  auto mulmod = [](std::uint64_t a, std::uint64_t b) {  // low 61 bits of a times b's, mod kP
    const __uint128_t p = static_cast<__uint128_t>(a & kP) * (b & kP);
    const std::uint64_t s = static_cast<std::uint64_t>(p & kP) + static_cast<std::uint64_t>(p >> 61);
    return s >= kP ? s - kP : s;
  };
  struct Ev {
    std::uint64_t time, key;
    bool operator>(const Ev& o) const { return time > o.time; }
  };
  const auto t0 = Clock::now();
  std::uint64_t x = 0x243F6A8885A308D3ULL, sum = 0;
  auto next = [&x] {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  {
    std::vector<Ev> heap;
    std::unordered_map<std::uint64_t, std::shared_ptr<std::vector<std::uint64_t>>> state;
    for (int k = 0; k < 4096; ++k) heap.push_back({next() % 1024, next()});
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    for (int e = 0; e < kEvents; ++e) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const Ev ev = heap.back();
      heap.pop_back();
      auto& slot = state[ev.key % kSlots];
      if (!slot || next() % 4 == 0) slot = std::make_shared<std::vector<std::uint64_t>>(8 + next() % 56);
      for (auto& v : *slot) sum = v = mulmod(v + sum + 1, ev.key | 1);
      heap.push_back({ev.time + 1 + next() % 1024, next()});
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
  }
  for (int k = 0; k < kProducts; ++k) sum = mulmod(sum + next(), 0x1F3D5B79A2C4E687ULL);
  return {since(t0), sum};
}

// --------------------------------------------------------------- modes ---

int ref_mode() {
  const RefResult r = reference_job();
  Json js;
  js.num("ref_s", r.s).count("ref_sum", r.sum);
  std::printf("%s\n", js.done().c_str());
  return 0;
}

int run_mode(const Job& j, int rep) {
  const MpcConfig cfg = config(j, rep);
  auto t0 = Clock::now();
  const MpcResult r = run_mpc(j.cir, j.inputs, cfg);
  const double wall = since(t0);
  const std::string why = check(j, r);

  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    t0 = Clock::now();
    auto g = construct(j, cfg, crash_adversary(j.crash));
    setups.push_back(since(t0));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  Json js;
  js.flag("ok", why.empty()).str("why", why).flag("sync", j.w.mode == NetMode::kSynchronous);
  js.num("wall_s", wall);
  js.raw("setup_s", list(setups, fmt));
  js.num("rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  result_fields(js, j, r);
  std::printf("%s\n", js.done().c_str());
  return 0;
}

int trace_mode(const Job& j) {
  const MpcConfig cfg = config(j, 0);
  auto tracer = std::make_shared<Tracer>(cfg.delta);
  for (int c : j.crash) tracer->corrupt(c);

  auto t0 = Clock::now();
  auto g = construct(j, cfg, tracer);
  const double construct_s = since(t0);
  t0 = Clock::now();
  run_loop(*g, cfg);
  const double loop_s = since(t0);
  const MpcResult res = g->res;
  const std::uint64_t routes = g->sim->routes().size();
  const double hits = static_cast<double>(g->sim->decode_cache_stats().hits.load());
  const double misses = static_cast<double>(g->sim->decode_cache_stats().misses.load());
  t0 = Clock::now();
  g.reset();
  const double teardown_s = since(t0);
  const std::string why = check(j, res);

  const Timing T = Timing::compute(j.w.ts, kDelta);
  const auto vss = drive_vss(j, cfg);
  const auto ba = drive_ba(j, cfg);
  const auto acs = drive_acs(j, cfg);
  const auto prep = drive_preprocess(j, cfg);
  const auto beaver = drive_beaver(j, cfg);
  const auto rec = drive_reconstruct(j, cfg);
  auto slack = [](Tick bound, Tick t) { return in_delta(bound) - in_delta(t); };

  Json m;
  m.num("core.construct_s", construct_s).num("core.loop_s", loop_s).num("core.teardown_s", teardown_s);
  m.count("sim.events", res.events).count("sim.routes", routes);
  m.count("sim.peak_window_msgs", tracer->peak_window_msgs());
  m.count("vss.instances", tracer->vss_spans().size()).count("ba.instances", tracer->ba_spans().size());
  auto layer = [&m](const std::string& name, const Tracer::Count& c) {
    m.count(name + ".msgs", c.msgs).num(name + ".mbits", static_cast<double>(c.bits) / 1e6);
  };
  layer("bcast.acast", tracer->layer(Tracer::kAcast));
  layer("bcast.sba", tracer->layer(Tracer::kSba));
  layer("ba.aba", tracer->layer(Tracer::kAba));
  layer("vss.p2p", tracer->layer(Tracer::kVssP2p));
  layer("mpc.open", tracer->layer(Tracer::kOpen));
  m.count("bcast.acast_planes", tracer->acast_planes()).count("bcast.sba_schedules", tracer->sba_schedules());
  m.num("ba.span_delta_p50", span_percentile(tracer->ba_spans(), 0.5));
  m.num("ba.span_delta_p90", span_percentile(tracer->ba_spans(), 0.9));
  m.num("ba.instance_ms", ba.ms).num("ba.decide_delta", in_delta(ba.last));
  m.num("ba.slack_delta", slack(T.t_ba, ba.last));
  m.num("vss.sharing_ms", vss.ms).num("vss.decode_hit_rate", hits / std::max(1.0, hits + misses));
  m.num("vss.output_delta", in_delta(vss.last)).num("vss.slack_delta", slack(T.t_vss, vss.last));
  m.num("vss.span_delta_p50", span_percentile(tracer->vss_spans(), 0.5));
  m.num("vss.span_delta_p90", span_percentile(tracer->vss_spans(), 0.9));
  m.num("acs.instance_ms", acs.ms).num("acs.output_delta", in_delta(acs.last));
  m.num("acs.slack_delta", slack(T.t_acs, acs.last));
  m.num("mpc.preprocess_ms", prep.ms).num("mpc.preprocess_delta", in_delta(prep.last));
  m.num("mpc.preprocess_slack_delta", slack(T.t_tripgen, prep.last));
  m.num("mpc.beaver_ms", beaver.ms).num("rs.reconstruct_ms", rec.ms);
  for (int p = 0; p < Tracer::kPhaseCount; ++p) {
    const std::string name = std::string("phase.") + Tracer::kPhases[p];
    layer(name, tracer->phase(p));
    m.num(name + ".end_delta", in_delta(tracer->phase(p).last));
  }

  Json replica;
  result_fields(replica, j, res);
  Json js;
  js.flag("ok", why.empty()).str("why", why);
  js.raw("replica", replica.done());
  js.raw("metrics", m.done());
  std::printf("%s\n", js.done().c_str());
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e run --workload W --seed S --rep R [--smoke]\n"
               "       bench_e2e trace --workload W --seed S [--smoke]\n"
               "       bench_e2e ref\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  if (mode == "ref") {
    if (argc != 2) usage();
    return ref_mode();
  }
  std::string name;
  std::uint64_t seed = 0;
  int rep = 0;
  bool smoke = false;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--smoke") {
        smoke = true;
      } else if (i + 1 < argc && a == "--workload") {
        name = argv[++i];
      } else if (i + 1 < argc && a == "--seed") {
        seed = std::stoull(argv[++i]);
      } else if (i + 1 < argc && a == "--rep") {
        rep = std::stoi(argv[++i]);
      } else {
        usage();
      }
    }
  } catch (const std::exception&) {
    usage();
  }
  const Workload* w = nullptr;
  for (const Workload& c : smoke ? kSmoke : kFull)
    if (name == c.name) w = &c;
  if (!w || rep < 0) usage();

  try {
    const Job j = make_job(*w, seed);
    if (mode == "run") return run_mode(j, rep);
    if (mode == "trace") return trace_mode(j);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  usage();
}
