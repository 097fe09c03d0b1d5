// Typed routes: the one place that knows how an instance address is spelled.
//
// The protocol is a tree of sub-protocols (ΠCirEval → preprocessing →
// ΠTripSh → ΠVSS → ΠWPS → ΠBA → ΠBC/ACast), and every node of that tree is a
// route: a dense per-Sim RouteId. A root is interned from a free-form name
// ("mpc", "vss", a test's "proto:x/sub"); every other route is a child
// named by (parent route, segment kind, optional index) — protocol code
// never builds or parses a string. A parent that is not itself an Instance
// (a composite such as BcBank, Ba or TripSh) still owns a route: an
// interior node, with no instance registered on it, under which its
// children live.
//
// Each distinct route is computed once per Sim, whichever party registers
// it first, and keeps three things:
//  * its name, parent name + "/kind" or "/kind:index" (for example
//    "mpc/prep/tsh:3/vss/plane/acast") — the debug name that adversaries,
//    tests and reports match on;
//  * its label, the root's text before the first '/', inherited by every
//    descendant (Metrics buckets bits by the dense LabelId);
//  * its 64-bit path hash, FNV-1a of the name, continued one segment at a
//    time from the parent's hash (the ΠABA coin key).
//
// Messages carry the RouteId, parties dispatch through a flat vector
// indexed by it, and Sim::shared_state keeps one cross-party slot per route.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bobw {

/// Dense per-Sim instance address. Values are indices into RouteTable.
using RouteId = std::uint32_t;
/// Dense id of a route's top-level label (prefix before the first '/').
using LabelId = std::uint32_t;

inline constexpr RouteId kNoRoute = 0xFFFFFFFFu;

/// FNV-1a — deterministic across platforms (std::hash is not guaranteed).
/// `h` continues a previous hash over further bytes.
std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ULL);

/// What a protocol constructor is told about where it lives: a root name
/// (implicit from a string, so top-level callers write "mpc") or a child of
/// an existing route, `{parent, "kind"}` / `{parent, "kind", index}`.
struct Addr {
  Addr(const char* root) : seg(root) {}  // NOLINT(google-explicit-constructor)
  Addr(std::string root) : seg(std::move(root)) {}  // NOLINT(google-explicit-constructor)
  Addr(RouteId up, std::string kind, int i = -1) : parent(up), seg(std::move(kind)), index(i) {}

  RouteId parent = kNoRoute;  // kNoRoute: a root
  std::string seg;            // the root's name, or the child's kind
  int index = -1;             // < 0: no index
};

class RouteTable {
 public:
  /// The route `a` names, created on first sight: a root (label = the text
  /// before the first '/'; never the same route as a child that happens to
  /// have the same name) or parent/kind, parent/kind:index.
  RouteId resolve(const Addr& a);
  RouteId intern(const std::string& name) { return resolve(Addr(name)); }
  RouteId child(RouteId parent, std::string kind, int index = -1) {
    return resolve(Addr(parent, std::move(kind), index));
  }

  // resolve and the two accessors below lock the table: the window
  // executor's workers construct instances concurrently. Routes are only
  // appended, never moved, so a returned name stays valid.
  const std::string& name(RouteId r) const;
  std::uint64_t path_hash(RouteId r) const;

  /// Lock-free: called only from sequential phases (Sim::post in the merge,
  /// metrics materialisation), which the executor's pool barrier orders
  /// after every execute-phase append.
  LabelId label_of(RouteId r) const { return routes_[r].label; }
  const std::string& label_name(LabelId l) const { return label_names_[l]; }
  std::size_t size() const { return routes_.size(); }

 private:
  struct Route {
    std::string name;
    LabelId label;
    std::uint64_t hash;
  };

  mutable std::mutex mu_;
  std::deque<Route> routes_;
  /// (parent, kind, index) -> route, the triple packed into one short
  /// string (inline in std::string for every kind the protocols use).
  std::unordered_map<std::string, RouteId> ids_;
  std::unordered_map<std::string, LabelId> label_ids_;
  std::vector<std::string> label_names_;
};

}  // namespace bobw
