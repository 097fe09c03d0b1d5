#include "src/sim/route.hpp"

#include <charconv>

namespace bobw {

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

RouteId RouteTable::resolve(const Addr& a) {
  std::string key = a.seg;
  key.append(reinterpret_cast<const char*>(&a.parent), sizeof a.parent);
  key.append(reinterpret_cast<const char*>(&a.index), sizeof a.index);
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, fresh] = ids_.try_emplace(std::move(key), static_cast<RouteId>(routes_.size()));
  if (!fresh) return it->second;
  if (a.parent == kNoRoute) {
    std::string label = a.seg.substr(0, a.seg.find('/'));
    auto [lit, new_label] =
        label_ids_.try_emplace(label, static_cast<LabelId>(label_names_.size()));
    if (new_label) label_names_.push_back(std::move(label));
    routes_.push_back(Route{a.seg, lit->second, fnv1a(a.seg)});
    return it->second;
  }
  // The segment "/kind[:index]", appended to the parent's name and hashed
  // on from the parent's hash: the same bytes, so the same FNV-1a.
  std::string seg = "/" + a.seg;
  char digits[12];
  if (a.index >= 0) seg.append(":").append(digits, std::to_chars(digits, digits + 12, a.index).ptr);
  const Route& p = routes_[a.parent];
  routes_.push_back(Route{p.name + seg, p.label, fnv1a(seg, p.hash)});
  return it->second;
}

const std::string& RouteTable::name(RouteId r) const {
  std::lock_guard<std::mutex> lk(mu_);
  return routes_[r].name;
}

std::uint64_t RouteTable::path_hash(RouteId r) const {
  std::lock_guard<std::mutex> lk(mu_);
  return routes_[r].hash;
}

}  // namespace bobw
