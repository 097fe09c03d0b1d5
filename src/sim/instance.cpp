#include "src/sim/instance.hpp"

namespace bobw {

Instance::Instance(Party& party, const Addr& addr)
    : party_(party), route_(party.sim().routes().resolve(addr)) {
  party_.register_instance(this);
}

Instance::~Instance() { party_.unregister_instance(route_); }

}  // namespace bobw
