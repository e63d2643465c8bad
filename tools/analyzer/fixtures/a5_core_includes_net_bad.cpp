// analyzer-path: src/core/fixture_includes_net.cpp
// Known-bad fixture: a core/ file depending on net/. The two-endpoint
// session layer and the many-node simulator are siblings over hal/ and
// mac/; a core/ file that borrows net/'s event queue inverts the
// layering and drags the whole network library into every core user.

// expect: A5-layering
#include "net/event_queue.hpp"

// No finding when the dependency is explicitly justified:
// analyzer: layering(fixture demonstrates a documented waiver)
#include "net/topology.hpp"

// hal/ and mac/ are the sanctioned dependencies — no finding.
#include "hal/radio.hpp"
#include "mac/arq.hpp"

namespace braidio::core {

inline int fixture_slot_count() { return 8; }

}  // namespace braidio::core
