// analyzer-path: src/mac/fixture_includes_phy.cpp
// Known-bad fixture: a MAC file reaching across the radio HAL boundary
// into phy/. The MAC consumes modes/bitrates/channel physics through
// hal/; pulling in phy/ headers reintroduces the coupling the HAL split
// removed.

// expect: A5-layering
#include "phy/link_budget.hpp"
// expect: A5-layering
#include "phy/ber.hpp"

// No finding: hal/ is the sanctioned dependency...
#include "hal/channel_model.hpp"
// ...and a commented-out include is not a dependency:
// #include "phy/modulation.hpp"

namespace braidio::mac {

inline double fixture_noise_floor_dbm() { return -96.0; }

}  // namespace braidio::mac
