// The calibrated Braidio power model.
//
// The paper publishes, for each (mode, bitrate), the TX:RX bits-per-joule
// ratio (Figs. 9 and 14), the carrier-side power budget (129 mW for the
// carrier-holding end), and the floor (16 uW, the backscatter tag at
// 10 kbps). Those constraints pin the full power table; see DESIGN.md §4.
// The table is the single source of truth for the braidio backend's
// capability lattice and Table 5 switch overheads.
#pragma once

#include <vector>

#include "hal/link_mode.hpp"
#include "hal/radio.hpp"

namespace braidio::core {

class PowerTable {
 public:
  /// Build the calibrated table (DESIGN.md §4).
  PowerTable();

  /// All nine (mode, bitrate) operating points.
  const std::vector<hal::OperatingPoint>& candidates() const {
    return entries_;
  }

  /// Lookup one operating point.
  const hal::OperatingPoint& candidate(hal::LinkMode mode,
                                       hal::Bitrate rate) const;

  /// Table 5 switching overhead for a mode.
  const hal::SwitchOverhead& switch_overhead(hal::LinkMode mode) const;

  /// Paper headline: min/max power over every mode/end (16 uW - 129 mW).
  double min_power_w() const;
  double max_power_w() const;

 private:
  std::vector<hal::OperatingPoint> entries_;
  hal::SwitchOverhead overheads_[3];
};

}  // namespace braidio::core
