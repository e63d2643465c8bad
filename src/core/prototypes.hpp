// The three Braidio hardware iterations (Sec. 5).
//
// The design "evolved over several hardware iterations":
//   v1 — off-the-shelf parts: CC2541 Bluetooth + AS3993 reader IC + Moo
//        tag. Works, but the reader end inherits the AS3993's 640 mW.
//   v2 — custom board: directional coupler for isolation + Zero-IF
//        downconversion. Better, but the receive path alone "combined
//        more than 240 mW".
//   v3 — the paper's design: passive charge-pump receiver + SAW filter +
//        antenna diversity. Backscatter receive end: 129 mW.
// These models quantify each iteration's backscatter-mode receive budget
// and what it would do to the power-proportionality story, so the
// architecture ablation (bench_ablation_prototypes) can show *why* the
// passive self-interference cancellation idea matters.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/power_table.hpp"

namespace braidio::core {

struct PrototypeSpec {
  std::string version;
  std::string receive_architecture;
  /// Power of the backscatter-mode data receiver (carrier + RX chain) —
  /// the only block the iterations changed; the tag and the passive-mode
  /// envelope detector (Moo/WISP heritage) are common to all versions.
  double backscatter_rx_power_w;
  std::string verdict;  // the paper's assessment
};

/// v1 (COTS), v2 (coupler + Zero-IF), v3 (final passive design).
const std::vector<PrototypeSpec>& prototype_table();

/// The mode power table a given prototype would induce: identical to the
/// calibrated v3 table except for the carrier-holder's receive-side power.
std::vector<hal::OperatingPoint> prototype_candidates(
    const PrototypeSpec& proto, const PowerTable& v3_table);

/// Best achievable TX:RX drain-ratio span (min, max) with that prototype's
/// full-rate modes — the "dynamic range" each iteration could have offered.
std::pair<double, double> prototype_ratio_span(
    const PrototypeSpec& proto, const PowerTable& v3_table);

}  // namespace braidio::core
