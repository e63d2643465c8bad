#include "core/prototypes.hpp"

#include <algorithm>

namespace braidio::core {

const std::vector<PrototypeSpec>& prototype_table() {
  // Concurrency contract: const magic static, safe to read from concurrent
  // sweep workers (audited for the sim engine).
  static const std::vector<PrototypeSpec> table = {
      {"v1 (off-the-shelf)",
       "CC2541 + AS3993 reader IC + Moo tag",
       0.640,  // the AS3993's own budget (Table 2)
       "highly unsatisfactory from a power perspective"},
      {"v2 (coupler + Zero-IF)",
       "directional coupler isolation, direct conversion",
       0.240,  // "the reader by itself combined more than 240mW"
       "also unsatisfactory"},
      {"v3 (passive cancellation)",
       "charge pump + SAW + antenna diversity",
       0.129, "the design used in the paper"},
  };
  return table;
}

std::vector<hal::OperatingPoint> prototype_candidates(
    const PrototypeSpec& proto, const PowerTable& v3_table) {
  std::vector<hal::OperatingPoint> out;
  for (auto candidate : v3_table.candidates()) {
    if (candidate.mode == hal::LinkMode::Backscatter) {
      candidate.rx_power_w = proto.backscatter_rx_power_w;
    }
    out.push_back(candidate);
  }
  return out;
}

std::pair<double, double> prototype_ratio_span(
    const PrototypeSpec& proto, const PowerTable& v3_table) {
  double lo = 1e300, hi = -1e300;
  for (const auto& c : prototype_candidates(proto, v3_table)) {
    if (c.rate != hal::Bitrate::M1) continue;  // full-rate triangle
    const double ratio = c.tx_joules_per_bit() / c.rx_joules_per_bit();
    lo = std::min(lo, ratio);
    hi = std::max(hi, ratio);
  }
  return {lo, hi};
}

}  // namespace braidio::core
