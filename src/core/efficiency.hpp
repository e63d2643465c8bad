// Transmitter-receiver efficiency geometry (Figs. 9 and 14).
//
// Each operating point maps to a point (TX bits/J, RX bits/J); multiplexing
// spans their convex hull (the shaded triangles of Fig. 9/14). The
// "dynamic range" headline (1:2546 ... 3546:1) is the span of TX:RX
// efficiency ratios over the available points.
#pragma once

#include <string>
#include <vector>

#include "core/regimes.hpp"

namespace braidio::core {

struct EfficiencyPoint {
  hal::OperatingPoint candidate;
  double tx_bits_per_joule = 0.0;
  double rx_bits_per_joule = 0.0;
  /// TX:RX efficiency ratio (1/2546 for passive@1M, 3546 for
  /// backscatter@1M, ...).
  double ratio = 0.0;

  /// Ratio rendered the way the paper annotates Fig. 9/14: "1:2546" when
  /// the receiver is more efficient, "3546:1" when the transmitter is.
  std::string ratio_label() const;
};

struct EfficiencyRegion {
  double distance_m = 0.0;
  Regime regime = Regime::C;
  std::vector<EfficiencyPoint> points;

  /// Extremes of the achievable TX:RX ratio span.
  double min_ratio() const;
  double max_ratio() const;
  /// Orders of magnitude between them (the paper's "seven orders").
  double span_orders_of_magnitude() const;
};

/// The efficiency region at one distance (points = available candidates).
EfficiencyRegion efficiency_region(const RegimeMap& map, double distance_m);

/// Fig. 9's example: the power-proportional operating point P for a given
/// energy ratio, found on the best-total-efficiency edge of the region.
struct ProportionalPoint {
  double tx_bits_per_joule = 0.0;
  double rx_bits_per_joule = 0.0;
  std::string plan_summary;
};
ProportionalPoint proportional_point(const RegimeMap& map, double distance_m,
                                     double energy_ratio);

}  // namespace braidio::core
