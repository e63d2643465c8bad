#include "core/coded_candidates.hpp"

#include <algorithm>

#include "mac/fec.hpp"

namespace braidio::core {

namespace {

double residual_ber(const hal::ChannelModel& channel, hal::LinkMode mode,
                    hal::Bitrate rate, double distance_m) {
  return mac::hamming74_residual_ber(channel.ber(mode, rate, distance_m));
}

}  // namespace

bool coded_available(const hal::ChannelModel& channel, hal::LinkMode mode,
                     hal::Bitrate rate, double distance_m) {
  return residual_ber(channel, mode, rate, distance_m) <=
         channel.ber_threshold();
}

double coded_range_m(const hal::ChannelModel& channel, hal::LinkMode mode,
                     hal::Bitrate rate) {
  double lo = 0.05, hi = 1000.0;
  if (coded_available(channel, mode, rate, hi)) return hi;
  if (!coded_available(channel, mode, rate, lo)) return 0.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (coded_available(channel, mode, rate, mid) ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

std::vector<CodedCandidate> candidates_with_coding(const RegimeMap& map,
                                                   double distance_m) {
  std::vector<CodedCandidate> out;
  for (const auto& candidate : map.available_best_rate(distance_m)) {
    out.push_back({candidate, false});
  }
  // Add a coded variant per mode when the uncoded best rate is gone but
  // coding rescues some lattice rate (highest coded-feasible rate wins).
  for (hal::LinkMode mode : hal::kAllLinkModes) {
    if (map.best_rate(mode, distance_m)) continue;  // uncoded link alive
    const hal::OperatingPoint* fastest = nullptr;
    for (const auto& point : map.lattice()) {
      if (point.mode != mode ||
          !coded_available(map.channel(), mode, point.rate, distance_m)) {
        continue;
      }
      if (!fastest || point.bits_per_second() > fastest->bits_per_second()) {
        fastest = &point;
      }
    }
    if (!fastest) continue;
    hal::OperatingPoint coded = *fastest;
    // Same radio state, fewer delivered bits per second: per-bit costs
    // rise by 1/code_rate. OperatingPoint derives per-bit cost from
    // power/bitrate, so scale the powers to express the coded cost at
    // the same nominal bitrate bookkeeping.
    const double inflate = 1.0 / mac::Hamming74::code_rate();
    coded.tx_power_w *= inflate;
    coded.rx_power_w *= inflate;
    out.push_back({coded, true});
  }
  return out;
}

double coded_regime_a_limit_m(const RegimeMap& map) {
  double limit = map.regime_a_limit_m();
  for (const auto& c : map.lattice()) {
    if (c.mode != hal::LinkMode::Backscatter) continue;
    limit = std::max(limit, coded_range_m(map.channel(), c.mode, c.rate));
  }
  return limit;
}

}  // namespace braidio::core
