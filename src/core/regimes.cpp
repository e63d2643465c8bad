#include "core/regimes.hpp"

#include <algorithm>
#include <stdexcept>

namespace braidio::core {

const char* to_string(Regime regime) {
  switch (regime) {
    case Regime::A: return "A";
    case Regime::B: return "B";
    case Regime::C: return "C";
  }
  return "?";
}

RegimeMap::RegimeMap(const hal::RadioBackend& backend)
    : lattice_(backend.caps().lattice),
      sleep_power_(backend.caps().sleep_power),
      channel_(&backend.channel()) {
  for (hal::LinkMode mode : hal::kAllLinkModes) {
    overheads_[static_cast<int>(mode)] =
        backend.caps().switch_overhead[static_cast<int>(mode)];
  }
}

std::vector<hal::OperatingPoint> RegimeMap::available(
    double distance_m) const {
  std::vector<hal::OperatingPoint> out;
  for (const auto& candidate : lattice_) {
    if (channel_->available(candidate.mode, candidate.rate, distance_m)) {
      out.push_back(candidate);
    }
  }
  return out;
}

std::vector<hal::OperatingPoint> RegimeMap::available_best_rate(
    double distance_m) const {
  std::vector<hal::OperatingPoint> out;
  for (hal::LinkMode mode : hal::kAllLinkModes) {
    if (const auto rate = best_rate(mode, distance_m)) {
      out.push_back(candidate(mode, *rate));
    }
  }
  return out;
}

Regime RegimeMap::regime(double distance_m) const {
  if (best_rate(hal::LinkMode::Backscatter, distance_m)) {
    return Regime::A;
  }
  if (best_rate(hal::LinkMode::PassiveRx, distance_m)) {
    return Regime::B;
  }
  return Regime::C;
}

double RegimeMap::range_limit_m(hal::LinkMode mode) const {
  double limit = 0.0;
  for (const auto& c : lattice_) {
    if (c.mode != mode) continue;
    limit = std::max(limit, channel_->range_m(c.mode, c.rate));
  }
  return limit;
}

double RegimeMap::regime_a_limit_m() const {
  return range_limit_m(hal::LinkMode::Backscatter);
}

double RegimeMap::regime_b_limit_m() const {
  return range_limit_m(hal::LinkMode::PassiveRx);
}

const hal::OperatingPoint* RegimeMap::find(hal::LinkMode mode,
                                           hal::Bitrate rate) const {
  const auto it = std::find_if(
      lattice_.begin(), lattice_.end(), [&](const hal::OperatingPoint& c) {
        return c.mode == mode && c.rate == rate;
      });
  return it == lattice_.end() ? nullptr : &*it;
}

const hal::OperatingPoint& RegimeMap::candidate(hal::LinkMode mode,
                                                hal::Bitrate rate) const {
  const hal::OperatingPoint* point = find(mode, rate);
  if (!point) throw std::out_of_range("RegimeMap: unsupported mode/rate");
  return *point;
}

bool RegimeMap::supports(hal::LinkMode mode) const {
  return std::any_of(
      lattice_.begin(), lattice_.end(),
      [&](const hal::OperatingPoint& c) { return c.mode == mode; });
}

std::optional<hal::Bitrate> RegimeMap::best_rate(hal::LinkMode mode,
                                                 double distance_m) const {
  using hal::Bitrate;
  for (Bitrate rate : {Bitrate::M1, Bitrate::k100, Bitrate::k10}) {
    if (find(mode, rate) && channel_->available(mode, rate, distance_m)) {
      return rate;
    }
  }
  return std::nullopt;
}

std::optional<hal::Bitrate> RegimeMap::lowest_rate(hal::LinkMode mode) const {
  using hal::Bitrate;
  for (Bitrate rate : {Bitrate::k10, Bitrate::k100, Bitrate::M1}) {
    if (find(mode, rate)) return rate;
  }
  return std::nullopt;
}

const hal::SwitchOverhead& RegimeMap::switch_overhead(
    hal::LinkMode mode) const {
  return overheads_[static_cast<int>(mode)];
}

}  // namespace braidio::core
