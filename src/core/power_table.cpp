#include "core/power_table.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/units.hpp"

namespace braidio::core {

namespace {

/// Carrier-holder budget: SI4432 carrier + decode chain (Sec. 6.1: "Braidio
/// consumes only 129mW").
constexpr double kCarrierSideW = 0.129;

/// Active mode: SPBT2632C2A-class module with the Fig. 9 ratio 0.9524:1.
constexpr double kActiveTxW = 0.09456;
constexpr double kActiveRxW = 0.09006;

/// Fig. 14 TX:RX bits-per-joule ratios pin the passive-end powers.
constexpr double kPassiveRatio1M = 2546.0;
constexpr double kPassiveRatio100k = 4000.0;
constexpr double kPassiveRatio10k = 5600.0;
constexpr double kBackscatterRatio1M = 3546.0;
constexpr double kBackscatterRatio100k = 5571.0;
constexpr double kBackscatterRatio10k = 7800.0;  // tag = 16.5 uW, the paper's
                                                 // "16 uW" floor

}  // namespace

PowerTable::PowerTable() {
  using hal::Bitrate;
  using hal::LinkMode;
  for (Bitrate rate : hal::kAllBitrates) {
    entries_.push_back({LinkMode::Active, rate, kActiveTxW, kActiveRxW});
  }
  auto passive_rx = [](double ratio) { return kCarrierSideW / ratio; };
  entries_.push_back({LinkMode::PassiveRx, Bitrate::k10, kCarrierSideW,
                      passive_rx(kPassiveRatio10k)});
  entries_.push_back({LinkMode::PassiveRx, Bitrate::k100, kCarrierSideW,
                      passive_rx(kPassiveRatio100k)});
  entries_.push_back({LinkMode::PassiveRx, Bitrate::M1, kCarrierSideW,
                      passive_rx(kPassiveRatio1M)});
  auto tag_tx = [](double ratio) { return kCarrierSideW / ratio; };
  entries_.push_back({LinkMode::Backscatter, Bitrate::k10,
                      tag_tx(kBackscatterRatio10k), kCarrierSideW});
  entries_.push_back({LinkMode::Backscatter, Bitrate::k100,
                      tag_tx(kBackscatterRatio100k), kCarrierSideW});
  entries_.push_back({LinkMode::Backscatter, Bitrate::M1,
                      tag_tx(kBackscatterRatio1M), kCarrierSideW});

  // Table 5, converted from Wh to joules. The backscatter TX figure is the
  // paper's worst case (waiting for carrier + sync at 10 kbps).
  overheads_[static_cast<int>(LinkMode::Active)] = {
      util::wh_to_joules(1.05e-9), util::wh_to_joules(1.01e-9)};
  overheads_[static_cast<int>(LinkMode::PassiveRx)] = {
      util::wh_to_joules(1.72e-9), util::wh_to_joules(4.40e-12)};
  overheads_[static_cast<int>(LinkMode::Backscatter)] = {
      util::wh_to_joules(8.58e-8), util::wh_to_joules(1.10e-11)};
}

const hal::OperatingPoint& PowerTable::candidate(hal::LinkMode mode,
                                                 hal::Bitrate rate) const {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(), [&](const hal::OperatingPoint& c) {
        return c.mode == mode && c.rate == rate;
      });
  if (it == entries_.end()) {
    throw std::out_of_range("PowerTable: unknown mode/rate");
  }
  return *it;
}

const hal::SwitchOverhead& PowerTable::switch_overhead(
    hal::LinkMode mode) const {
  return overheads_[static_cast<int>(mode)];
}

double PowerTable::min_power_w() const {
  double v = entries_.front().tx_power_w;
  for (const auto& e : entries_) {
    v = std::min({v, e.tx_power_w, e.rx_power_w});
  }
  return v;
}

double PowerTable::max_power_w() const {
  double v = entries_.front().tx_power_w;
  for (const auto& e : entries_) {
    v = std::max({v, e.tx_power_w, e.rx_power_w});
  }
  return v;
}

}  // namespace braidio::core
