#include "baseline/reader.hpp"

#include <stdexcept>

#include "util/contract.hpp"

namespace braidio::baseline {

const std::vector<ReaderSpec>& reader_table() {
  // Concurrency contract: const magic static, safe to read from concurrent
  // sweep workers (audited for the sim engine).
  static const std::vector<ReaderSpec> table = {
      {"AS3993", 0.64, 17.0, 0.25, 397.0},
      {"AS3992", 0.73, 20.0, 0.26, 303.0},
      {"R2000", 1.0, 12.0, 0.88, 419.0},
      {"R1000", 1.0, 12.0, 0.95, 500.0},
      {"M6e", 4.2, 17.0, 4.0, 398.0},
      {"M6e-micro", 2.5, 23.0, 2.5, 285.0},
  };
  return table;
}

namespace {

// Map the reader's parameters onto the shared budget. The budget's
// backscatter path applies the round-trip gain with one antenna figure on
// both ends (2g reader + 2g tag); the radar-equation form here has distinct
// reader/tag gains (2*G_r + 2*G_t). Splitting the total evenly across the
// budget's four gain applications keeps the dB sum — and therefore every
// curve value — identical.
phy::LinkBudgetConfig reader_budget_config(
    const CommercialReaderModel::Config& c) {
  if (!(c.range_100k_m > 0.0)) {
    throw std::invalid_argument("CommercialReaderModel: bad anchor range");
  }
  util::contract::check_power_dbm_range(c.spec.tx_power_dbm,
                                        "CommercialReaderModel::tx_power_dbm");
  phy::LinkBudgetConfig b;
  b.freq_hz = c.freq_hz;
  b.carrier_tx_dbm = c.spec.tx_power_dbm;
  b.antenna_gain_dbi = (2.0 * c.antenna_gain_dbi + 2.0 * c.tag_gain_dbi) / 4.0;
  b.backscatter_modulation_loss_db = c.modulation_loss_db;
  // The reader has no diversity antennas; the radar-equation model carries
  // the whole loss in the modulation term.
  b.diversity_residual_loss_db = 0.0;
  b.ber_threshold = c.ber_threshold;
  // Anchor the delegated rate at the Fig. 12 operating point; scale the
  // other backscatter anchors with the same rate-sensitivity ratios the
  // braidio calibration uses (Fig. 13), so a reader-backed ChannelModel
  // stays self-consistent across the lattice.
  b.backscatter_range_100k = c.range_100k_m;
  b.backscatter_range_1m_bps = c.range_100k_m * (0.9 / 1.8);
  b.backscatter_range_10k = c.range_100k_m * (2.4 / 1.8);
  return b;
}

}  // namespace

CommercialReaderModel::CommercialReaderModel(Config config)
    : config_(config), budget_(reader_budget_config(config)) {}

double CommercialReaderModel::received_power_dbm(double distance_m) const {
  return budget_.received_power_dbm(hal::LinkMode::Backscatter, distance_m);
}

double CommercialReaderModel::snr_db(double distance_m) const {
  return budget_.snr_db(hal::LinkMode::Backscatter, hal::Bitrate::k100,
                        distance_m);
}

double CommercialReaderModel::ber(double distance_m) const {
  return budget_.ber(hal::LinkMode::Backscatter, hal::Bitrate::k100,
                     distance_m);
}

double CommercialReaderModel::range_m() const {
  return budget_.range_m(hal::LinkMode::Backscatter, hal::Bitrate::k100);
}

double CommercialReaderModel::efficiency_ratio_vs(double other_power_w) const {
  if (!(other_power_w > 0.0)) {
    throw std::domain_error("efficiency_ratio_vs: power must be > 0");
  }
  return config_.spec.total_power_w / other_power_w;
}

}  // namespace braidio::baseline
