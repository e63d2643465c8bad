#include "mac/link_adaptation.hpp"
#include "util/units.hpp"

#include <gtest/gtest.h>

#include "phy/link_budget.hpp"

namespace braidio::mac {
namespace {

TEST(SnrEstimator, FirstSampleSeedsEstimate) {
  SnrEstimator est;
  EXPECT_FALSE(est.snr_db().has_value());
  est.update(20.0, util::Seconds(0.0));
  ASSERT_TRUE(est.snr_db().has_value());
  EXPECT_DOUBLE_EQ(*est.snr_db(), 20.0);
  EXPECT_DOUBLE_EQ(est.last_innovation_db(), 0.0);
}

TEST(SnrEstimator, EwmaSmoothing) {
  SnrEstimator est(0.25);
  est.update(20.0, util::Seconds(0.0));
  est.update(12.0, util::Seconds(1.0));  // big drop
  EXPECT_DOUBLE_EQ(*est.snr_db(), 20.0 + 0.25 * (12.0 - 20.0));
  EXPECT_DOUBLE_EQ(est.last_innovation_db(), 8.0);
  // Converges toward a sustained level.
  for (int i = 0; i < 50; ++i) est.update(12.0, util::Seconds(2.0 + i));
  EXPECT_NEAR(*est.snr_db(), 12.0, 0.01);
}

TEST(SnrEstimator, StalenessClock) {
  SnrEstimator est;
  // No sample yet: always stale.
  EXPECT_TRUE(est.stale(util::Seconds(0.0), util::Seconds(1.0)));
  est.update(15.0, util::Seconds(10.0));
  EXPECT_FALSE(est.stale(util::Seconds(10.5), util::Seconds(1.0)));
  EXPECT_TRUE(est.stale(util::Seconds(12.0), util::Seconds(1.0)));
  est.reset();
  EXPECT_TRUE(est.stale(util::Seconds(10.5), util::Seconds(1.0)));
  EXPECT_THROW(SnrEstimator(0.0), std::invalid_argument);
  EXPECT_THROW(SnrEstimator(1.5), std::invalid_argument);
}

// Requirement model for the selector tests: 1M needs 20 dB, 100k 14 dB,
// 10k 8 dB.
double need(hal::Bitrate rate) {
  switch (rate) {
    case hal::Bitrate::M1: return 20.0;
    case hal::Bitrate::k100: return 14.0;
    case hal::Bitrate::k10: return 8.0;
  }
  return 0.0;
}

TEST(RateSelector, PicksHighestSustainableRate) {
  RateSelector sel;
  EXPECT_EQ(sel.select(25.0, need), hal::Bitrate::M1);
  EXPECT_EQ(sel.select(16.0, need), hal::Bitrate::k100);
  EXPECT_EQ(sel.select(9.0, need), hal::Bitrate::k10);
  EXPECT_FALSE(sel.select(5.0, need).has_value());
}

TEST(RateSelector, HysteresisBlocksPingPong) {
  RateSelector sel({.target_ber = 0.01, .up_margin_db = 3.0});
  // Settle at 100k.
  EXPECT_EQ(sel.select(15.0, need), hal::Bitrate::k100);
  // SNR creeps just past the 1M requirement: upgrade needs 20+3 dB.
  EXPECT_EQ(sel.select(21.0, need), hal::Bitrate::k100);
  EXPECT_EQ(sel.select(22.9, need), hal::Bitrate::k100);
  // Clear margin: upgrade.
  EXPECT_EQ(sel.select(23.5, need), hal::Bitrate::M1);
  // Downgrades are immediate (no margin): protects the link.
  EXPECT_EQ(sel.select(19.0, need), hal::Bitrate::k100);
}

TEST(RateSelector, ResetClearsHysteresisState) {
  RateSelector sel;
  sel.select(15.0, need);
  sel.reset();
  EXPECT_FALSE(sel.current().has_value());
  // Fresh selector takes 21 dB at face value (no upgrade margin applies).
  EXPECT_EQ(sel.select(21.0, need), hal::Bitrate::M1);
  EXPECT_THROW(RateSelector({.target_ber = 0.0, .up_margin_db = 1.0}),
               std::invalid_argument);
}

TEST(RateSelector, DrivesOffTheRealLinkBudget) {
  // End-to-end: requirements derived from the calibrated budget at a given
  // distance reproduce the Fig. 13 rate steps.
  phy::LinkBudget budget;
  RateSelector sel;
  auto pick = [&](double d) {
    // Work in received-power space: a rate is sustainable when the
    // received power exceeds its calibrated floor plus the demodulator's
    // required SNR.
    auto need_fn = [&](hal::Bitrate rate) {
      return budget.noise_floor_dbm(hal::LinkMode::Backscatter, rate) +
             phy::required_snr_db(
                 phy::LinkBudget::ber_model(hal::LinkMode::Backscatter),
                 0.01);
    };
    const double rx_dbm =
        budget.received_power_dbm(hal::LinkMode::Backscatter, d);
    return sel.select(rx_dbm, need_fn);
  };
  sel.reset();
  EXPECT_EQ(pick(0.5), hal::Bitrate::M1);
  EXPECT_EQ(pick(1.2), hal::Bitrate::k100);
  EXPECT_EQ(pick(2.0), hal::Bitrate::k10);
  EXPECT_FALSE(pick(3.0).has_value());
}

}  // namespace
}  // namespace braidio::mac
