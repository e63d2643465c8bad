#include "phy/waveform.hpp"

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

namespace braidio::phy {
namespace {

using hal::Bitrate;
using hal::LinkMode;

class WaveformTest : public ::testing::Test {
 protected:
  LinkBudget budget_;
};

TEST_F(WaveformTest, IdealPathMatchesAnalyticBackscatter) {
  WaveformSimConfig cfg;
  cfg.mode = LinkMode::Backscatter;
  cfg.rate = Bitrate::M1;
  cfg.distance_m = 0.82;  // analytic BER ~ 3e-3
  cfg.bits = 300'000;
  const auto result = simulate_waveform(budget_, cfg);
  ASSERT_GT(result.analytic_ber, 1e-4);
  EXPECT_NEAR(result.measured_ber / result.analytic_ber, 1.0, 0.25);
}

TEST_F(WaveformTest, IdealPathMatchesAnalyticPassive) {
  WaveformSimConfig cfg;
  cfg.mode = LinkMode::PassiveRx;
  cfg.rate = Bitrate::M1;
  cfg.distance_m = 3.6;
  cfg.bits = 300'000;
  const auto result = simulate_waveform(budget_, cfg);
  ASSERT_GT(result.analytic_ber, 1e-4);
  EXPECT_NEAR(result.measured_ber / result.analytic_ber, 1.0, 0.25);
}

TEST_F(WaveformTest, IdealPathMatchesAnalyticActive) {
  WaveformSimConfig cfg;
  cfg.mode = LinkMode::Active;
  cfg.rate = Bitrate::M1;
  cfg.distance_m = 24.0;  // near the calibrated range -> measurable BER
  cfg.bits = 300'000;
  const auto result = simulate_waveform(budget_, cfg);
  ASSERT_GT(result.analytic_ber, 1e-4);
  EXPECT_NEAR(result.measured_ber / result.analytic_ber, 1.0, 0.25);
}

TEST_F(WaveformTest, CircuitChainCleanAtHighSnr) {
  WaveformSimConfig cfg;
  cfg.mode = LinkMode::Backscatter;
  cfg.rate = Bitrate::M1;
  cfg.distance_m = 0.4;
  cfg.bits = 20'000;
  cfg.use_circuit_chain = true;
  const auto result = simulate_waveform(budget_, cfg);
  EXPECT_EQ(result.bit_errors, 0u);
}

TEST_F(WaveformTest, CircuitChainDegradesGracefullyNearRange) {
  // At the operating-range edge the full chain must show errors but stay
  // within an order of magnitude of the analytic point model (the low-pass
  // averages noise, so it is usually *better*).
  WaveformSimConfig cfg;
  cfg.mode = LinkMode::Backscatter;
  cfg.rate = Bitrate::M1;
  cfg.distance_m = 0.93;
  cfg.bits = 60'000;
  cfg.use_circuit_chain = true;
  const auto result = simulate_waveform(budget_, cfg);
  EXPECT_GT(result.measured_ber, 0.0);
  EXPECT_LT(result.measured_ber, result.analytic_ber * 10.0);
}

TEST_F(WaveformTest, CircuitChainMonotoneWithDistance) {
  WaveformSimConfig cfg;
  cfg.mode = LinkMode::PassiveRx;
  cfg.rate = Bitrate::k100;
  cfg.bits = 30'000;
  cfg.use_circuit_chain = true;
  double prev = -1.0;
  for (double d : {3.8, 4.6, 5.4}) {
    cfg.distance_m = d;
    const auto r = simulate_waveform(budget_, cfg);
    EXPECT_GE(r.measured_ber, prev) << "d=" << d;
    prev = r.measured_ber;
  }
  EXPECT_GT(prev, 1e-3);  // well beyond range: heavy losses
  // (The circuit chain's low-pass averages noise across samples, so its
  // absolute BER sits below the single-sample analytic model.)
}

TEST_F(WaveformTest, PhaseCancellationNullKillsBackscatter) {
  // Fig. 4(a): at theta = pi/2 the envelope detector cannot see the tag at
  // all, regardless of SNR.
  WaveformSimConfig cfg;
  cfg.mode = LinkMode::Backscatter;
  cfg.rate = Bitrate::M1;
  cfg.distance_m = 0.3;  // very high SNR
  cfg.bits = 20'000;
  cfg.cancellation_angle_rad = std::numbers::pi / 2.0;
  const auto result = simulate_waveform(budget_, cfg);
  EXPECT_NEAR(result.measured_ber, 0.5, 0.05);
  EXPECT_NEAR(result.analytic_ber, 0.5, 1e-6);

  // Partially rotated: degraded but decodable; matches cos^2 analytic.
  cfg.distance_m = 0.8;
  cfg.cancellation_angle_rad = std::numbers::pi / 5.0;
  cfg.bits = 300'000;
  const auto partial = simulate_waveform(budget_, cfg);
  ASSERT_GT(partial.analytic_ber, 1e-4);
  EXPECT_NEAR(partial.measured_ber / partial.analytic_ber, 1.0, 0.3);
}

TEST_F(WaveformTest, DeterministicForSeed) {
  WaveformSimConfig cfg;
  cfg.mode = LinkMode::Backscatter;
  cfg.rate = Bitrate::M1;
  cfg.distance_m = 0.89;  // BER ~ 1e-2: hundreds of errors expected
  cfg.bits = 50'000;
  cfg.seed = 77;
  const auto a = simulate_waveform(budget_, cfg);
  const auto b = simulate_waveform(budget_, cfg);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  ASSERT_GT(a.bit_errors, 50u);
  cfg.seed = 78;
  const auto c = simulate_waveform(budget_, cfg);
  EXPECT_NE(a.bit_errors, c.bit_errors);
}

TEST_F(WaveformTest, InputValidation) {
  WaveformSimConfig cfg;
  cfg.bits = 0;
  EXPECT_THROW(simulate_waveform(budget_, cfg), std::invalid_argument);
  WaveformSimConfig odd;
  odd.use_circuit_chain = true;
  odd.samples_per_bit = 5;  // Manchester needs an even split
  EXPECT_THROW(simulate_waveform(budget_, odd), std::invalid_argument);
}

class CrossValidation
    : public ::testing::TestWithParam<std::tuple<LinkMode, double>> {};

TEST_P(CrossValidation, IdealMonteCarloTracksAnalytic) {
  // Property: wherever the analytic BER is measurable (>= 1e-3), the ideal
  // detection path must reproduce it within Monte-Carlo tolerance.
  LinkBudget budget;
  const auto [mode, frac_of_range] = GetParam();
  WaveformSimConfig cfg;
  cfg.mode = mode;
  cfg.rate = Bitrate::k100;
  cfg.distance_m = budget.range_m(mode, cfg.rate) * frac_of_range;
  cfg.bits = 200'000;
  const auto result = simulate_waveform(budget, cfg);
  if (result.analytic_ber < 1e-3) GTEST_SKIP() << "BER too small to measure";
  EXPECT_NEAR(result.measured_ber / result.analytic_ber, 1.0, 0.3);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossValidation,
    ::testing::Combine(::testing::Values(LinkMode::Backscatter,
                                         LinkMode::PassiveRx,
                                         LinkMode::Active),
                       ::testing::Values(0.95, 1.0, 1.05)));

}  // namespace
}  // namespace braidio::phy
