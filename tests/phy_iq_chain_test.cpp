#include "phy/iq_chain.hpp"

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "phy/modulation.hpp"

namespace braidio::phy {
namespace {

TEST(IqChain, NoiselessBpskRoundTrip) {
  IqChain chain;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto bits = random_bits(500, seed);
    EXPECT_EQ(chain.demodulate(chain.modulate(bits)), bits)
        << "seed " << seed;
  }
}

TEST(IqChain, NoiselessBfskRoundTrip) {
  IqChainConfig cfg;
  cfg.modulation = IqChainConfig::Modulation::Bfsk;
  IqChain chain(cfg);
  const auto bits = random_bits(500, 2);
  EXPECT_EQ(chain.demodulate(chain.modulate(bits)), bits);
}

TEST(IqChain, BpskMatchesAnalyticQ) {
  IqChain chain;
  for (double db : {4.0, 6.0, 8.0}) {
    const double snr = std::pow(10.0, db / 10.0);
    const auto r = chain.simulate(snr, 200'000, 3);
    ASSERT_GT(r.analytic_ber, 1e-4) << db;
    EXPECT_NEAR(r.measured_ber / r.analytic_ber, 1.0, 0.3) << db;
  }
}

TEST(IqChain, BfskMatchesNoncoherentExponential) {
  IqChainConfig cfg;
  cfg.modulation = IqChainConfig::Modulation::Bfsk;
  IqChain chain(cfg);
  for (double db : {6.0, 8.0, 10.0}) {
    const double snr = std::pow(10.0, db / 10.0);
    const auto r = chain.simulate(snr, 200'000, 5);
    ASSERT_GT(r.analytic_ber, 1e-4) << db;
    EXPECT_NEAR(r.measured_ber / r.analytic_ber, 1.0, 0.3) << db;
  }
}

TEST(IqChain, PhaseOffsetIsEstimatedAndRemoved) {
  // The whole point of a coherent receiver: an arbitrary channel phase
  // must not cost BER once the pilot estimator locks.
  for (double phase : {0.4, 1.2, 2.5, -1.8}) {
    IqChainConfig cfg;
    cfg.channel_phase_rad = phase;
    IqChain chain(cfg);
    // ~6 dB: analytic BER ~2.3e-3, so 100k bits give ~230 errors —
    // enough statistics for a tight ratio check.
    const auto r = chain.simulate(std::pow(10.0, 0.6), 100'000, 7);
    // Estimated phase matches the channel (mod 2 pi).
    const double diff =
        std::remainder(r.estimated_phase_rad - phase, 2.0 * std::numbers::pi);
    EXPECT_LT(std::fabs(diff), 0.1) << phase;
    EXPECT_NEAR(r.measured_ber / r.analytic_ber, 1.0, 0.3) << phase;
  }
}

TEST(IqChain, BfskIgnoresPhaseEntirely) {
  IqChainConfig cfg;
  cfg.modulation = IqChainConfig::Modulation::Bfsk;
  cfg.channel_phase_rad = 2.0;
  IqChain chain(cfg);
  const auto r = chain.simulate(std::pow(10.0, 1.0), 50'000, 9);
  EXPECT_NEAR(r.measured_ber / r.analytic_ber, 1.0, 0.35);
}

TEST(IqChain, TracksSlowResidualCfo) {
  // 1e-3 cycles/symbol turns the carrier a quarter cycle every 250
  // symbols; a receiver that only derotates by the pilot phase decodes
  // these runs at BER ~0.5.
  IqChainConfig cfg;
  cfg.cfo_cycles_per_symbol = 1e-3;
  cfg.channel_phase_rad = 0.7;
  IqChain chain(cfg);
  for (std::uint64_t seed : {1u, 2u, 3u, 17u}) {
    const auto r = chain.simulate(8.0, 2'000, seed);
    EXPECT_LE(r.measured_ber, 4.0 * r.analytic_ber) << "seed " << seed;
  }
  // 100 cycles of drift at ~6 dB: the tracked receiver stays near Q().
  const auto r = chain.simulate(std::pow(10.0, 0.6), 100'000, 7);
  EXPECT_NEAR(r.measured_ber / r.analytic_ber, 1.0, 0.3);
}

TEST(IqChain, ResidualCfoDegradesBpsk) {
  // 0.05 cycles/symbol turns the carrier 0.31 rad per symbol, about three
  // times the 0.098 rad (gain 1/16 x pi/2) the phase loop can pull back,
  // so the receiver slips cycles over the 30k-symbol run.
  IqChainConfig clean;
  IqChainConfig drifting;
  drifting.cfo_cycles_per_symbol = 0.05;
  const auto r_clean = IqChain(clean).simulate(std::pow(10.0, 0.8),
                                               30'000, 11);
  const auto r_cfo = IqChain(drifting).simulate(std::pow(10.0, 0.8),
                                                30'000, 11);
  EXPECT_GT(r_cfo.measured_ber, 3.0 * std::max(r_clean.measured_ber, 1e-4));
}

TEST(IqChain, CoherentBeatsEnvelopeAtEqualSnr) {
  // Table 3's sensitivity tradeoff, quantified: at the same per-bit SNR
  // the coherent BPSK chain outperforms the non-coherent chain by orders
  // of magnitude in BER.
  IqChainConfig fsk_cfg;
  fsk_cfg.modulation = IqChainConfig::Modulation::Bfsk;
  const double snr = std::pow(10.0, 1.0);  // 10 dB
  const auto coherent = IqChain().simulate(snr, 200'000, 13);
  const auto noncoherent = IqChain(fsk_cfg).simulate(snr, 200'000, 13);
  EXPECT_LT(coherent.measured_ber * 10.0, noncoherent.measured_ber + 1e-5);
}

TEST(IqChain, Validation) {
  IqChainConfig bad;
  bad.samples_per_symbol = 1;
  EXPECT_THROW(IqChain{bad}, std::invalid_argument);
  IqChainConfig same_tones;
  same_tones.modulation = IqChainConfig::Modulation::Bfsk;
  same_tones.fsk_cycles_low = same_tones.fsk_cycles_high = 1;
  EXPECT_THROW(IqChain{same_tones}, std::invalid_argument);
  IqChain chain;
  EXPECT_THROW(chain.simulate(1.0, 0, 1), std::invalid_argument);
  EXPECT_THROW(chain.simulate(-1.0, 10, 1), std::invalid_argument);
}

class IqSnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(IqSnrSweep, BerMonotone) {
  IqChain chain;
  const double snr = GetParam();
  const auto low = chain.simulate(snr, 50'000, 17);
  const auto high = chain.simulate(snr * 2.0, 50'000, 17);
  EXPECT_LE(high.measured_ber, low.measured_ber + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IqSnrSweep,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0));

}  // namespace
}  // namespace braidio::phy
