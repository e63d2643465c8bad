#include "core/coded_candidates.hpp"

#include <gtest/gtest.h>

#include "backends/backends.hpp"
#include "core/offload.hpp"

namespace braidio::core {
namespace {

class CodedTest : public ::testing::Test {
 protected:
  RegimeMap map_{backends::braidio_backend()};
};

TEST_F(CodedTest, CodedRangeExceedsUncoded) {
  for (hal::LinkMode mode :
       {hal::LinkMode::Backscatter, hal::LinkMode::PassiveRx}) {
    for (hal::Bitrate rate : hal::kAllBitrates) {
      EXPECT_GT(coded_range_m(map_.channel(), mode, rate),
                map_.channel().range_m(mode, rate))
          << hal::to_string(mode) << "@" << hal::to_string(rate);
    }
  }
}

TEST_F(CodedTest, RegimeAExtension) {
  // Headline of the extension: coding pushes the carrier-offload horizon
  // past the uncoded 2.4 m backscatter limit.
  const double uncoded = map_.regime_a_limit_m();
  const double coded = coded_regime_a_limit_m(map_);
  EXPECT_NEAR(uncoded, 2.4, 0.01);
  EXPECT_GT(coded, 2.6);
  EXPECT_LT(coded, 3.2);
}

TEST_F(CodedTest, NoCodedVariantsWhereUncodedLives) {
  // At 0.5 m everything runs uncoded; the candidate set has no coded
  // entries.
  for (const auto& c : candidates_with_coding(map_, 0.5)) {
    EXPECT_FALSE(c.coded);
  }
}

TEST_F(CodedTest, CodedBackscatterAppearsInTheGap) {
  // Between the uncoded (2.4 m) and coded (~2.7 m) backscatter limits, a
  // coded backscatter candidate must appear.
  const auto candidates = candidates_with_coding(map_, 2.55);
  bool saw_coded_backscatter = false;
  for (const auto& c : candidates) {
    if (c.coded && c.candidate.mode == hal::LinkMode::Backscatter) {
      saw_coded_backscatter = true;
      // Per-bit cost inflated by 7/4 over the uncoded table entry.
      const auto& raw = map_.candidate(c.candidate.mode, c.candidate.rate);
      EXPECT_NEAR(c.candidate.tx_joules_per_bit() /
                      raw.tx_joules_per_bit(),
                  7.0 / 4.0, 1e-9);
    }
  }
  EXPECT_TRUE(saw_coded_backscatter);
}

TEST_F(CodedTest, CodedCandidatesExtendOffloadInTheGap) {
  // At 2.55 m, an energy-poor transmitter can still shed its carrier via
  // coded backscatter; without coding the planner would clamp.
  const auto coded = candidates_with_coding(map_, 2.55);
  std::vector<hal::OperatingPoint> pool;
  for (const auto& c : coded) pool.push_back(c.candidate);
  const auto plan = OffloadPlanner::plan(pool, 1.0, 500.0);
  EXPECT_TRUE(plan.proportional);

  const auto uncoded_plan =
      OffloadPlanner::plan(map_.available_best_rate(2.55), 1.0, 500.0);
  EXPECT_FALSE(uncoded_plan.proportional);
  // And the poor device comes out ~3x cheaper per bit (coded backscatter
  // at 10 kbps is expensive airtime, so the braid still leans on active
  // for 30% of the bits).
  EXPECT_LT(plan.tx_joules_per_bit, 0.5 * uncoded_plan.tx_joules_per_bit);
}

TEST_F(CodedTest, CodedVariantsStayOnTheBackendLattice) {
  // ble-active declares only active@1M. Its channel would pass coded
  // backscatter@10k at 2.55 m, but no such point is on the lattice.
  const RegimeMap ble(backends::ble_active_backend());
  ASSERT_TRUE(coded_available(ble.channel(), hal::LinkMode::Backscatter,
                              hal::Bitrate::k10, 2.55));
  const auto candidates = candidates_with_coding(ble, 2.55);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].candidate.mode, hal::LinkMode::Active);
  EXPECT_FALSE(candidates[0].coded);
  EXPECT_DOUBLE_EQ(coded_regime_a_limit_m(ble), 0.0);
}

TEST_F(CodedTest, AvailabilityMatchesRangeBisect) {
  const double r =
      coded_range_m(map_.channel(), hal::LinkMode::Backscatter,
                    hal::Bitrate::k10);
  EXPECT_TRUE(coded_available(map_.channel(), hal::LinkMode::Backscatter,
                              hal::Bitrate::k10, r * 0.98));
  EXPECT_FALSE(coded_available(map_.channel(), hal::LinkMode::Backscatter,
                               hal::Bitrate::k10, r * 1.02));
}

}  // namespace
}  // namespace braidio::core
