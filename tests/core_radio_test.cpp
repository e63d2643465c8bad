#include <memory>

#include <gtest/gtest.h>

#include "backends/backends.hpp"
#include "core/regimes.hpp"
#include "util/units.hpp"

namespace braidio::core {
namespace {

class RadioTest : public ::testing::Test {
 protected:
  const hal::RadioBackend& backend_ = backends::braidio_backend();
  const RegimeMap map_{backend_};
  const std::unique_ptr<hal::IRadio> owned_ =
      backend_.create_radio("watch", 1, util::WattHours(0.78));
  hal::IRadio& radio_ = *owned_;
  const double floor_w_ = backend_.caps().sleep_power.value();
};

TEST_F(RadioTest, StartsIdleAtFloorPower) {
  EXPECT_FALSE(radio_.operating_point().has_value());
  EXPECT_FALSE(radio_.role().has_value());
  EXPECT_DOUBLE_EQ(floor_w_, 2e-6);  // MCU retention + RTC
  EXPECT_DOUBLE_EQ(radio_.power_draw().value(), floor_w_);
  EXPECT_EQ(radio_.name(), "watch");
  EXPECT_EQ(radio_.address(), 1);
}

TEST_F(RadioTest, PowerDrawFollowsRoleAndMode) {
  const auto& bs = map_.candidate(hal::LinkMode::Backscatter,
                                  hal::Bitrate::M1);
  ASSERT_TRUE(radio_.switch_to(bs, hal::Role::DataTransmitter));
  EXPECT_DOUBLE_EQ(radio_.power_draw().value(), bs.tx_power_w);  // tag: ~36 uW
  ASSERT_TRUE(radio_.switch_to(bs, hal::Role::DataReceiver));
  // Carrier side: 129 mW.
  EXPECT_DOUBLE_EQ(radio_.power_draw().value(), bs.rx_power_w);
}

TEST_F(RadioTest, SwitchChargesTable5OverheadOncePerTransition) {
  const auto& active =
      map_.candidate(hal::LinkMode::Active, hal::Bitrate::M1);
  const double before = radio_.battery().remaining_joules();
  ASSERT_TRUE(radio_.switch_to(active, hal::Role::DataTransmitter));
  const double cost1 = before - radio_.battery().remaining_joules();
  EXPECT_NEAR(cost1, map_.switch_overhead(hal::LinkMode::Active).tx_joules,
              1e-12);
  EXPECT_EQ(radio_.mode_switches(), 1u);
  // Same mode + role again: no charge.
  ASSERT_TRUE(radio_.switch_to(active, hal::Role::DataTransmitter));
  EXPECT_EQ(radio_.mode_switches(), 1u);
  EXPECT_NEAR(radio_.battery().remaining_joules(), before - cost1, 1e-12);
  // Rate change within the mode is free too (no RF chain power-down).
  const auto& active_slow =
      map_.candidate(hal::LinkMode::Active, hal::Bitrate::k10);
  ASSERT_TRUE(radio_.switch_to(active_slow, hal::Role::DataTransmitter));
  EXPECT_EQ(radio_.mode_switches(), 1u);
  // Role flip within a mode costs a transition.
  ASSERT_TRUE(radio_.switch_to(active, hal::Role::DataReceiver));
  EXPECT_EQ(radio_.mode_switches(), 2u);
}

TEST_F(RadioTest, AdvanceDrainsBatteryAndLedger) {
  const auto& passive =
      map_.candidate(hal::LinkMode::PassiveRx, hal::Bitrate::M1);
  ASSERT_TRUE(radio_.switch_to(passive, hal::Role::DataTransmitter));
  const double before = radio_.battery().remaining_joules();
  ASSERT_TRUE(radio_.advance(util::Seconds(10.0)));  // holding the carrier
  EXPECT_NEAR(before - radio_.battery().remaining_joules(), 1.29, 1e-9);
  EXPECT_NEAR(
      radio_.ledger().joules(energy::EnergyCategory::CarrierGeneration),
      1.29, 1e-9);
  EXPECT_THROW(radio_.advance(util::Seconds(-1.0)), std::invalid_argument);
}

TEST_F(RadioTest, LedgerCategoriesByModeAndRole) {
  using energy::EnergyCategory;
  const auto& bs = map_.candidate(hal::LinkMode::Backscatter,
                                  hal::Bitrate::M1);
  ASSERT_TRUE(radio_.switch_to(bs, hal::Role::DataTransmitter));
  ASSERT_TRUE(radio_.advance(util::Seconds(1.0)));
  EXPECT_GT(radio_.ledger().joules(EnergyCategory::BackscatterTx), 0.0);
  ASSERT_TRUE(radio_.switch_to(bs, hal::Role::DataReceiver));
  ASSERT_TRUE(radio_.advance(util::Seconds(1.0)));
  EXPECT_GT(radio_.ledger().joules(EnergyCategory::CarrierGeneration), 0.0);
  const auto& active =
      map_.candidate(hal::LinkMode::Active, hal::Bitrate::M1);
  ASSERT_TRUE(radio_.switch_to(active, hal::Role::DataReceiver));
  ASSERT_TRUE(radio_.advance(util::Seconds(1.0)));
  EXPECT_GT(radio_.ledger().joules(EnergyCategory::ActiveRx), 0.0);
  EXPECT_GT(radio_.ledger().joules(EnergyCategory::ModeSwitch), 0.0);
}

TEST_F(RadioTest, BatteryDeathDuringAdvanceGoesIdle) {
  const auto tiny =
      backend_.create_radio("band", 2, util::WattHours(1e-6));  // 3.6 mJ
  const auto& active = map_.candidate(hal::LinkMode::Active,
                                      hal::Bitrate::M1);
  ASSERT_TRUE(tiny->switch_to(active, hal::Role::DataTransmitter));
  // 94.56 mW drains 3.6 mJ in ~38 ms; a 1 s advance must fail.
  EXPECT_FALSE(tiny->advance(util::Seconds(1.0)));
  EXPECT_TRUE(tiny->battery().empty());
  EXPECT_FALSE(tiny->operating_point().has_value());
  EXPECT_DOUBLE_EQ(tiny->power_draw().value(), floor_w_);
}

TEST_F(RadioTest, IdleAdvanceUsesFloor) {
  const double before = radio_.battery().remaining_joules();
  ASSERT_TRUE(radio_.advance(util::Seconds(100.0)));
  EXPECT_NEAR(before - radio_.battery().remaining_joules(),
              100.0 * floor_w_, 1e-12);
  EXPECT_GT(radio_.ledger().joules(energy::EnergyCategory::Idle), 0.0);
}

TEST_F(RadioTest, GoIdleStopsModeDraw) {
  const auto& active =
      map_.candidate(hal::LinkMode::Active, hal::Bitrate::M1);
  ASSERT_TRUE(radio_.switch_to(active, hal::Role::DataTransmitter));
  radio_.go_idle();
  EXPECT_DOUBLE_EQ(radio_.power_draw().value(), floor_w_);
}

TEST(RoleNames, Stable) {
  EXPECT_STREQ(to_string(hal::Role::DataTransmitter), "tx");
  EXPECT_STREQ(to_string(hal::Role::DataReceiver), "rx");
}

}  // namespace
}  // namespace braidio::core
