// MAC policy layer: the pluggable channel-access interface, the
// scheduled-slot (TDMA) hub policy, the charged-CCA accounting, and the
// dead-destination rules (DESIGN.md §16).
#include "net/mac_policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "backends/backends.hpp"
#include "energy/ledger.hpp"
#include "mac/frame.hpp"
#include "net/network_sim.hpp"
#include "net/tdma.hpp"
#include "sim/faults/fault_timeline.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"

namespace braidio::net {
namespace {

const hal::RadioBackend& backend(const char* name) {
  backends::register_all();
  return hal::BackendRegistry::instance().get(name);
}

/// A tag's non-idle spend: everything but the sleep floor, i.e. what the
/// MAC actually made the radio do.
double active_joules(const hal::IRadio& radio) {
  return radio.ledger().total_joules() -
         radio.ledger().joules(energy::EnergyCategory::Idle);
}

/// A braidio star under hub-assigned slots with every tag kicking at
/// t = 0, so all of them register in the first round.
NetConfig tdma_star(std::size_t tags, double extent_m,
                    std::uint32_t packets) {
  NetConfig config;
  config.backend = &backend(backends::kBraidio);
  config.mac = MacKind::Tdma;
  config.topology.nodes = tags;
  config.topology.extent_m = extent_m;
  config.packets_per_node = packets;
  config.kick_spread_s = 0.0;
  return config;
}

/// The star extent that puts a lone tag `distance_m` from the hub (the
/// sunflower layout places tag 1 of 1 at extent * sqrt(1/2)).
double lone_tag_extent(double distance_m) {
  return distance_m * std::sqrt(2.0);
}

sim::faults::ImpairmentSchedule parse_schedule(const std::string& text) {
  std::istringstream script(text);
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
  if (!timeline) throw std::invalid_argument(error);
  return sim::faults::ImpairmentSchedule(*timeline);
}

std::uint64_t delivered(const NetworkSimulator& sim, std::uint32_t i) {
  return sim.node(i).counters().value(NodeCounter::Delivered);
}

TEST(MacPolicy, ParseRoundTrips) {
  EXPECT_EQ(parse_mac("csma"), MacKind::Csma);
  EXPECT_EQ(parse_mac("tdma"), MacKind::Tdma);
  EXPECT_THROW(parse_mac("aloha"), std::invalid_argument);
  EXPECT_STREQ(to_string(MacKind::Csma), "csma");
  EXPECT_STREQ(to_string(MacKind::Tdma), "tdma");
}

TEST(MacPolicy, RejectsBadTdmaConfig) {
  TdmaConfig bad_guard;
  bad_guard.guard_s = 0.0;
  EXPECT_THROW(ScheduledSlotMac(bad_guard, 4), std::invalid_argument);
  TdmaConfig bad_retry;
  bad_retry.reg_retry_s = -1.0;
  EXPECT_THROW(ScheduledSlotMac(bad_retry, 4), std::invalid_argument);
  TdmaConfig no_budget;
  no_budget.max_registration_attempts = 0;
  EXPECT_THROW(ScheduledSlotMac(no_budget, 4), std::invalid_argument);
}

TEST(ScheduledSlotMac, DeliversOnAQuietStar) {
  NetConfig config;
  config.backend = &backend(backends::kBraidio);
  config.mac = MacKind::Tdma;
  config.topology.nodes = 4;
  config.topology.extent_m = 0.4;
  config.packets_per_node = 2;
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_EQ(stats.generated, 8u);
  EXPECT_EQ(stats.delivered, 8u);
  EXPECT_EQ(stats.csma_failures, 0u);  // slots are granted, never contended
  EXPECT_EQ(stats.mac.registrations, 4u);
  EXPECT_GT(stats.mac.rounds, 0u);
  EXPECT_EQ(stats.mac.slots_reclaimed, 0u);
  const auto& policy = dynamic_cast<const ScheduledSlotMac&>(sim.mac_policy());
  for (std::uint32_t i = 1; i <= 4; ++i) {
    EXPECT_TRUE(policy.is_registered(i));
  }
}

TEST(ScheduledSlotMac, SweepsAreByteIdenticalSerialVsParallel) {
  const auto run_with_threads = [&](unsigned threads) {
    sim::Scenario scenario(
        "tdma_determinism", {sim::Axis::indexed("replica", 6)},
        {"events", "delivered", "rounds", "joules"},
        [&](sim::SweepPoint& p) {
          NetConfig config;
          config.backend = &backend(backends::kBraidio);
          config.mac = MacKind::Tdma;
          config.topology.kind = TopologyKind::RandomGeometric;
          config.topology.nodes = 48;
          config.topology.extent_m = 1.5;
          config.topology.link_range_m = 0.8;
          config.packets_per_node = 2;
          config.seed = p.seed();
          NetworkSimulator sim(config);
          const NetStats stats = sim.run();
          std::ostringstream joules;
          joules.precision(17);
          joules << stats.total_joules;
          sim::RunRecord record;
          record.cells = {std::to_string(stats.events),
                          std::to_string(stats.delivered),
                          std::to_string(stats.mac.rounds), joules.str()};
          return record;
        });
    sim::SweepOptions options;
    options.threads = threads;
    return sim::SweepRunner(options).run(scenario).to_csv();
  };
  const std::string serial = run_with_threads(1);
  const std::string parallel = run_with_threads(4);
  EXPECT_EQ(serial, parallel);
}

TEST(ScheduledSlotMac, ReclaimsSlotsWhenNodesDie) {
  // Tags on a starvation battery: they register, transmit a while, then
  // die mid-backlog. The planner must drop dead members (reclaiming
  // their slots), keep serving the rest, and terminate. The ble-active
  // backend makes each transmission cost real milliwatt-scale energy, so
  // the deaths land mid-run, inside assigned slots.
  NetConfig config;
  config.backend = &backend(backends::kBleActive);
  config.mac = MacKind::Tdma;
  config.topology.nodes = 8;
  config.topology.extent_m = 0.4;
  config.packets_per_node = 50;
  config.tag_battery_wh = 3e-7;  // survives registration, not the backlog
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_GT(stats.battery_deaths, 0u);
  EXPECT_GT(stats.mac.slots_reclaimed, 0u);
  EXPECT_LT(stats.delivered, stats.generated);
  // Conservation stays exact through the deaths: each ledger covers
  // exactly what its battery gave up.
  for (std::uint32_t i = 0; i < sim.node_count(); ++i) {
    const hal::IRadio& radio = sim.node(i).radio();
    const double drained = radio.battery().capacity_joules() -
                           radio.battery().remaining_joules();
    EXPECT_NEAR(radio.ledger().total_joules(), drained,
                1e-9 * radio.battery().capacity_joules() + 1e-15);
  }
}

TEST(ScheduledSlotMac, RegistrationRidesOutTargetedDropout) {
  // Tag 1 is under a targeted carrier dropout for the first 0.3 s: its
  // registration exchanges fail and back off (reg_retry_s), then succeed
  // once the fault lifts — after which it delivers everything.
  std::istringstream script("dropout 0 0.3 @1\n");
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  const sim::faults::ImpairmentSchedule schedule(*timeline);

  NetConfig config;
  config.backend = &backend(backends::kBraidio);
  config.mac = MacKind::Tdma;
  config.topology.nodes = 2;
  config.topology.extent_m = 0.3;
  config.packets_per_node = 2;
  config.kick_spread_s = 0.01;  // both tags ask well inside the dropout
  config.impairments = &schedule;
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_EQ(stats.mac.registrations, 2u);
  EXPECT_EQ(sim.node(1).counters().value(NodeCounter::Delivered), 2u);
  EXPECT_EQ(sim.node(2).counters().value(NodeCounter::Delivered), 2u);
  EXPECT_GT(stats.elapsed_s, 0.3);  // the run really waited the fault out
}

TEST(ScheduledSlotMac, PermanentDropoutIsBoundedAndIsolated) {
  // A dropout that never lifts: tag 1 burns its registration budget and
  // is given up on — the run terminates and tag 2 is untouched.
  std::istringstream script("dropout 0 1e6 @1\n");
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  const sim::faults::ImpairmentSchedule schedule(*timeline);

  NetConfig config;
  config.backend = &backend(backends::kBraidio);
  config.mac = MacKind::Tdma;
  config.topology.nodes = 2;
  config.topology.extent_m = 0.3;
  config.packets_per_node = 2;
  config.kick_spread_s = 0.01;
  config.impairments = &schedule;
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_EQ(stats.mac.registrations, 1u);
  EXPECT_EQ(sim.node(1).counters().value(NodeCounter::Delivered), 0u);
  EXPECT_EQ(sim.node(2).counters().value(NodeCounter::Delivered), 2u);
  const auto& policy = dynamic_cast<const ScheduledSlotMac&>(sim.mac_policy());
  EXPECT_FALSE(policy.is_registered(1));
  EXPECT_TRUE(policy.is_registered(2));
}

TEST(ScheduledSlotMac, CcaDeafReaderPassiveDeliversDenseStar) {
  // The collapse scenario, fixed: pure-backscatter tags cannot carrier
  // sense, so a dense uncoordinated population collides itself to death
  // — but under hub-assigned slots the same hardware delivers >90%.
  NetConfig tdma;
  tdma.backend = &backend(backends::kReaderPassive);
  tdma.mac = MacKind::Tdma;
  tdma.topology.nodes = 1000;
  tdma.topology.extent_m = 2.0;
  tdma.packets_per_node = 2;
  NetworkSimulator tdma_sim(tdma);
  const NetStats scheduled = tdma_sim.run();
  ASSERT_GT(scheduled.generated, 0u);
  const double tdma_pct = 100.0 * static_cast<double>(scheduled.delivered) /
                          static_cast<double>(scheduled.generated);
  EXPECT_GT(tdma_pct, 90.0);

  NetConfig csma = tdma;
  csma.mac = MacKind::Csma;
  NetworkSimulator csma_sim(csma);
  const NetStats contended = csma_sim.run();
  const double csma_pct = 100.0 * static_cast<double>(contended.delivered) /
                          static_cast<double>(contended.generated);
  EXPECT_LT(csma_pct, tdma_pct);  // the collapse the slots fix
}

// The carrier hub is the fleet case of the TDMA star: one mains-powered
// hub sources the carrier and assigns slots to energy-poor sensor tags.

TEST(CarrierHub, ServesAllNodes) {
  // Three sensor tags at about 0.61, 1.06 and 1.37 m, 160 frames each:
  // every tag gets served, and both ends pay energy. The tags sit well
  // inside their rates' backscatter ranges (0.9 m at 1 Mb/s, 1.8 m at
  // 100 kb/s); a tag at a range edge is planned onto a rate that rarely
  // closes a frame, which is a separate planning fault.
  constexpr std::uint32_t kPackets = 160;
  NetworkSimulator sim(tdma_star(3, 1.5, kPackets));
  const NetStats stats = sim.run();
  EXPECT_EQ(stats.generated, 3u * kPackets);
  EXPECT_EQ(stats.mac.registrations, 3u);
  ASSERT_EQ(stats.node_joules.size(), 4u);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    EXPECT_GT(delivered(sim, i), kPackets * 9 / 10) << i;
    EXPECT_GT(stats.node_joules[i], 0.0) << i;
  }
  EXPECT_GT(stats.hub_joules, 0.0);
  EXPECT_GT(stats.elapsed_s, 0.0);
}

TEST(CarrierHub, RejectsFaultKindsItCannotHonour) {
  // Distance jumps, brownouts and fade bursts are pair-link faults: the
  // hub's star must refuse them, naming the first offender, rather than
  // run as if they were not there. Channel faults and dropouts apply.
  struct Case {
    const char* line;
    const char* kind;
    const char* start;
  };
  const Case cases[] = {{"brownout 0.01 1000 both", "brownout", "0.01"},
                        {"distance 0.02 50", "distance", "0.02"},
                        {"fade 0.03 0.1 10", "fade", "0.03"}};
  for (const Case& c : cases) {
    // The accepted dropout sorts first, so the offender is event 1; a
    // second offender later in the script must not be the one named.
    const auto schedule = parse_schedule(std::string("dropout 0 0.5 @1\n") +
                                         c.line + "\nbrownout 9 1 a\n");
    NetConfig config = tdma_star(3, 1.5, 8);
    config.impairments = &schedule;
    try {
      NetworkSimulator sim(config);
      ADD_FAILURE() << "accepted " << c.line;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("fault event 1"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("(") + c.kind + " at " + c.start),
                std::string::npos)
          << what;
    }
  }

  const auto honoured = parse_schedule(
      "shadowing 0 1 3\ninterferer 0 1 -50\ndropout 0 1 @1\n");
  NetConfig config = tdma_star(3, 1.5, 8);
  config.impairments = &honoured;
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  // The faults are applied, not just accepted: the dropout keeps tag 1
  // from registering, and the interferer corrupts the other tags' data.
  EXPECT_EQ(stats.mac.registrations, 2u);
  EXPECT_EQ(delivered(sim, 1), 0u);
  EXPECT_GT(sim.node(2).counters().value(NodeCounter::HopDataLost), 0u);
  EXPECT_LT(stats.delivered, stats.generated);
}

TEST(ScheduledSlotMac, RegimeATagsBackscatterAndAFarTagDoesNot) {
  // The energy-poor tag reflects the hub's carrier wherever backscatter
  // reaches (Regime A, <= 2.4 m), at the best rate that still closes:
  // 1 Mb/s at 0.5 m, 100 kb/s at 1 m, 10 kb/s at 2 m. At 4 m it cannot,
  // and the hub sources a carrier for a passive receiver instead.
  struct Case {
    double distance_m;
    hal::LinkMode mode;
    hal::Bitrate rate;
  };
  const Case cases[] = {
      {0.5, hal::LinkMode::Backscatter, hal::Bitrate::M1},
      {1.0, hal::LinkMode::Backscatter, hal::Bitrate::k100},
      {2.0, hal::LinkMode::Backscatter, hal::Bitrate::k10},
      {4.0, hal::LinkMode::PassiveRx, hal::Bitrate::k100},
  };
  for (const Case& c : cases) {
    const NetworkSimulator sim(
        tdma_star(1, lone_tag_extent(c.distance_m), 1));
    ASSERT_NEAR(distance_m(sim.topology().positions[1],
                           sim.topology().positions[0]),
                c.distance_m, 1e-12);
    const auto point = sim.link_point(1);
    ASSERT_TRUE(point.has_value()) << c.distance_m;
    EXPECT_EQ(point->mode, c.mode) << c.distance_m;
    EXPECT_EQ(point->rate, c.rate) << c.distance_m;
  }

  // Every tag of an 8-tag star spread over Regime A backscatters.
  const NetworkSimulator star(tdma_star(8, 2.2, 1));
  for (std::uint32_t i = 1; i <= 8; ++i) {
    const auto point = star.link_point(i);
    ASSERT_TRUE(point.has_value()) << i;
    EXPECT_EQ(point->mode, hal::LinkMode::Backscatter) << i;
  }
}

TEST(ScheduledSlotMac, HubJoulesPerBitAmortizesAcrossTags) {
  // One carrier serves the whole fleet: per delivered bit the hub pays
  // about the same for one tag as for four, while the served traffic
  // scales with the tag count.
  NetworkSimulator one(tdma_star(1, 0.8, 160));
  const NetStats s1 = one.run();
  NetworkSimulator four(tdma_star(4, 0.8, 160));
  const NetStats s4 = four.run();
  ASSERT_GT(s1.delivered, 0u);
  const double per_bit_1 = s1.hub_joules / s1.delivered_payload_bits;
  const double per_bit_4 = s4.hub_joules / s4.delivered_payload_bits;
  EXPECT_NEAR(per_bit_4 / per_bit_1, 1.0, 0.2);
  EXPECT_NEAR(static_cast<double>(s4.delivered) /
                  static_cast<double>(s1.delivered),
              4.0, 0.3);
}

TEST(ScheduledSlotMac, TagJoulesStayFarBelowTheHub) {
  // The tag pays the 0.309 mJ backscatter switch-in once (Table 5) and
  // then only reflection costs; the hub pays the carrier for every
  // frame. 1000 frames amortize the switch-in well past a 100x ratio
  // (400 frames reach only ~79x).
  NetworkSimulator sim(tdma_star(1, 0.8, 1000));
  const NetStats stats = sim.run();
  EXPECT_EQ(stats.delivered, 1000u);
  ASSERT_EQ(stats.node_joules.size(), 2u);
  EXPECT_GT(stats.node_joules[1], 0.0);
  EXPECT_LT(stats.node_joules[1], stats.hub_joules / 100.0);
}

TEST(ScheduledSlotMac, TargetedShadowingCutsOnlyItsTagsDelivery) {
  // 14 dB of extra loss on tag 2's links only: tag 2 delivers less than
  // tag 1, which keeps delivering everything. Without the fault both
  // deliver everything, so the gap is the fault's doing.
  constexpr std::uint32_t kPackets = 40;
  NetworkSimulator clear(tdma_star(2, 0.8, kPackets));
  clear.run();
  EXPECT_EQ(delivered(clear, 1), kPackets);
  EXPECT_EQ(delivered(clear, 2), kPackets);

  const auto schedule = parse_schedule("shadowing 0 1e6 14 @2\n");
  NetConfig config = tdma_star(2, 0.8, kPackets);
  config.impairments = &schedule;
  NetworkSimulator shadowed(config);
  shadowed.run();
  EXPECT_EQ(delivered(shadowed, 1), kPackets);
  EXPECT_LT(delivered(shadowed, 2), delivered(shadowed, 1));
}

TEST(ScheduledSlotMac, OneHopDeliveryMatchesTheAnalyticBinomial) {
  // Differential check of the net delivery model against its closed
  // form. One tag, no retries, no other transmitter: each frame is acked
  // with p = (1 - BER)^data_wire_bits * (1 - BER)^ack_wire_bits, the BER
  // taken at the link's operating point and distance minus the targeted
  // shadowing loss. The delivered count is Binomial(N, p).
  constexpr std::uint32_t kFrames = 1000;
  constexpr double kLossDb = 6.0;
  const auto schedule = parse_schedule(
      "shadowing 0 1e6 " + std::to_string(kLossDb) + " @1\n");

  mac::Frame data;
  data.type = mac::FrameType::Data;
  data.payload.assign(NetConfig{}.payload_bytes, 0);
  mac::Frame ack;
  ack.type = mac::FrameType::Ack;

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    NetConfig config = tdma_star(1, 0.8, kFrames);
    config.max_retransmissions = 0;
    config.impairments = &schedule;
    config.seed = seed;
    NetworkSimulator sim(config);

    const auto point = sim.link_point(1);
    ASSERT_TRUE(point.has_value());
    const hal::ChannelModel& channel = config.backend->channel();
    const double snr =
        channel.snr_db(point->mode, point->rate,
                       distance_m(sim.topology().positions[1],
                                  sim.topology().positions[0])) -
        kLossDb;
    const double ber = channel.ber_from_snr_db(point->mode, snr);
    const double p =
        std::pow(1.0 - ber, static_cast<double>(data.wire_bits())) *
        std::pow(1.0 - ber, static_cast<double>(ack.wire_bits()));
    ASSERT_GT(p, 0.2);
    ASSERT_LT(p, 0.8);

    const NetStats stats = sim.run();
    EXPECT_EQ(stats.tx_attempts, kFrames);  // one attempt per frame
    const double n = static_cast<double>(kFrames);
    const double sigma = std::sqrt(n * p * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(stats.delivered), n * p, 4.0 * sigma)
        << "seed " << seed << " p " << p;
  }
}

TEST(MacPolicy, CsmaListeningCostsMoreThanTdmaCoordination) {
  // Satellite pin for the charged-CCA bugfix: for equal delivered bytes
  // on a quiet star, a CSMA tag's non-idle ledger strictly exceeds a
  // TDMA tag's — the CSMA tag pays a listen window per attempt, the TDMA
  // tag pays only one cheap registration exchange.
  const auto run = [&](MacKind mac) {
    NetConfig config;
    config.backend = &backend(backends::kBraidio);
    config.mac = mac;
    config.topology.nodes = 4;
    config.topology.extent_m = 0.2;
    config.packets_per_node = 2;
    NetworkSimulator sim(config);
    const NetStats stats = sim.run();
    EXPECT_EQ(stats.delivered, stats.generated);
    double tags = 0.0;
    for (std::uint32_t i = 1; i < sim.node_count(); ++i) {
      tags += active_joules(sim.node(i).radio());
    }
    return tags;
  };
  const double csma_joules = run(MacKind::Csma);
  const double tdma_joules = run(MacKind::Tdma);
  EXPECT_GT(csma_joules, tdma_joules);
}

TEST(NetworkSimulator, DeadDestinationAccruesNoCharge) {
  // The hub dies early on a starvation battery. Tags must keep paying
  // for their own (futile) transmissions while the dead hub's ledger
  // stays pinned at exactly its capacity — no post-death spend hiding in
  // the drained battery's clamp — and the run still terminates.
  NetConfig config;
  config.backend = &backend(backends::kBraidio);
  config.topology.nodes = 8;
  config.topology.extent_m = 0.4;
  config.packets_per_node = 4;
  config.hub_battery_wh = 1e-7;  // dies inside the first receive windows
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_GT(stats.battery_deaths, 0u);
  EXPECT_FALSE(sim.node(0).alive());
  EXPECT_LT(stats.delivered, stats.generated);
  EXPECT_GT(stats.tx_attempts, stats.delivered);  // tags kept trying

  const hal::IRadio& hub = sim.node(0).radio();
  EXPECT_EQ(hub.battery().remaining_joules(), 0.0);
  // Ledger == capacity exactly: everything the battery held was posted,
  // and nothing was posted after death.
  EXPECT_NEAR(hub.ledger().total_joules(), hub.battery().capacity_joules(),
              1e-12 * hub.battery().capacity_joules());
  // The tags' own ledgers still conserve exactly.
  for (std::uint32_t i = 1; i < sim.node_count(); ++i) {
    const hal::IRadio& radio = sim.node(i).radio();
    const double drained = radio.battery().capacity_joules() -
                           radio.battery().remaining_joules();
    EXPECT_NEAR(radio.ledger().total_joules(), drained,
                1e-9 * radio.battery().capacity_joules());
  }
}

}  // namespace
}  // namespace braidio::net
