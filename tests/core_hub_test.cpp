#include "core/carrier_hub.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/faults/fault_timeline.hpp"
#include "sim/faults/impairment.hpp"

namespace braidio::core {
namespace {

struct Rig {
  PowerTable table;
  phy::LinkBudget budget;
  RegimeMap regimes{table, budget};
};

std::vector<HubNodeConfig> three_sensors() {
  return {{"door", 0.5, 0.6, 0.0, 24},
          {"window", 0.5, 1.2, 0.0, 24},
          {"motion", 0.5, 2.0, 0.0, 24}};
}

TEST(CarrierHub, ServesAllNodes) {
  Rig rig;
  CarrierHub hub(rig.regimes, {}, three_sensors());
  const auto stats = hub.run(20);
  ASSERT_EQ(stats.nodes.size(), 3u);
  for (const auto& n : stats.nodes) {
    EXPECT_EQ(n.offered, 20u * 8u) << n.name;
    EXPECT_GT(n.delivered, n.offered * 9 / 10) << n.name;
    EXPECT_GT(n.node_joules, 0.0) << n.name;
  }
  EXPECT_GT(stats.hub_joules, 0.0);
  EXPECT_GT(stats.elapsed_s, 0.0);
}

TEST(CarrierHub, PoorNodesRideTheHubCarrier) {
  // With a 99.5 Wh hub and 0.5 Wh nodes, every in-Regime-A node's plan
  // must be backscatter-dominant: the node reflects, the hub pays.
  Rig rig;
  CarrierHub hub(rig.regimes, {}, three_sensors());
  hub.run(5);
  for (const auto& plan : hub.plans()) {
    double backscatter_fraction = 0.0;
    for (const auto& e : plan.entries) {
      if (e.candidate.mode == phy::LinkMode::Backscatter) {
        backscatter_fraction += e.fraction;
      }
    }
    EXPECT_GT(backscatter_fraction, 0.5) << plan.summary();
  }
}

TEST(CarrierHub, NodeEnergyOrdersOfMagnitudeBelowHub) {
  Rig rig;
  CarrierHub hub(rig.regimes, {}, {{"near", 0.5, 0.5, 0.0, 24}});
  const auto stats = hub.run(50);
  ASSERT_EQ(stats.nodes.size(), 1u);
  // Tag-side joules vs hub carrier joules: the whole point of offload.
  EXPECT_LT(stats.nodes[0].node_joules, stats.hub_joules / 100.0);
}

TEST(CarrierHub, HubEnergyPerBitAmortizesAcrossNodes) {
  Rig rig;
  HubConfig cfg;
  // One node vs four identical nodes at the same distance: per delivered
  // bit the hub pays roughly the same, so total service scales with node
  // count at constant hub J/bit (the amortization claim).
  CarrierHub one(rig.regimes, cfg, {{"n1", 0.5, 0.8, 0.0, 24}});
  const auto s1 = one.run(40);
  CarrierHub four(rig.regimes, cfg,
                  {{"n1", 0.5, 0.8, 0.0, 24},
                   {"n2", 0.5, 0.8, 0.0, 24},
                   {"n3", 0.5, 0.8, 0.0, 24},
                   {"n4", 0.5, 0.8, 0.0, 24}});
  const auto s4 = four.run(40);
  EXPECT_NEAR(s4.hub_joules_per_bit(24) / s1.hub_joules_per_bit(24), 1.0,
              0.2);
  EXPECT_NEAR(s4.delivered_total() / s1.delivered_total(), 4.0, 0.3);
}

TEST(CarrierHub, DistantNodeFallsBackToActive) {
  Rig rig;
  CarrierHub hub(rig.regimes, {}, {{"far", 0.5, 4.0, 0.0, 24}});
  hub.run(3);
  ASSERT_EQ(hub.plans().size(), 1u);
  // At 4 m only active+passive exist; sending node->hub cannot use
  // passive's cheap end (the node would hold the carrier), so the plan is
  // effectively active.
  EXPECT_NE(hub.plans()[0].summary().find("active"), std::string::npos);
}

TEST(CarrierHub, ShadowedNodeDeliversLess) {
  Rig rig;
  CarrierHub hub(rig.regimes, {},
                 {{"clear", 0.5, 1.0, 0.0, 24},
                  {"shadowed", 0.5, 1.0, 14.0, 24}});
  const auto stats = hub.run(20);
  EXPECT_GT(stats.nodes[0].delivered, stats.nodes[1].delivered);
}

TEST(CarrierHub, TinyNodeDiesAndOthersContinue) {
  Rig rig;
  // 9e-8 Wh = 0.32 mJ: enough for the backscatter switch-in (0.309 mJ,
  // Table 5) plus a few hundred tag-side packets, then the node dies.
  CarrierHub hub(rig.regimes, {},
                 {{"coin", 9e-8, 0.6, 0.0, 24},
                  {"normal", 0.5, 0.6, 0.0, 24}});
  const auto stats = hub.run(300);
  EXPECT_GT(stats.nodes[0].offered, 0u);       // it did participate...
  EXPECT_LT(stats.nodes[0].offered, 300u * 8u);  // ...and dropped out early
  EXPECT_EQ(stats.nodes[1].offered, 300u * 8u);  // the other is unaffected
}

TEST(CarrierHub, Validation) {
  Rig rig;
  EXPECT_THROW(CarrierHub(rig.regimes, {}, {}), std::invalid_argument);
  HubConfig bad;
  bad.packets_per_slot = 0;
  EXPECT_THROW(CarrierHub(rig.regimes, bad, three_sensors()),
               std::invalid_argument);
  CarrierHub out_of_range(rig.regimes, {},
                          {{"moon", 0.5, 40.0, 0.0, 24}});
  EXPECT_THROW(out_of_range.run(1), std::runtime_error);
}

TEST(CarrierHub, RejectsFaultKindsItCannotHonour) {
  // Distance jumps and brownouts are two-endpoint braid faults: the hub
  // must refuse them, naming the first offender, rather than run as if
  // they were not there. Channel faults, fade bursts included, apply.
  struct Case {
    const char* line;
    const char* kind;
    const char* start;
  };
  const Case cases[] = {{"brownout 0.01 1000 both", "brownout", "0.01"},
                        {"distance 0.02 50", "distance", "0.02"}};
  Rig rig;
  for (const Case& c : cases) {
    // The accepted fade sorts first, so the offender is event 1; a second
    // offender later in the script must not be the one named.
    std::istringstream script(std::string("fade 0 0.5 10\n") + c.line +
                              "\nbrownout 9 1 a\n");
    std::string error;
    const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
    ASSERT_TRUE(timeline.has_value()) << error;
    const sim::faults::ImpairmentSchedule schedule(*timeline);
    HubConfig cfg;
    cfg.impairments = &schedule;
    try {
      CarrierHub hub(rig.regimes, cfg, three_sensors());
      ADD_FAILURE() << "accepted " << c.line;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("fault event 1"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("(") + c.kind + " at " + c.start),
                std::string::npos)
          << what;
    }
  }

  std::istringstream honoured(
      "shadowing 0 1 3\ninterferer 0 1 -50\ndropout 0 1\nfade 0 1 10\n");
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(honoured, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  const sim::faults::ImpairmentSchedule schedule(*timeline);
  HubConfig cfg;
  cfg.impairments = &schedule;
  CarrierHub hub(rig.regimes, cfg, three_sensors());
  EXPECT_EQ(hub.run(2).fault_activations, 4u);
}

}  // namespace
}  // namespace braidio::core
