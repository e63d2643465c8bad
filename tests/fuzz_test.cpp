// Robustness fuzzing: the parsers and solvers must never crash, hang, or
// violate their invariants on adversarial inputs.
#include <gtest/gtest.h>

#include "core/offload.hpp"
#include "mac/fec.hpp"
#include "mac/frame.hpp"
#include "mac/probe.hpp"
#include "util/rng.hpp"

namespace braidio {
namespace {

TEST(FrameFuzz, RandomBytesNeverCrashTheParser) {
  util::Rng rng(0xF00D);
  for (int trial = 0; trial < 20'000; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    const auto frame = mac::deserialize(bytes);
    if (frame) {
      // Anything that parses must re-serialize to the same bytes.
      EXPECT_EQ(mac::serialize(*frame), bytes);
    }
  }
}

TEST(FrameFuzz, MutatedValidFramesNeverForge) {
  util::Rng rng(0xBEEF);
  mac::Frame f;
  f.type = mac::FrameType::Data;
  f.source = 3;
  f.destination = 4;
  f.payload = {10, 20, 30, 40, 50, 60};
  const auto clean = mac::serialize(f);
  int parsed_differently = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    auto bytes = clean;
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int k = 0; k < flips; ++k) {
      const auto at =
          static_cast<std::size_t>(rng.uniform_int(0, bytes.size() - 1));
      bytes[at] ^= static_cast<std::uint8_t>(
          1u << rng.uniform_int(0, 7));
    }
    if (bytes == clean) continue;
    const auto parsed = mac::deserialize(bytes);
    if (parsed && *parsed == f) {
      // A CRC-16 collision that reconstructs the identical frame is
      // acceptable; a *different* frame parsing fine is the norm when the
      // corrupted bits land in the payload and the CRC collides.
      ++parsed_differently;
    }
  }
  // With 16 bits of CRC, surviving forgeries must be rare.
  EXPECT_LT(parsed_differently, 10);
}

TEST(ControlPayloadFuzz, ParsersRejectGarbageGracefully) {
  util::Rng rng(0xCAFE);
  for (int trial = 0; trial < 20'000; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 16));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)mac::parse_probe(bytes);
    (void)mac::parse_probe_report(bytes);
    (void)mac::parse_battery_status(bytes);
    (void)mac::parse_mode_switch(bytes);
  }
  SUCCEED();
}

TEST(FecFuzz, DecoderHandlesArbitraryCodedStreams) {
  util::Rng rng(0xD1CE);
  for (int trial = 0; trial < 5'000; ++trial) {
    mac::CodedPayload coded;
    coded.data_bytes = static_cast<std::size_t>(rng.uniform_int(0, 64));
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 700));
    coded.coded_bits.resize(len);
    for (auto& b : coded.coded_bits) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
    }
    const auto decoded = mac::fec_decode(coded);
    if (decoded) {
      EXPECT_EQ(decoded->payload.size(), coded.data_bytes);
    }
  }
}

TEST(PlannerFuzz, RandomCandidateSetsKeepInvariants) {
  util::Rng rng(0xACE);
  for (int trial = 0; trial < 3'000; ++trial) {
    const auto n = 1 + rng.uniform_int(0, 5);
    std::vector<hal::OperatingPoint> candidates;
    double lo_ratio = 1e300, hi_ratio = -1e300;
    for (std::uint64_t i = 0; i < n; ++i) {
      hal::OperatingPoint c;
      c.mode = hal::LinkMode::Active;
      c.rate = hal::Bitrate::M1;
      c.tx_power_w = rng.uniform(1e-6, 1.0);
      c.rx_power_w = rng.uniform(1e-6, 1.0);
      candidates.push_back(c);
      const double ratio = c.tx_power_w / c.rx_power_w;
      lo_ratio = std::min(lo_ratio, ratio);
      hi_ratio = std::max(hi_ratio, ratio);
    }
    const double e1 = rng.uniform(1.0, 1e6);
    const double e2 = rng.uniform(1.0, 1e6);
    const auto plan = core::OffloadPlanner::plan(candidates, e1, e2);
    ASSERT_FALSE(plan.entries.empty());
    double frac = 0.0;
    for (const auto& e : plan.entries) {
      ASSERT_GT(e.fraction, 0.0);
      frac += e.fraction;
    }
    EXPECT_NEAR(frac, 1.0, 1e-6);
    EXPECT_GT(plan.tx_joules_per_bit, 0.0);
    EXPECT_GT(plan.rx_joules_per_bit, 0.0);
    const double k = e1 / e2;
    if (plan.proportional) {
      EXPECT_NEAR(plan.achieved_ratio() / k, 1.0, 1e-5);
    } else {
      // Claimed infeasible: the target really must sit outside the span.
      EXPECT_TRUE(k < lo_ratio * (1.0 + 1e-9) ||
                  k > hi_ratio * (1.0 - 1e-9))
          << "k=" << k << " span=[" << lo_ratio << "," << hi_ratio << "]";
    }
  }
}

}  // namespace
}  // namespace braidio
