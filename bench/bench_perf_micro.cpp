// Google-benchmark microbenchmarks for the library's hot paths: the
// planner (runs on every replan), the BER evaluators (every packet), the
// waveform Monte-Carlo, CRC, the transient circuit solver, the shared
// medium's carrier sense, the per-node RNG streams, and the
// observability overhead contract.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "backends/backends.hpp"
#include "core/lifetime_sim.hpp"
#include "core/offload.hpp"
#include "circuits/charge_pump.hpp"
#include "mac/crc.hpp"
#include "net/event_queue.hpp"
#include "net/medium.hpp"
#include "net/network_sim.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "phy/ber.hpp"
#include "phy/link_budget.hpp"
#include "phy/waveform.hpp"
#include "util/rng.hpp"

namespace {

using namespace braidio;

void BM_OffloadPlan(benchmark::State& state) {
  const auto candidates = backends::braidio_backend().caps().lattice;
  const double ratio = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::OffloadPlanner::plan(candidates, ratio, 1.0));
  }
}
BENCHMARK(BM_OffloadPlan)->Arg(1)->Arg(100)->Arg(2546);

void BM_OffloadPlanBidirectional(benchmark::State& state) {
  const auto candidates = backends::braidio_backend().caps().lattice;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::OffloadPlanner::plan_bidirectional(candidates, 17.0, 1.0));
  }
}
BENCHMARK(BM_OffloadPlanBidirectional);

void BM_BerEvaluation(benchmark::State& state) {
  phy::LinkBudget budget;
  double d = 0.1;
  for (auto _ : state) {
    d = d > 5.0 ? 0.1 : d + 0.001;
    benchmark::DoNotOptimize(
        budget.ber(hal::LinkMode::Backscatter, hal::Bitrate::k100, d));
  }
}
BENCHMARK(BM_BerEvaluation);

void BM_Crc16(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac::crc16(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc16)->Arg(64)->Arg(1024);

// A per-node stream's life: Rng::stream(seed, i) plus Arg() raw draws.
// Arg(156) stays inside the engine's array-free window (draws 0-155);
// Arg(157) adds draw 156, which builds the 312-word state; Arg(1000)
// crosses two more twists. node_bytes is sizeof(net::Node), which the
// 10k-tag stars pay per tag.
void BM_RngStreamDraws(benchmark::State& state) {
  const auto draws = static_cast<std::size_t>(state.range(0));
  std::uint64_t index = 0;
  for (auto _ : state) {
    util::Rng rng = util::Rng::stream(1, index++);
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < draws; ++k) {
      sum += rng.uniform_int(0, ~std::uint64_t{0});
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(draws));
  state.counters["node_bytes"] = static_cast<double>(sizeof(net::Node));
  state.counters["rng_bytes"] = static_cast<double>(sizeof(util::Rng));
}
BENCHMARK(BM_RngStreamDraws)->Arg(1)->Arg(16)->Arg(156)->Arg(157)->Arg(1000);

// The steady-state draw path after 1000 draws: Arg(0) uniform(), Arg(1)
// bernoulli(), the pair simulators' one-draw-per-channel-bit guard.
void BM_RngUniformSteady(benchmark::State& state) {
  util::Rng rng = util::Rng::stream(1, 0);
  for (int k = 0; k < 1000; ++k) rng.uniform();
  const bool bernoulli = state.range(0) == 1;
  for (auto _ : state) {
    if (bernoulli) {
      benchmark::DoNotOptimize(rng.bernoulli(0.3));
    } else {
      benchmark::DoNotOptimize(rng.uniform());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniformSteady)->Arg(0)->Arg(1);

void BM_WaveformMonteCarlo(benchmark::State& state) {
  phy::LinkBudget budget;
  phy::WaveformSimConfig cfg;
  cfg.mode = hal::LinkMode::Backscatter;
  cfg.rate = hal::Bitrate::M1;
  cfg.distance_m = 0.85;
  cfg.bits = 1000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;
    benchmark::DoNotOptimize(phy::simulate_waveform(budget, cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.bits));
}
BENCHMARK(BM_WaveformMonteCarlo);

void BM_ChargePumpTransient(benchmark::State& state) {
  circuits::ChargePump pump;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pump.simulate(5e-6, 0.0, 16));
  }
}
BENCHMARK(BM_ChargePumpTransient);

void BM_LifetimeMatrixCell(benchmark::State& state) {
  core::LifetimeSimulator sim(backends::braidio_backend());
  const auto& catalog = energy::device_catalog();
  core::LifetimeConfig cfg;
  cfg.distance_m = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.gain_vs_bluetooth(catalog[0], catalog[9], cfg));
  }
}
BENCHMARK(BM_LifetimeMatrixCell);

// Observability overhead contract: a Fig. 15-style gain-matrix inner
// loop with instrumentation compiled in. Arg(0) runs with everything
// DISABLED — compare its time against a -DBRAIDIO_OBS=OFF build to see
// the contract's <2% ceiling; the instrumented layers only pay a relaxed
// atomic load per hook when the tracer is off. Arg(1) runs with tracing
// ENABLED into a bounded ring (sample_every=1) to price the worst case.
// Arg(2) additionally turns on energy attribution (span paths + profile
// posts on every ledger charge) to price full provenance collection.
void BM_Fig15SweepObs(benchmark::State& state) {
#if BRAIDIO_OBS_COMPILED
  const bool trace = state.range(0) != 0;
  const bool attribute = state.range(0) >= 2;
  auto& tracer = obs::Tracer::instance();
  tracer.set_lane_capacity(std::size_t{1} << 12);
  tracer.clear();
  tracer.set_enabled(trace);
  obs::set_attribution_enabled(attribute);
  obs::reset_global_energy_profile();
#endif
  core::LifetimeSimulator sim(backends::braidio_backend());
  const auto& catalog = energy::device_catalog();
  core::LifetimeConfig cfg;
  cfg.distance_m = 0.5;
  for (auto _ : state) {
    double total = 0.0;
    for (std::size_t a = 0; a < 4; ++a) {
      for (std::size_t b = 0; b < 4; ++b) {
        total += sim.gain_vs_bluetooth(catalog[a], catalog[b + 4], cfg);
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 16);
#if BRAIDIO_OBS_COMPILED
  tracer.set_enabled(false);
  tracer.set_lane_capacity(std::size_t{1} << 14);
  tracer.clear();
  obs::set_attribution_enabled(false);
  obs::reset_global_energy_profile();
#endif
}
BENCHMARK(BM_Fig15SweepObs)->Arg(0)->Arg(1)->Arg(2);

// Network flight-recorder overhead contract (DESIGN.md §17): one dense
// star run per iteration. Arg(0) runs with the recorder and tracer OFF
// — the per-node counter blocks are always on (one array bump per
// counted fact) and each flow-stage site pays a relaxed load, which is
// where the <2% disabled-overhead ceiling is priced. Arg(1) arms the
// recorder (block copy, link matrix, latency, scheduler series);
// Arg(2) additionally turns on packet-lifecycle tracing into a bounded
// ring.
void BM_NetFlightRecorder(benchmark::State& state) {
  const bool stats = state.range(0) >= 1;
  const bool trace = state.range(0) >= 2;
#if BRAIDIO_OBS_COMPILED
  auto& tracer = obs::Tracer::instance();
  tracer.set_lane_capacity(std::size_t{1} << 12);
  tracer.clear();
  tracer.set_enabled(trace);
#else
  (void)trace;
#endif
  backends::register_all();
  const hal::RadioBackend& backend =
      hal::BackendRegistry::instance().get(backends::kBraidio);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    net::NetConfig cfg;
    cfg.backend = &backend;
    cfg.topology.kind = net::TopologyKind::Star;
    cfg.topology.nodes = 256;
    cfg.packets_per_node = 2;
    cfg.seed = ++seed;
    cfg.flight_recorder = stats;
    net::NetworkSimulator sim(cfg);
    const auto stats_out = sim.run();
    benchmark::DoNotOptimize(stats_out.events);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(stats_out.events));
  }
#if BRAIDIO_OBS_COMPILED
  tracer.set_enabled(false);
  tracer.set_lane_capacity(std::size_t{1} << 14);
  tracer.clear();
#endif
}
BENCHMARK(BM_NetFlightRecorder)->Arg(0)->Arg(1)->Arg(2);

// Calendar-queue hold model at the dense star's 10k depth: each
// iteration pops the earliest event and schedules its successor.
// Arg(0) is the clustered CSMA shape: 1,000 contenders backing off
// 128 us + k x 320 us (k < 32) over 9,000 events that refire uniformly
// within the next second. Arg(1) is the in-order TDMA shape: events
// 2.5 ms apart, each successor 2.5 ms after the latest. scan_per_op is
// sorted-insert links walked per iteration, cursor_per_op empty days
// walked per pop; both include the queue's own re-tunes.
void BM_EventQueueHold(benchmark::State& state) {
  constexpr std::uint32_t kDepth = 10000;
  constexpr std::uint32_t kContenders = 1000;
  constexpr double kSlotS = 2.5e-3;
  const bool in_order = state.range(0) == 1;
  util::Rng rng(5);
  std::vector<double> backoff(4096);
  std::vector<double> refire(4096);
  for (double& s : backoff) {
    s = 128e-6 + 320e-6 * static_cast<double>(rng.uniform_int(0, 31));
  }
  for (double& s : refire) s = rng.uniform(0.0, 1.0);

  net::EventQueue queue;
  double last = 0.0;
  for (std::uint32_t i = 0; i < kDepth; ++i) {
    if (in_order) {
      last += kSlotS;
      queue.schedule(last, i, 0);
    } else if (i < kContenders) {
      queue.schedule(rng.uniform(0.0, 10e-3), i, 0);
    } else {
      queue.schedule(rng.uniform(0.0, 1.0), i, 1);
    }
  }
  const std::uint64_t scans = queue.scan_steps();
  const std::uint64_t cursor = queue.cursor_steps();
  net::Event ev;
  std::size_t k = 0;
  for (auto _ : state) {
    // Input-only overload: with gcc 12 -O2 the read-write overload on
    // ev.time_s miscompiled, scheduling a successor before the clock.
    benchmark::DoNotOptimize(queue.pop(ev));
    if (in_order) {
      last += kSlotS;
      queue.schedule(last, ev.node, 0);
    } else {
      const double step = ev.kind == 0 ? backoff[k++ & 4095]
                                       : refire[k++ & 4095];
      queue.schedule(ev.time_s + step, ev.node, ev.kind);
    }
  }
  state.SetItemsProcessed(state.iterations());
  const double ops = static_cast<double>(
      std::max<benchmark::IterationCount>(state.iterations(), 1));
  state.counters["scan_per_op"] =
      static_cast<double>(queue.scan_steps() - scans) / ops;
  state.counters["cursor_per_op"] =
      static_cast<double>(queue.cursor_steps() - cursor) / ops;
}
BENCHMARK(BM_EventQueueHold)->Arg(0)->Arg(1);

// Shared-medium carrier sense on the 10k-tag 2 m star placement with
// Arg() tags on the air at the backscatter interferer level (the dense
// CSMA star runs ~31). Each iteration is one CCA at the next of 4096
// pseudo-random listening tags against the braidio -60 dBm threshold.
class StarMedium {
 public:
  explicit StarMedium(std::size_t active)
      : topo_(make_topology()), medium_(net::MediumConfig{}, topo_.positions) {
    const net::NetConfig defaults;
    const double reflected_dbm =
        defaults.medium.tx_power_dbm - defaults.backscatter_loss_db;
    const std::size_t tags = topo_.size() - 1;
    for (std::size_t k = 0; k < active; ++k) {
      const auto tx = static_cast<std::uint32_t>(1 + k * tags / active);
      medium_.begin(tx, 0, 1.0, reflected_dbm);
    }
    util::Rng rng(7);
    listeners_.resize(4096);
    for (auto& n : listeners_) {
      n = static_cast<std::uint32_t>(rng.uniform_int(1, tags));
    }
  }

  net::SharedMedium& medium() { return medium_; }
  std::uint32_t listener(std::size_t i) const {
    return listeners_[i % listeners_.size()];
  }

  static constexpr double kThresholdDbm = -60.0;

 private:
  static net::Topology make_topology() {
    net::TopologyConfig config;
    config.nodes = 10000;
    config.extent_m = 2.0;
    util::Rng rng(1);
    return net::build_topology(config, rng);
  }

  net::Topology topo_;
  net::SharedMedium medium_;
  std::vector<std::uint32_t> listeners_;
};

// The exact path: one pow per active transmitter, then the dBm compare.
void BM_MediumAmbient(benchmark::State& state) {
  StarMedium star(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint32_t n = star.listener(i++);
    benchmark::DoNotOptimize(star.medium().ambient_dbm(n, n) <
                             StarMedium::kThresholdDbm);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumAmbient)->Arg(8)->Arg(32)->Arg(64);

// The bounded verdict NetworkSimulator::sense_clear uses; exact_share is
// the fraction of verdicts that still needed the exact sum.
void BM_MediumCcaVerdict(benchmark::State& state) {
  StarMedium star(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint32_t n = star.listener(i++);
    benchmark::DoNotOptimize(
        star.medium().ambient_below(n, n, StarMedium::kThresholdDbm));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["exact_share"] =
      static_cast<double>(star.medium().cca_exact_fallbacks()) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
}
BENCHMARK(BM_MediumCcaVerdict)->Arg(8)->Arg(32)->Arg(64);

}  // namespace
