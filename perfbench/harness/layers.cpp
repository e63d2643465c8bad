#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/lifetime_sim.hpp"
#include "core/offload.hpp"
#include "core/regimes.hpp"
#include "energy/device_catalog.hpp"
#include "energy/ledger.hpp"
#include "mac/crc.hpp"
#include "mac/frame.hpp"
#include "mac/packet_channel.hpp"
#include "net/event_queue.hpp"
#include "net/medium.hpp"
#include "net/network_sim.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace bn = braidio::net;
namespace hal = braidio::hal;
using braidio::util::Rng;

namespace {

// Stream indices for the drivers' own inputs, clear of the node streams.
constexpr std::uint64_t kDriverStream = 0xbe9c0000ull;

/// Median over `reps` timings of `body`, divided by `ops` [ns per op].
double per_op_ns(std::size_t ops, int reps, const std::function<double()>& body) {
  std::vector<double> samples;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    sink += body();
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  // Keep the bodies' results observable so they are not optimized away.
  volatile double keep = sink;
  (void)keep;
  return median(samples);
}

template <typename Fn>
double median_seconds(int reps, Fn&& body) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    body();
    samples.push_back(seconds_since(t0));
  }
  return median(samples);
}

struct LinkShape {
  std::uint32_t tx = 0;
  std::uint32_t rx = 0;
  hal::OperatingPoint point;
  double distance_m = 0.0;
  double interferer_dbm = 0.0;
};

/// One finished network run: the counts, the placement, the uplinks.
struct NetShape {
  bn::NetConfig cfg;
  bn::NetStats stats;
  std::vector<bn::Vec2> positions;
  std::vector<LinkShape> links;
  double mean_airtime_s = 0.0;
  double ctor_s = 0.0;
  double run_s = 0.0;
};

NetShape measure_net(const bn::NetConfig& cfg, int reps) {
  NetShape shape;
  shape.cfg = cfg;
  std::vector<double> ctor, run;
  for (int r = 0; r < reps; ++r) {
    Clock::time_point t0 = Clock::now();
    bn::NetworkSimulator sim(cfg);
    ctor.push_back(seconds_since(t0));
    t0 = Clock::now();
    shape.stats = sim.run();
    run.push_back(seconds_since(t0));
    if (r + 1 < reps) continue;
    const bn::Topology& topo = sim.topology();
    shape.positions = topo.positions;
    double airtime = 0.0;
    for (std::uint32_t i = 1; i < topo.size(); ++i) {
      const auto point = sim.link_point(i);
      if (!point) continue;
      const std::uint32_t rx = topo.next_hop[i];
      const double loss = point->mode == hal::LinkMode::Backscatter
                              ? cfg.backscatter_loss_db
                              : 0.0;
      shape.links.push_back({i, rx, *point,
                             bn::distance_m(topo.positions[i],
                                            topo.positions[rx]),
                             cfg.medium.tx_power_dbm - loss});
      airtime += sim.data_airtime_s(i);
    }
    if (!shape.links.empty()) {
      shape.mean_airtime_s = airtime / static_cast<double>(shape.links.size());
    }
  }
  shape.ctor_s = median(ctor);
  shape.run_s = median(run);
  return shape;
}

/// Hold model at the workload's peak depth: pop the earliest event and
/// schedule one a (depth x mean gap) exponential step later.
double queue_op_ns(std::size_t depth, double gap_s, std::uint64_t seed) {
  depth = std::max<std::size_t>(depth, 1);
  const std::size_t ops = 200000;
  Rng rng = Rng::stream(seed, kDriverStream + 1);
  const double horizon = static_cast<double>(depth) * std::max(gap_s, 1e-9);
  std::vector<double> prefill(depth), step(ops);
  for (double& t : prefill) t = rng.uniform(0.0, horizon);
  for (double& s : step) s = rng.exponential(horizon);
  return per_op_ns(ops, 3, [&] {
    bn::EventQueue queue;
    for (std::size_t i = 0; i < depth; ++i) {
      queue.schedule(prefill[i], static_cast<std::uint32_t>(i), 0);
    }
    bn::Event ev;
    double sum = 0.0;
    for (std::size_t k = 0; k < ops; ++k) {
      queue.pop(ev);
      sum += ev.time_s;
      queue.schedule(ev.time_s + step[k], ev.node, 0);
    }
    return sum;
  });
}

struct MediumCost {
  double penalty_ns = 0.0;
  double ambient_ns = 0.0;
};

/// `active` of the workload's uplinks on the air at its own positions,
/// queried at pseudo-random receivers.
MediumCost medium_cost(const NetShape& shape, std::size_t active,
                       std::uint64_t seed) {
  MediumCost cost;
  if (shape.links.empty()) return cost;
  active = std::clamp<std::size_t>(active, 1, shape.links.size());
  bn::SharedMedium medium(shape.cfg.medium, shape.positions);
  const std::size_t stride = shape.links.size() / active;
  for (std::size_t k = 0; k < active; ++k) {
    const LinkShape& l = shape.links[k * stride];
    medium.begin(l.tx, l.rx, 1e9, l.interferer_dbm);
  }
  const std::uint32_t own = shape.links.front().tx;
  const std::size_t ops = 50000;
  Rng rng = Rng::stream(seed, kDriverStream + 2);
  std::vector<std::uint32_t> at(ops);
  for (auto& n : at) {
    n = static_cast<std::uint32_t>(
        rng.uniform_int(0, shape.positions.size() - 1));
  }
  cost.penalty_ns = per_op_ns(ops, 3, [&] {
    double sum = 0.0;
    for (const std::uint32_t n : at) sum += medium.interference_penalty_db(n, own);
    return sum;
  });
  cost.ambient_ns = per_op_ns(ops, 3, [&] {
    double sum = 0.0;
    for (const std::uint32_t n : at) sum += medium.ambient_dbm(n, n);
    return sum;
  });
  return cost;
}

struct ChannelPoint {
  hal::OperatingPoint point;
  double distance_m = 0.0;
  bool block_fading = false;
};

double ber_ns(const hal::ChannelModel& channel,
              const std::vector<ChannelPoint>& points) {
  const std::size_t ops = 100000;
  return per_op_ns(ops, 3, [&] {
    double sum = 0.0;
    for (std::size_t k = 0; k < ops; ++k) {
      const ChannelPoint& p = points[k % points.size()];
      sum += channel.ber(p.point.mode, p.point.rate, p.distance_m);
    }
    return sum;
  });
}

double transmit_ns(const hal::ChannelModel& channel,
                   const std::vector<ChannelPoint>& points,
                   std::size_t payload_bytes, std::uint64_t seed) {
  braidio::mac::Frame frame;
  frame.payload.assign(payload_bytes, 0xa5);
  // Each transmit draws per bit, so the budget is split across points.
  const std::size_t per_point = std::max<std::size_t>(12000 / points.size(), 1);
  const std::size_t ops = per_point * points.size();
  return per_op_ns(ops, 3, [&] {
    double delivered = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const ChannelPoint& p = points[i];
      braidio::mac::PacketChannelConfig cfg;
      cfg.distance_m = p.distance_m;
      cfg.block_fading = p.block_fading;
      braidio::mac::PacketChannel link(channel, cfg,
                                       Rng::stream(seed, kDriverStream + 3 + i));
      for (std::size_t k = 0; k < per_point; ++k) {
        if (link.transmit(frame, p.point.mode, p.point.rate)) delivered += 1.0;
      }
    }
    return delivered;
  });
}

double ledger_charge_ns() {
  using braidio::energy::EnergyCategory;
  const EnergyCategory categories[] = {
      EnergyCategory::CarrierGeneration, EnergyCategory::ActiveTx,
      EnergyCategory::ActiveRx,          EnergyCategory::PassiveRx,
      EnergyCategory::BackscatterTx,     EnergyCategory::ModeSwitch,
      EnergyCategory::Mcu,               EnergyCategory::Idle};
  const std::size_t ops = 200000;
  return per_op_ns(ops, 3, [&] {
    braidio::energy::EnergyLedger ledger;
    for (std::size_t k = 0; k < ops; ++k) {
      ledger.charge(categories[k % 8], braidio::util::Joules(1e-9),
                    braidio::util::Seconds(static_cast<double>(k) * 1e-6));
    }
    return ledger.total_joules();
  });
}

double crc16_ns(std::size_t payload_bytes) {
  braidio::mac::Frame frame;
  frame.payload.assign(payload_bytes, 0x3c);
  const std::vector<std::uint8_t> wire = braidio::mac::serialize(frame);
  const std::size_t ops = 200000;
  return per_op_ns(ops, 3, [&] {
    double sum = 0.0;
    for (std::size_t k = 0; k < ops; ++k) {
      sum += braidio::mac::crc16(wire);
    }
    return sum;
  });
}

double rng_stream_ns(std::uint64_t seed) {
  const std::size_t ops = 4096;
  return per_op_ns(ops, 3, [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < ops; ++i) sum += Rng::stream(seed, i).uniform();
    return sum;
  });
}

}  // namespace

void run_layer_drivers(const WorkloadSpec& spec,
                       const hal::RadioBackend& backend, std::uint64_t seed,
                       const LayerInputs& in, SpanRecorder& spans,
                       MetricList& out) {
  // Counters the drivers post land here, as they do in a sweep point,
  // rather than in the mutex-guarded process-global registry.
  braidio::obs::MetricsRegistry registry;
  braidio::obs::ScopedMetrics scoped(&registry);
  const bool is_net = spec.kind == Kind::Net;
  const ReplicaResult& sample = *in.sample;
  auto share = [&](double ns_per_op, double ops) {
    return in.run_s > 0.0 ? ns_per_op * 1e-9 * ops / in.run_s : 0.0;
  };

  // util: per-node stream construction plus one draw.
  {
    ScopedSpan span(spans, "layer.util.rng");
    out.emplace_back("util.rng.stream_ns", rng_stream_ns(seed));
  }

  // net: the workload's own network; pair_braid (which never calls
  // net/) measures a one-tag star at its first session's distance.
  bn::NetConfig net_cfg = spec.net;
  net_cfg.backend = &backend;
  net_cfg.seed = Rng::stream_seed(seed, 0);
  if (!is_net) {
    net_cfg.topology.kind = bn::TopologyKind::Star;
    net_cfg.topology.nodes = 1;
    net_cfg.topology.extent_m = spec.sessions.front().distance_m;
    net_cfg.payload_bytes = spec.pair_payload_bytes;
  }
  NetShape shape;
  {
    ScopedSpan span(spans, "layer.net.shape");
    shape = measure_net(net_cfg, is_net ? 1 : 15);
  }
  {
    ScopedSpan span(spans, "layer.net.topology");
    Rng topo_rng = Rng::stream(net_cfg.seed, net_cfg.topology.nodes + 1);
    out.emplace_back("net.topology.build_s", median_seconds(5, [&] {
                       Rng rng = topo_rng;
                       (void)bn::build_topology(net_cfg.topology, rng);
                     }));
  }
  out.emplace_back("net.sim.ctor_s", is_net ? in.setup_s : shape.ctor_s);
  out.emplace_back("net.sim.run_s", is_net ? in.run_s : shape.run_s);

  const bn::NetStats& ns = shape.stats;
  const double events = static_cast<double>(std::max<std::uint64_t>(ns.events, 1));
  const double gap_s = ns.elapsed_s / events;
  {
    ScopedSpan span(spans, "layer.net.queue");
    const double op = queue_op_ns(ns.sched_peak_depth, gap_s, seed);
    out.emplace_back("net.queue.op_ns", op);
    out.emplace_back("net.queue.share", is_net ? share(op, in.events) : 0.0);
  }
  out.emplace_back("net.queue.scan_steps_per_event",
                   static_cast<double>(ns.sched_scan_steps) / events);
  out.emplace_back("net.queue.retunes", static_cast<double>(ns.sched_retunes));
  out.emplace_back("net.queue.grows", static_cast<double>(ns.sched_grows));
  out.emplace_back("net.queue.peak_depth",
                   static_cast<double>(ns.sched_peak_depth));

  const double mean_active =
      ns.elapsed_s > 0.0 ? static_cast<double>(ns.tx_attempts) *
                               shape.mean_airtime_s / ns.elapsed_s
                         : 0.0;
  out.emplace_back("net.medium.mean_active", mean_active);
  {
    ScopedSpan span(spans, "layer.net.medium");
    const MediumCost cost = medium_cost(
        shape, static_cast<std::size_t>(std::lround(mean_active)), seed);
    out.emplace_back("net.medium.query_ns", cost.penalty_ns + cost.ambient_ns);
    // Per attempt: the penalty is sampled at airtime start and end; a
    // CSMA attempt also samples ambient power once for CCA.
    const double csma = spec.net.mac == bn::MacKind::Csma ? 1.0 : 0.0;
    const double per_attempt = 2.0 * cost.penalty_ns + csma * cost.ambient_ns;
    out.emplace_back("net.medium.share",
                     is_net ? share(per_attempt,
                                    static_cast<double>(sample.net.tx_attempts))
                            : 0.0);
  }

  const double generated = static_cast<double>(std::max<std::uint64_t>(ns.generated, 1));
  out.emplace_back("net.mac.attempts_per_delivered",
                   static_cast<double>(ns.tx_attempts) /
                       static_cast<double>(std::max<std::uint64_t>(ns.delivered, 1)));
  const double access = static_cast<double>(ns.tx_attempts + ns.csma_failures);
  out.emplace_back("net.mac.access_fail_ratio",
                   access > 0.0 ? static_cast<double>(ns.csma_failures) / access : 0.0);
  out.emplace_back("net.arq.drop_ratio", static_cast<double>(ns.arq_drops) / generated);
  out.emplace_back("net.relay.forwarded_per_generated",
                   static_cast<double>(ns.forwarded) / generated);
  out.emplace_back("net.tdma.rounds", static_cast<double>(ns.mac.rounds));
  out.emplace_back("net.tdma.slots_reclaimed",
                   static_cast<double>(ns.mac.slots_reclaimed));

  // Operating points the workload actually uses: the net uplinks, or the
  // pair's best-rate candidates at each session distance.
  std::vector<ChannelPoint> points;
  if (is_net) {
    const std::size_t stride = std::max<std::size_t>(shape.links.size() / 64, 1);
    for (std::size_t i = 0; i < shape.links.size(); i += stride) {
      points.push_back({shape.links[i].point, shape.links[i].distance_m, false});
    }
  } else {
    const braidio::core::RegimeMap regimes(backend);
    for (const PairSession& s : spec.sessions) {
      for (const auto& c : regimes.available_best_rate(s.distance_m)) {
        points.push_back({c, s.distance_m, s.block_fading});
      }
    }
  }
  const std::size_t payload = is_net ? spec.net.payload_bytes : spec.pair_payload_bytes;
  // Transmit calls per replica, in data-frame equivalents: pair
  // data/retx/control frames plus one ACK per delivered packet, weighted
  // by its wire bits (the channel draws per bit). The net simulator never
  // calls transmit.
  braidio::mac::Frame data_frame, ack_frame;
  data_frame.payload.assign(payload, 0);
  ack_frame.type = braidio::mac::FrameType::Ack;
  const double ack_weight = static_cast<double>(ack_frame.wire_bits()) /
                            static_cast<double>(data_frame.wire_bits());
  const double transmits =
      is_net ? 0.0
             : static_cast<double>(sample.events) + ack_weight * sample.delivered;
  {
    ScopedSpan span(spans, "layer.hal.channel");
    const double op = points.empty() ? 0.0 : ber_ns(backend.channel(), points);
    out.emplace_back("hal.channel.ber_ns", op);
    // One BER evaluation per net attempt; one per pair transmit.
    out.emplace_back("hal.channel.share",
                     share(op, is_net ? static_cast<double>(sample.net.tx_attempts)
                                      : transmits));
  }
  {
    ScopedSpan span(spans, "layer.energy.ledger");
    const double op = ledger_charge_ns();
    out.emplace_back("energy.ledger.charge_ns", op);
    out.emplace_back("energy.ledger.posts_per_event",
                     in.events > 0.0 ? in.energy_posts / in.events : 0.0);
    out.emplace_back("energy.ledger.share", share(op, in.energy_posts));
  }
  {
    ScopedSpan span(spans, "layer.mac.channel");
    const double op = points.empty() ? 0.0
                                     : transmit_ns(backend.channel(), points,
                                                   payload, seed);
    out.emplace_back("mac.channel.transmit_ns", op);
    out.emplace_back("mac.channel.share", share(op, transmits));
    out.emplace_back("mac.crc16_ns", crc16_ns(payload));
  }
  out.emplace_back("mac.arq.retx_ratio",
                   sample.offered > 0.0 && !is_net
                       ? static_cast<double>(sample.retransmissions) / sample.offered
                       : 0.0);
  out.emplace_back("core.braid.replans", static_cast<double>(sample.replans));
  out.emplace_back("core.braid.fallbacks", static_cast<double>(sample.fallbacks));

  // core: the fluid Fig. 15 matrix every workload evaluates.
  {
    ScopedSpan span(spans, "layer.core");
    out.emplace_back("core.regimes.build_s", median_seconds(21, [&] {
                       const braidio::core::RegimeMap regimes(backend);
                       (void)regimes;
                     }));
    const auto& catalog = braidio::energy::device_catalog();
    const braidio::core::RegimeMap regimes(backend);
    const auto candidates = regimes.available(0.5);
    const std::size_t pairs = catalog.size() * catalog.size();
    out.emplace_back("core.offload.plan_ns", per_op_ns(pairs * 20, 3, [&] {
                       double sum = 0.0;
                       for (int rep = 0; rep < 20; ++rep) {
                         for (const auto& tx : catalog) {
                           for (const auto& rx : catalog) {
                             sum += braidio::core::OffloadPlanner::plan(
                                        candidates, tx.battery_wh * 3600.0,
                                        rx.battery_wh * 3600.0)
                                        .tx_joules_per_bit;
                           }
                         }
                       }
                       return sum;
                     }));
    const braidio::core::LifetimeSimulator lifetime(backend);
    braidio::core::LifetimeConfig cfg;
    cfg.distance_m = 0.5;
    out.emplace_back("core.lifetime.point_ns", per_op_ns(pairs, 3, [&] {
                       double sum = 0.0;
                       for (const auto& tx : catalog) {
                         for (const auto& rx : catalog) {
                           sum += lifetime.gain_vs_bluetooth(tx, rx, cfg);
                         }
                       }
                       return sum;
                     }));
  }
}

}  // namespace perfbench
