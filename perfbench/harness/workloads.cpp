#include "workloads.hpp"

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>

#include "core/braided_link.hpp"
#include "core/lifetime_sim.hpp"
#include "core/regimes.hpp"
#include "energy/device_catalog.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace bn = braidio::net;

namespace {

// Why these four: star_csma is the heaviest user of the event queue and
// of per-node setup; star_tdma drives the same queue with at most one
// transmitter on the air, the control for any medium change; mesh_csma is
// the one workload where SharedMedium dominates and the only multi-hop
// relay; pair_braid bypasses net/ for the pair-link stack (PacketChannel,
// BraidedLink) and the fluid LifetimeSimulator/OffloadPlanner grid.
std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec star;
  star.name = "star_csma";
  star.kind = Kind::Net;
  star.net.topology.kind = bn::TopologyKind::Star;
  star.net.topology.nodes = 10000;
  star.net.topology.extent_m = 2.0;
  star.net.mac = bn::MacKind::Csma;
  star.net.packets_per_node = 4;
  star.net.payload_bytes = 24;
  out.push_back(star);

  WorkloadSpec tdma = star;
  tdma.name = "star_tdma";
  tdma.net.mac = bn::MacKind::Tdma;
  out.push_back(tdma);

  WorkloadSpec mesh = star;
  mesh.name = "mesh_csma";
  mesh.net.topology.kind = bn::TopologyKind::RandomGeometric;
  mesh.net.topology.nodes = 2000;
  mesh.net.topology.extent_m = 20.0;
  mesh.net.topology.link_range_m = 3.0;
  out.push_back(mesh);

  WorkloadSpec pair;
  pair.name = "pair_braid";
  pair.kind = Kind::Pair;
  // Regimes A, B and C of the phone -> watch link, fading off and on.
  for (const double d : {0.4, 2.0, 4.0}) {
    for (const bool fading : {false, true}) pair.sessions.push_back({d, fading});
  }
  pair.pair_packets = 3000;
  pair.pair_payload_bytes = 32;
  out.push_back(pair);
  return out;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Fig. 15/17 device matrix at 0.5 m and the Fig. 18 distance ladder for
// three device pairs in both directions; every gain folded into a hash.
std::uint64_t fluid_grid_hash(const braidio::core::LifetimeSimulator& sim) {
  const auto& catalog = braidio::energy::device_catalog();
  std::uint64_t h = fnv1a("fluid");
  auto fold = [&h](double g) { h = fnv1a(bits_hex(g), h); };
  for (const bool bidirectional : {false, true}) {
    braidio::core::LifetimeConfig cfg;
    cfg.distance_m = 0.5;
    cfg.bidirectional = bidirectional;
    for (const auto& rx : catalog) {
      for (const auto& tx : catalog) fold(sim.gain_vs_bluetooth(tx, rx, cfg));
    }
  }
  const auto phone = *braidio::energy::find_device("iPhone 6S");
  const auto watch = *braidio::energy::find_device("Apple Watch");
  const auto laptop = *braidio::energy::find_device("Surface Book");
  const auto nexus = *braidio::energy::find_device("Nexus 6P");
  const auto band = *braidio::energy::find_device("Nike Fuel Band");
  const std::pair<const braidio::energy::DeviceSpec*,
                  const braidio::energy::DeviceSpec*>
      pairs[] = {{&phone, &watch}, {&watch, &phone}, {&laptop, &nexus},
                 {&nexus, &laptop}, {&phone, &band},  {&band, &phone}};
  for (int step = 1; step <= 20; ++step) {
    braidio::core::LifetimeConfig cfg;
    cfg.distance_m = 0.3 * step;
    for (const auto& [tx, rx] : pairs) fold(sim.gain_vs_bluetooth(*tx, *rx, cfg));
  }
  return h;
}

void run_net(const WorkloadSpec& spec, const braidio::hal::RadioBackend& backend,
             std::uint64_t seed, SpanRecorder& spans, ReplicaResult& out) {
  bn::NetConfig cfg = spec.net;
  cfg.backend = &backend;
  cfg.seed = seed;

  Clock::time_point t0 = Clock::now();
  std::unique_ptr<bn::NetworkSimulator> sim;
  {
    ScopedSpan span(spans, "setup");
    sim = std::make_unique<bn::NetworkSimulator>(cfg);
  }
  out.timing.setup_s = seconds_since(t0);

  t0 = Clock::now();
  {
    ScopedSpan span(spans, "run");
    out.net = sim->run();
  }
  out.timing.run_s = seconds_since(t0);

  t0 = Clock::now();
  {
    ScopedSpan span(spans, "export");
    const bn::NetStats& s = out.net;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "events=%" PRIu64 " generated=%" PRIu64
                  " delivered=%" PRIu64 " forwarded=%" PRIu64
                  " attempts=%" PRIu64 " total_joules=%s",
                  s.events, s.generated, s.delivered, s.forwarded,
                  s.tx_attempts, bits_hex(s.total_joules).c_str());
    out.digest = buf;
  }
  out.timing.export_s = seconds_since(t0);

  const bn::NetStats& s = out.net;
  out.events = s.events;
  out.offered = static_cast<double>(s.generated);
  out.delivered = static_cast<double>(s.delivered);
  out.payload_bits = s.delivered_payload_bits;
  out.joules = s.total_joules;

  // Exact energy conservation: the index-ordered sum of the per-node
  // ledgers is the reported total, bit for bit.
  double ledger_sum = 0.0;
  for (std::uint32_t i = 0; i < sim->topology().size(); ++i) {
    ledger_sum += sim->node(i).radio().ledger().total_joules();
  }
  if (std::bit_cast<std::uint64_t>(ledger_sum) !=
      std::bit_cast<std::uint64_t>(s.total_joules)) {
    out.error = "ledger sum " + fmt(ledger_sum) + " != total_joules " +
                fmt(s.total_joules);
  } else if (s.events == 0 || s.delivered > s.generated) {
    out.error = "implausible counts: " + out.digest;
  }
  // Keep the per-node vector out of the result; it is not needed past
  // the check and would multiply memory by the replica count.
  out.net.node_joules.clear();
  out.net.node_joules.shrink_to_fit();
}

void run_pair(const WorkloadSpec& spec,
              const braidio::hal::RadioBackend& backend, std::uint64_t seed,
              SpanRecorder& spans, ReplicaResult& out) {
  namespace core = braidio::core;
  std::string digest;
  std::unique_ptr<core::LifetimeSimulator> fluid;
  for (std::size_t s = 0; s < spec.sessions.size(); ++s) {
    const PairSession& session = spec.sessions[s];
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<core::RegimeMap> regimes;
    std::unique_ptr<braidio::hal::IRadio> phone, watch;
    std::unique_ptr<core::BraidedLink> link;
    std::unique_ptr<core::LifetimeSimulator> lifetime;
    {
      ScopedSpan span(spans, "setup");
      regimes = std::make_unique<core::RegimeMap>(backend);
      phone = backend.create_radio("phone", 1,
                                   braidio::util::WattHours(spec.phone_wh));
      watch = backend.create_radio("watch", 2,
                                   braidio::util::WattHours(spec.watch_wh));
      core::BraidedLinkConfig cfg;
      cfg.distance_m = session.distance_m;
      cfg.block_fading = session.block_fading;
      cfg.payload_bytes = spec.pair_payload_bytes;
      cfg.seed = braidio::util::Rng::stream_seed(seed, s);
      link = std::make_unique<core::BraidedLink>(*phone, *watch, *regimes, cfg);
      lifetime = std::make_unique<core::LifetimeSimulator>(backend);
    }
    out.timing.setup_s += seconds_since(t0);

    t0 = Clock::now();
    core::BraidedLinkStats st;
    {
      ScopedSpan span(spans, "run");
      st = link->run(spec.pair_packets);
    }
    out.timing.run_s += seconds_since(t0);

    const double joules = phone->ledger().total_joules() +
                          watch->ledger().total_joules();
    t0 = Clock::now();
    {
      ScopedSpan span(spans, "export");
      char buf[320];
      std::snprintf(
          buf, sizeof buf,
          "%sd=%g fading=%d offered=%" PRIu64 " delivered=%" PRIu64
          " dropped=%" PRIu64 " retx=%" PRIu64 " control=%" PRIu64
          " fallbacks=%" PRIu64 " replans=%" PRIu64 " bits=%s elapsed=%s "
          "joules=%s",
          s == 0 ? "" : "; ", session.distance_m,
          session.block_fading ? 1 : 0, st.data_packets_offered,
          st.data_packets_delivered, st.data_packets_dropped,
          st.retransmissions, st.control_frames, st.fallbacks, st.replans,
          bits_hex(st.payload_bits_delivered).c_str(),
          bits_hex(st.elapsed_s).c_str(), bits_hex(joules).c_str());
      digest += buf;
    }
    out.timing.export_s += seconds_since(t0);

    out.events +=
        st.data_packets_offered + st.retransmissions + st.control_frames;
    out.offered += static_cast<double>(st.data_packets_offered);
    out.delivered += static_cast<double>(st.data_packets_delivered);
    out.payload_bits += st.payload_bits_delivered;
    out.joules += joules;
    out.retransmissions += st.retransmissions;
    out.replans += st.replans;
    out.fallbacks += st.fallbacks;

    const double expected_bits = static_cast<double>(st.data_packets_delivered) *
                                 static_cast<double>(spec.pair_payload_bytes) *
                                 8.0;
    if (out.error.empty() &&
        (st.data_packets_offered > spec.pair_packets ||
         st.data_packets_delivered > st.data_packets_offered ||
         st.payload_bits_delivered != expected_bits ||
         !(joules > 0.0) || !std::isfinite(joules))) {
      out.error = "session " + std::to_string(s) + " implausible: " + digest;
    }
    if (s == 0) fluid = std::move(lifetime);
  }

  const Clock::time_point t0 = Clock::now();
  std::uint64_t grid = 0;
  {
    ScopedSpan span(spans, "fluid_grid");
    grid = fluid_grid_hash(*fluid);
  }
  out.timing.other_s = seconds_since(t0);
  char buf[48];
  std::snprintf(buf, sizeof buf, "; fluid=%016" PRIx64, grid);
  out.digest = digest + buf;
}

}  // namespace

std::string WorkloadSpec::describe() const {
  std::ostringstream os;
  os << "name=" << name << " replicas=" << replicas << " backend=braidio";
  if (kind == Kind::Net) {
    const bn::NetConfig& c = net;
    os << " topology=" << bn::to_string(c.topology.kind)
       << " nodes=" << c.topology.nodes << " extent_m=" << fmt(c.topology.extent_m)
       << " range_m=" << fmt(c.topology.link_range_m)
       << " mac=" << (c.mac == bn::MacKind::Tdma ? "tdma" : "csma")
       << " packets=" << c.packets_per_node << " payload=" << c.payload_bytes
       << " tag_wh=" << fmt(c.tag_battery_wh) << " hub_wh=" << fmt(c.hub_battery_wh)
       << " max_retx=" << c.max_retransmissions
       << " turnaround_s=" << fmt(c.turnaround_s)
       << " kick_spread_s=" << fmt(c.kick_spread_s)
       << " backscatter_loss_db=" << fmt(c.backscatter_loss_db)
       << " medium=" << fmt(c.medium.noise_floor_dbm) << "," << fmt(c.medium.tx_power_dbm)
       << "," << fmt(c.medium.ref_loss_db) << "," << fmt(c.medium.path_loss_exponent)
       << " csma=" << c.csma.min_be << "," << c.csma.max_be << ","
       << c.csma.max_backoffs << "," << fmt(c.csma.unit_backoff_s) << ","
       << fmt(c.csma.cca_window_s) << " tdma=" << fmt(c.tdma.guard_s) << ","
       << fmt(c.tdma.reg_guard_s) << "," << fmt(c.tdma.reg_retry_s) << ","
       << c.tdma.max_registration_attempts;
  } else {
    os << " packets=" << pair_packets << " payload=" << pair_payload_bytes
       << " phone_wh=" << fmt(phone_wh) << " watch_wh=" << fmt(watch_wh)
       << " sessions=";
    for (const PairSession& s : sessions) {
      os << fmt(s.distance_m) << (s.block_fading ? "f" : "c") << ",";
    }
    os << " fluid=fig15+fig17@0.5m,fig18@0.3..6m";
  }
  return os.str();
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : workloads()) names.push_back(w.name);
  return names;
}

ReplicaResult run_replica(const WorkloadSpec& spec,
                          const braidio::hal::RadioBackend& backend,
                          std::uint64_t replica_seed, SpanRecorder& spans,
                          int parent_span) {
  ReplicaResult out;
  ScopedSpan span(spans, "replica", parent_span);
  try {
    if (spec.kind == Kind::Net) {
      run_net(spec, backend, replica_seed, spans, out);
    } else {
      run_pair(spec, backend, replica_seed, spans, out);
    }
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
  }
  return out;
}

std::vector<double> fig15_column1(const braidio::hal::RadioBackend& backend) {
  const braidio::core::LifetimeSimulator sim(backend);
  braidio::core::LifetimeConfig cfg;
  cfg.distance_m = 0.5;
  const auto& catalog = braidio::energy::device_catalog();
  std::vector<double> gains;
  for (const auto& rx : catalog) {
    gains.push_back(sim.gain_vs_bluetooth(catalog.front(), rx, cfg));
  }
  return gains;
}

double paper_gain_err_pct(const std::vector<double>& gains) {
  static const std::vector<double> paper = {1.43, 2.37, 3.28, 5.96, 21.4,
                                            33.7, 42.3, 214,  236,  299};
  if (gains.size() != paper.size()) return 100.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < gains.size(); ++i) {
    sum += std::fabs(std::log(gains[i] / paper[i]));
  }
  return 100.0 * sum / static_cast<double>(gains.size());
}

std::string bits_hex(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64,
                std::bit_cast<std::uint64_t>(v));
  return buf;
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
