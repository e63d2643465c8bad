#include "net/netstats.hpp"

#include <algorithm>
#include <sstream>

#include "util/contract.hpp"
#include "util/json.hpp"

namespace braidio::net {

const char* to_string(NodeCounter counter) {
  switch (counter) {
    case NodeCounter::TxAttempts: return "tx_attempts";
    case NodeCounter::CcaBusy: return "cca_busy";
    case NodeCounter::BackoffDraws: return "backoff_draws";
    case NodeCounter::Collisions: return "collisions";
    case NodeCounter::FaultLosses: return "fault_losses";
    case NodeCounter::Delivered: return "delivered";
    case NodeCounter::Relayed: return "relayed";
    case NodeCounter::DropsAccess: return "drops_access";
    case NodeCounter::DropsArq: return "drops_arq";
    case NodeCounter::SlotRegistrations: return "slot_registrations";
    case NodeCounter::SlotsReclaimed: return "slots_reclaimed";
    case NodeCounter::HopAcked: return "hop_acked";
    case NodeCounter::HopDataLost: return "hop_data_lost";
    case NodeCounter::HopAckLost: return "hop_ack_lost";
  }
  return "?";
}

void SchedulerSeries::sample(double sim_s, std::uint64_t depth,
                             std::uint64_t retune_delta,
                             std::uint64_t scan_delta) {
  BRAIDIO_REQUIRE(bucket_s > 0.0, "bucket_s", bucket_s);
  const auto index = static_cast<std::size_t>(sim_s / bucket_s);
  if (index >= kMaxBuckets) {
    ++skipped;
    return;
  }
  if (index >= events.size()) {
    events.resize(index + 1, 0);
    peak_depth.resize(index + 1, 0);
    retunes.resize(index + 1, 0);
    scan_steps.resize(index + 1, 0);
  }
  ++events[index];
  peak_depth[index] = std::max(peak_depth[index], depth);
  retunes[index] += retune_delta;
  scan_steps[index] += scan_delta;
}

void SchedulerSeries::merge(const SchedulerSeries& other) {
  BRAIDIO_REQUIRE(bucket_s == other.bucket_s, "bucket_s", bucket_s,
                  "other", other.bucket_s);
  if (other.events.size() > events.size()) {
    events.resize(other.events.size(), 0);
    peak_depth.resize(other.events.size(), 0);
    retunes.resize(other.events.size(), 0);
    scan_steps.resize(other.events.size(), 0);
  }
  for (std::size_t i = 0; i < other.events.size(); ++i) {
    events[i] += other.events[i];
    peak_depth[i] = std::max(peak_depth[i], other.peak_depth[i]);
    retunes[i] += other.retunes[i];
    scan_steps[i] += other.scan_steps[i];
  }
  skipped += other.skipped;
}

void NetFlightRecord::arm(const Topology& topo, double sched_bucket_s) {
#if BRAIDIO_OBS_COMPILED
  BRAIDIO_REQUIRE(sched_bucket_s > 0.0, "sched_bucket_s", sched_bucket_s);
  enabled = true;
  links = topo.next_hop;
  latency = obs::HistogramData(
      obs::bucket_bounds(obs::Histogram::NetLatencySeconds));
  sched = SchedulerSeries{};
  sched.bucket_s = sched_bucket_s;
#else
  (void)topo;
  (void)sched_bucket_s;
#endif
}

void NetFlightRecord::merge(const NetFlightRecord& other) {
  if (!other.enabled) return;
  if (!enabled) {
    *this = other;
    return;
  }
  BRAIDIO_REQUIRE(nodes.size() == other.nodes.size(), "nodes",
                  nodes.size(), "other", other.nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    BRAIDIO_REQUIRE(links[i] == other.links[i], "node", i, "dst", links[i],
                    "other", other.links[i]);
    nodes[i].add(other.nodes[i]);
  }
  latency.merge(other.latency);
  sched.merge(other.sched);
  events += other.events;
  sched_retunes += other.sched_retunes;
  sched_grows += other.sched_grows;
  sched_peak_depth = std::max(sched_peak_depth, other.sched_peak_depth);
  sched_scan_steps += other.sched_scan_steps;
  sched_buckets = std::max(sched_buckets, other.sched_buckets);
  sched_width_s = std::max(sched_width_s, other.sched_width_s);
  elapsed_s = std::max(elapsed_s, other.elapsed_s);
}

namespace {

std::vector<std::uint64_t> column(const std::vector<NodeCounterBlock>& nodes,
                                  NodeCounter counter) {
  std::vector<std::uint64_t> values(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    values[i] = nodes[i].value(counter);
  }
  return values;
}

/// kNoRoute renders as -1: stranded nodes have no uplink.
std::int64_t dst_id(std::uint32_t dst) {
  return dst == kNoRoute ? -1 : static_cast<std::int64_t>(dst);
}

/// The links matrix columns: attempts, then the three hop outcomes.
struct LinkColumn {
  const char* key;
  NodeCounter counter;
};
constexpr LinkColumn kLinkColumns[] = {
    {"attempts", NodeCounter::TxAttempts},
    {"acked", NodeCounter::HopAcked},
    {"data_lost", NodeCounter::HopDataLost},
    {"ack_lost", NodeCounter::HopAckLost}};

}  // namespace

std::string NetFlightRecord::to_json() const {
  util::json::Writer w;
  w.begin_object().key("schema").value("braidio-netstats/v1");
  w.key("enabled").value(enabled).key("nodes").value(nodes.size());
  w.key("events").value(events).key("elapsed_s").fixed(elapsed_s, 6);

  w.key("node_counters").begin_object();
  for (std::size_t c = 0; c < kNodeColumnCount; ++c) {
    const auto counter = static_cast<NodeCounter>(c);
    w.key(to_string(counter)).array(column(nodes, counter));
  }
  w.end_object().key("links").begin_object().key("dst").begin_array();
  for (const std::uint32_t dst : links) w.value(dst_id(dst));
  w.end_array();
  for (const LinkColumn& link : kLinkColumns) {
    w.key(link.key).array(column(nodes, link.counter));
  }
  w.end_object();

  w.key("latency").begin_object().key("count").value(latency.count());
  w.key("sum_s").fixed(latency.sum(), 9).key("min_s").fixed(latency.min(), 9);
  w.key("max_s").fixed(latency.max(), 9).key("p50_s").fixed(latency.p50(), 9);
  w.key("p95_s").fixed(latency.p95(), 9).key("p99_s").fixed(latency.p99(), 9);
  w.key("bounds_s").begin_array();
  for (const double bound : latency.bounds()) w.fixed(bound, 6);
  w.end_array().key("buckets").begin_array();
  for (std::size_t i = 0; i < latency.bucket_count(); ++i) {
    w.value(latency.bucket(i));
  }
  w.end_array().end_object();

  w.key("scheduler").begin_object();
  w.key("retunes").value(sched_retunes).key("grows").value(sched_grows);
  w.key("peak_depth").value(sched_peak_depth);
  w.key("scan_steps").value(sched_scan_steps);
  w.key("buckets").value(sched_buckets);
  w.key("width_s").fixed(sched_width_s, 9);
  w.key("series_bucket_s").fixed(sched.bucket_s, 6);
  w.key("series_skipped").value(sched.skipped);
  w.key("series_events").array(sched.events);
  w.key("series_peak_depth").array(sched.peak_depth);
  w.key("series_retunes").array(sched.retunes);
  w.key("series_scan_steps").array(sched.scan_steps);
  return w.end_object().end_object().str();
}

std::string NetFlightRecord::to_csv() const {
  std::ostringstream os;
  os << "node,dst";
  for (std::size_t c = 0; c < kNodeColumnCount; ++c) {
    os << ',' << to_string(static_cast<NodeCounter>(c));
  }
  for (const LinkColumn& link : kLinkColumns) os << ",link_" << link.key;
  os << '\n';
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    os << i << ',' << dst_id(links[i]);
    for (std::size_t c = 0; c < kNodeColumnCount; ++c) {
      os << ',' << nodes[i].values[c];
    }
    for (const LinkColumn& link : kLinkColumns) {
      os << ',' << nodes[i].value(link.counter);
    }
    os << '\n';
  }
  return os.str();
}

std::string NetFlightRecord::sched_chrome_counters() const {
  util::json::Writer w;
  w.begin_object().key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < sched.events.size(); ++i) {
    const double t_us = static_cast<double>(i) * sched.bucket_s * 1e6;
    w.begin_object().key("name").value("net.sched").key("ph").value("C");
    w.key("ts").fixed(t_us, 3).key("pid").value(1).key("tid").value(0);
    w.key("args").begin_object().key("events").value(sched.events[i]);
    w.key("peak_depth").value(sched.peak_depth[i]);
    w.key("retunes").value(sched.retunes[i]);
    w.key("scan_steps").value(sched.scan_steps[i]).end_object().end_object();
  }
  return w.end_array().end_object().str();
}

}  // namespace braidio::net
