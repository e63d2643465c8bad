// Network counter plane and flight recorder for src/net/.
//
// Counters (DESIGN.md §17): every Node holds one NodeCounterBlock, a flat
// index-addressed array with one slot per NodeCounter. It is always on —
// a post is one array bump, no string hashing (analyzer rule A7) — and it
// is the only counter the event loop writes. NetStats, the TDMA totals
// and the obs builtin counters are derived from index-ordered block sums
// at the end of the run.
//
// The flight recorder adds what the blocks do not hold:
//   * a copy of the blocks, plus each node's uplink next hop, so the
//     per-link delivery/loss matrix renders from the hop-outcome
//     counters (every node has exactly one uplink toward the hub);
//   * end-to-end latency;
//   * scheduler series — time-bucketed calendar-queue depth, events,
//     width re-tunes, and insert scan cost, exported in the same
//     Chrome counter-track shape as the energy power tracks.
//
// A NetFlightRecord is a plain value owned by one simulator run.
// merge() is element-wise and associative-in-order: SweepRunner-style
// callers collect one record per sweep point and fold them in
// flat-index order, which makes the merged record byte-identical for
// any thread count. The record is inert (enabled == false, empty) unless
// arm() ran, and arm() itself is a no-op when the BRAIDIO_OBS
// compile-time switch is off.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_config.hpp"

namespace braidio::net {

/// Per-node counter taxonomy. Closed and index-addressed: hot-path
/// posts are one array increment, never a named-metric lookup.
enum class NodeCounter : std::uint8_t {
  TxAttempts,         // physical transmissions started
  CcaBusy,            // CCA windows that sampled the medium busy
  BackoffDraws,       // CSMA backoff delays drawn
  Collisions,         // attempts lost with interference present
  FaultLosses,        // attempts lost under an active dropout fault
  Delivered,          // originated frames that reached the hub
  Relayed,            // frames this node forwarded one hop onward
  DropsAccess,        // frames dropped: channel-access budget exhausted
  DropsArq,           // frames dropped: retry budget exhausted
  SlotRegistrations,  // TDMA registration exchanges completed
  SlotsReclaimed,     // TDMA slots reclaimed from this node
  // Uplink hop outcomes, one per resolved transmission on the sender's
  // row: they render as the links matrix, not as node counter columns.
  HopAcked,     // hop completed (data and ACK survived)
  HopDataLost,  // data leg corrupted or unheard
  HopAckLost,   // data survived, ACK leg lost
};

inline constexpr std::size_t kNodeCounterCount = 14;
/// Counters before HopAcked are the per-node columns of the exports.
inline constexpr std::size_t kNodeColumnCount =
    static_cast<std::size_t>(NodeCounter::HopAcked);

/// Snake-case counter name (JSON key / CSV column).
const char* to_string(NodeCounter counter);

/// One node's flat counter block. POD-sized, zero-initialized.
struct NodeCounterBlock {
  std::array<std::uint64_t, kNodeCounterCount> values{};

  void bump(NodeCounter counter) {
    ++values[static_cast<std::size_t>(counter)];
  }
  std::uint64_t value(NodeCounter counter) const {
    return values[static_cast<std::size_t>(counter)];
  }
  void add(const NodeCounterBlock& other) {
    for (std::size_t c = 0; c < kNodeCounterCount; ++c) {
      values[c] += other.values[c];
    }
  }
};

/// Time-bucketed scheduler telemetry sampled once per popped event.
/// Buckets are capped; samples past the cap land in `skipped` so the
/// accounting identity sum(events) + skipped == pops always holds.
struct SchedulerSeries {
  static constexpr std::size_t kMaxBuckets = 1u << 16;

  double bucket_s = 0.25;
  std::vector<std::uint64_t> events;      // pops per bucket
  std::vector<std::uint64_t> peak_depth;  // max queue size seen
  std::vector<std::uint64_t> retunes;     // width re-tunes per bucket
  std::vector<std::uint64_t> scan_steps;  // insert scan steps per bucket
  std::uint64_t skipped = 0;              // samples past kMaxBuckets

  void sample(double sim_s, std::uint64_t depth, std::uint64_t retune_delta,
              std::uint64_t scan_delta);
  /// Element-wise fold; bucket widths must match. peak_depth takes the
  /// per-bucket max, everything else adds.
  void merge(const SchedulerSeries& other);
};

/// The full flight record for one simulator run (or a merged sweep).
struct NetFlightRecord {
  bool enabled = false;
  // Per-node blocks, copied from the nodes at the end of the run, and
  // each node's uplink next hop (kNoRoute when stranded). Together they
  // are the links matrix: a row's attempts are the sender's TxAttempts,
  // and each attempt resolves to exactly one Hop* outcome.
  std::vector<NodeCounterBlock> nodes;
  std::vector<std::uint32_t> links;
  obs::HistogramData latency;  // end-to-end origin->hub seconds
  SchedulerSeries sched;

  // End-of-run scheduler summary (always cheap to collect; also echoed
  // into NetStats so benches can export it without the record).
  std::uint64_t events = 0;            // queue pops
  std::uint64_t sched_retunes = 0;     // bucket-width re-tunes
  std::uint64_t sched_grows = 0;       // bucket-array doublings
  std::uint64_t sched_peak_depth = 0;  // max simultaneous events
  std::uint64_t sched_scan_steps = 0;  // cumulative insert scan steps
  std::uint64_t sched_buckets = 0;     // calendar buckets at end of run
  double sched_width_s = 0.0;          // bucket width at end of run
  double elapsed_s = 0.0;              // simulated span covered

  /// Take `topo`'s uplinks and mark the record live. No-op (record
  /// stays disabled) when BRAIDIO_OBS is compiled out.
  void arm(const Topology& topo, double sched_bucket_s);

  void note_delivery(double latency_s) {
    if (!enabled) return;
    latency.record(latency_s);
  }

  /// Fold another run's record in (node counts and uplinks must match).
  void merge(const NetFlightRecord& other);

  /// Deterministic JSON document (schema "braidio-netstats/v1").
  std::string to_json() const;
  /// Per-node CSV: one row per node with counters + uplink columns.
  std::string to_csv() const;
  /// Scheduler series as a Chrome trace of "ph":"C" counter tracks —
  /// the same shape the energy power-track export uses.
  std::string sched_chrome_counters() const;
};

}  // namespace braidio::net
