// Per-layer drivers: each layer is timed from outside, through its public
// API, with the workload's own shape (queue depth and gap, transmitter
// positions and count, operating points, payload).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "hal/backend.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using MetricList = std::vector<std::pair<std::string, double>>;

/// What the drivers need from the workload's timed replicas.
struct LayerInputs {
  double run_s = 0.0;          // median replica run phase [s]
  double setup_s = 0.0;        // median replica setup [s]
  double events = 0.0;         // mean events (pair: frames) per replica
  double energy_posts = 0.0;   // mean ledger posts per replica
  const ReplicaResult* sample = nullptr;  // replica 0 of this seed
};

/// Appends every per-layer metric the drivers produce, in a fixed order.
/// Shares estimate a layer's fraction of the replica run phase as per-op
/// time x the workload's op count / run_s; a layer the workload does not
/// call has share 0.
void run_layer_drivers(const WorkloadSpec& spec,
                       const braidio::hal::RadioBackend& backend,
                       std::uint64_t seed, const LayerInputs& in,
                       SpanRecorder& spans, MetricList& out);

}  // namespace perfbench
