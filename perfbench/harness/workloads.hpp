// The benchmark's four workloads and one replica of each.
//
// A replica is a pure function of (workload config, replica seed): its
// deterministic outputs are rendered into a digest string that the
// correctness gate compares across thread counts, across passes, and
// against the expected digests recorded for the default and held-out
// seeds. Host times ride alongside and never enter the digest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hal/backend.hpp"
#include "net/network_sim.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Kind { Net, Pair };

struct PairSession {
  double distance_m = 0.4;
  bool block_fading = false;
};

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::Net;
  braidio::net::NetConfig net;  // Kind::Net (backend filled at run time)
  std::vector<PairSession> sessions;  // Kind::Pair
  std::uint64_t pair_packets = 0;     // data packets offered per session
  std::size_t pair_payload_bytes = 32;
  double phone_wh = 6.55;
  double watch_wh = 0.78;
  /// Replicas per sweep pass (flat index r runs with the sweep child seed).
  std::size_t replicas = 8;

  /// Canonical text of every knob the workload sets (hashed into the
  /// manifest so records from different configs never compare).
  std::string describe() const;
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Host times of one replica [s].
struct ReplicaTiming {
  double setup_s = 0.0;   // simulator instance(s) built
  double run_s = 0.0;     // event-producing phase only
  double other_s = 0.0;   // pair_braid: the fluid grid
  double export_s = 0.0;  // result record rendered
  double wall_s() const { return setup_s + run_s + other_s + export_s; }
};

/// Deterministic outputs of one replica plus its timing.
struct ReplicaResult {
  ReplicaTiming timing;
  std::string digest;  // deterministic outputs; compared by the gate
  std::string error;   // non-empty: threw or failed an invariant
  std::uint64_t events = 0;         // net events / pair frames
  double offered = 0.0;             // frames generated / packets offered
  double delivered = 0.0;
  double payload_bits = 0.0;
  double joules = 0.0;              // all ledgers
  // Net only (zero for pair).
  braidio::net::NetStats net;
  // Pair only (sums over sessions).
  std::uint64_t retransmissions = 0;
  std::uint64_t replans = 0;
  std::uint64_t fallbacks = 0;
};

ReplicaResult run_replica(const WorkloadSpec& spec,
                          const braidio::hal::RadioBackend& backend,
                          std::uint64_t replica_seed, SpanRecorder& spans,
                          int parent_span = -1);

/// Fig. 15 (the device on the column transmits to the device on the
/// row, both batteries full, 0.5 m), column 1 (Nike Fuel Band
/// transmitting), as gains over Bluetooth.
std::vector<double> fig15_column1(const braidio::hal::RadioBackend& backend);

/// Mean |ln(ours / paper)| over column 1 against the paper's gains
/// (EXPERIMENTS.md), in percent.
double paper_gain_err_pct(const std::vector<double>& gains);

/// Hex of the IEEE-754 bit pattern (exact, for digests).
std::string bits_hex(double v);

/// 64-bit FNV-1a.
std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t h = 0xcbf29ce484222325ull);

}  // namespace perfbench
