// perfbench_harness: runs one benchmark workload and prints one JSON
// document on stdout (perfbench/run.py turns it into the benchmark's
// result line).
//
//   perfbench_harness --workload star_csma --seed 1 --seconds 25
//                     [--trace 0|1] [--trace-out FILE] [--commit SHA]
//
// Closed loop: sweep passes over the workload's K replicas run back to
// back until --seconds is used up, alternating N-thread passes (the
// events_per_s_mt samples) with 1-thread passes (the per-replica setup,
// run and wall samples). Replica r always runs with the sweep child seed
// of (--seed, r), so its digest must match across every pass and both
// thread counts. With --trace 1 the passes record spans and the layer
// drivers run afterwards; end-to-end metrics come from --trace 0 runs.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "backends/backends.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_config.hpp"
#include "sim/bench_telemetry.hpp"
#include "sim/result_table.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/rng.hpp"

#include "json.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// The seed whose replica 0 every run re-checks against its recorded
/// digest (it doubles as the warm-up replica).
constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_harness: " << why << "\nworkloads:";
  for (const auto& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--trace-out") {
        o.trace_out = value;
      } else if (arg == "--commit") {
        o.commit = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::exception&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds >= 0.0)) usage("--seconds must be >= 0");
  return o;
}

unsigned usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
  }
  return std::max(std::thread::hardware_concurrency(), 1u);
}

struct Build {
  bool optimized = false;
  bool ndebug = false;
  std::string sanitizers;
};

Build build_flags() {
  Build b;
#ifdef __OPTIMIZE__
  b.optimized = true;
#endif
#ifdef NDEBUG
  b.ndebug = true;
#endif
  b.sanitizers = PERFBENCH_SANITIZE;
#ifdef __SANITIZE_ADDRESS__
  b.sanitizers += b.sanitizers.empty() ? "address" : ";address";
#endif
#ifdef __SANITIZE_THREAD__
  b.sanitizers += b.sanitizers.empty() ? "thread" : ";thread";
#endif
  return b;
}

std::string manifest_json(const Options& o, const WorkloadSpec& spec,
                          unsigned threads, const Build& b) {
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(fnv1a(spec.describe())));
  JsonObject m;
  m.str("build_type", PERFBENCH_BUILD_TYPE)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .str("compiler", __VERSION__)
      .boolean("optimized", b.optimized)
      .boolean("ndebug", b.ndebug)
      .str("sanitizers", b.sanitizers)
      .boolean("braidio_obs", BRAIDIO_OBS_COMPILED != 0)
#ifdef BRAIDIO_DISABLE_CONTRACTS
      .boolean("contracts", false)
#else
      .boolean("contracts", true)
#endif
      .integer("nproc", usable_cpus())
      .integer("threads", threads)
      .str("git_commit", o.commit)
      .integer("seed", o.seed)
      .str("workload", spec.name)
      .str("config", spec.describe())
      .str("config_hash", hash);
  return m.dump();
}

/// One sweep pass over the workload's replicas.
struct Pass {
  unsigned threads = 1;
  bool traced = false;
  std::vector<ReplicaResult> results;
  std::string table_text;  // to_json + to_csv: byte-compared across passes
  double wall_s = 0.0;
  std::vector<double> point_wall_s;
  std::uint64_t energy_posts = 0;
  std::uint64_t events = 0;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",";
    out += json_string(items[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace braidio;
  const Options opt = parse(argc, argv);
  const WorkloadSpec* found = find_workload(opt.workload);
  if (found == nullptr) usage("unknown workload " + opt.workload);
  const WorkloadSpec& spec = *found;

  const unsigned threads = std::min(usable_cpus(), 4u);
  const Build build = build_flags();
  const std::string manifest = manifest_json(opt, spec, threads, build);
  if (!build.optimized || !build.ndebug || !build.sanitizers.empty()) {
    std::cerr << "perfbench_harness: refusing to time an unoptimized, "
                 "assert-enabled or sanitizer build: "
              << manifest << "\n";
    return 3;
  }

  backends::register_all();
  const hal::RadioBackend& backend =
      hal::BackendRegistry::instance().get(backends::kBraidio);

  SpanRecorder spans;
  spans.set_enabled(opt.trace);
  std::vector<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;

  std::optional<ScopedSpan> workload_span;
  workload_span.emplace(spans, "workload:" + spec.name);

  // Warm-up, and the recorded-digest check every run makes whatever its
  // seed: replica 0 of the default seed.
  const ReplicaResult golden = run_replica(
      spec, backend, util::Rng::stream_seed(kDefaultSeed, 0), spans);
  ++attempted;
  if (!golden.error.empty()) {
    ++failed;
    failures.push_back("default-seed replica 0: " + golden.error);
  }

  const std::vector<double> column1 = fig15_column1(backend);
  std::string fluid_digest;
  for (const double g : column1) fluid_digest += bits_hex(g) + " ";

  std::vector<Pass> passes;
  std::optional<sim::ResultTable> export_table;
  auto run_pass = [&](unsigned pass_threads, bool traced) {
    spans.set_enabled(traced);
    Pass pass;
    pass.threads = pass_threads;
    pass.traced = traced;
    pass.results.resize(spec.replicas);
    ScopedSpan sweep_span(spans, pass_threads > 1 ? "sweep.mt" : "sweep.serial");
    const int parent = sweep_span.id();
    sim::Scenario scenario(
        spec.name, {sim::Axis::indexed("replica", spec.replicas)}, {"digest"},
        [&](sim::SweepPoint& point) {
          ReplicaResult r =
              run_replica(spec, backend, point.seed(), spans, parent);
          sim::RunRecord record;
          record.cells = {r.error.empty() ? r.digest : "error: " + r.error};
          record.numbers = {static_cast<double>(r.events)};
          pass.results[point.flat_index()] = std::move(r);
          return record;
        });
    sim::SweepOptions options;
    options.threads = pass_threads;
    options.seed = opt.seed;
    sim::ResultTable table = sim::SweepRunner(options).run(scenario);
    pass.table_text = table.to_json() + table.to_csv();
    pass.wall_s = table.total_wall_seconds();
    for (const auto& m : table.metrics()) pass.point_wall_s.push_back(m.wall_seconds);
    pass.energy_posts =
        table.metrics_registry().value(obs::Counter::EnergyPosts);
    for (const auto& r : pass.results) pass.events += r.events;
    if (pass_threads > 1 || !export_table) export_table.emplace(std::move(table));
    passes.push_back(std::move(pass));
    spans.set_enabled(opt.trace);
  };

  // Each cycle is N/2 N-thread passes and one 1-thread pass (about two
  // thirds of the host time to the noisier 1-thread samples), so both
  // rates sample the same stretch of host load; cycles repeat until the
  // next one would overrun --seconds. The N-thread passes go first: they
  // grow the heap, so no 1-thread sample pays first-touch page faults. A
  // traced run alternates untraced and traced 1-thread passes so the
  // tracing overhead is measured on the same replicas.
  const Clock::time_point start = Clock::now();
  std::size_t serial_passes = 0;
  for (;;) {
    const Clock::time_point cycle = Clock::now();
    for (unsigned k = 0; threads > 1 && k < std::max(threads / 2, 1u); ++k) {
      run_pass(threads, opt.trace);
    }
    run_pass(1, opt.trace && serial_passes % 2 == 1);
    ++serial_passes;
    const double used = seconds_since(start);
    const bool need_more = opt.trace && serial_passes < 2;
    if (!need_more && used + seconds_since(cycle) > opt.seconds) break;
  }

  // Correctness gate: every replica passes its own invariants and matches
  // the first pass's digest for its index; every table is byte-equal.
  const Pass& reference = passes.front();
  std::vector<std::string> replica_digests;
  for (const auto& r : reference.results) replica_digests.push_back(r.digest);
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    for (std::size_t i = 0; i < pass.results.size(); ++i) {
      const ReplicaResult& r = pass.results[i];
      ++attempted;
      std::string why;
      if (!r.error.empty()) {
        why = r.error;
      } else if (r.digest != replica_digests[i]) {
        why = "digest differs from pass 0: " + r.digest;
      }
      if (!why.empty()) {
        ++failed;
        if (failures.size() < 8) {
          failures.push_back("pass " + std::to_string(p) + " (" +
                             std::to_string(pass.threads) + " threads) replica " +
                             std::to_string(i) + ": " + why);
        }
      }
    }
    ++attempted;  // the pass's table against pass 0's
    if (pass.table_text != reference.table_text) {
      ++failed;
      if (failures.size() < 8) {
        failures.push_back("pass " + std::to_string(p) + " (" +
                           std::to_string(pass.threads) +
                           " threads): result table not byte-equal to pass 0");
      }
    }
  }

  // Samples. End-to-end host times come from untraced 1-thread passes.
  std::vector<double> setup, run, wall, rate, mt_rate, traced_wall,
      untraced_wall, serial_pass_wall, mt_pass_wall, imbalance;
  for (const Pass& pass : passes) {
    if (pass.threads > 1) {
      mt_rate.push_back(pass.wall_s > 0.0
                            ? static_cast<double>(pass.events) / pass.wall_s
                            : 0.0);
      mt_pass_wall.push_back(pass.wall_s);
      const double mid = median(pass.point_wall_s);
      if (mid > 0.0) {
        imbalance.push_back(
            *std::max_element(pass.point_wall_s.begin(), pass.point_wall_s.end()) /
            mid);
      }
      continue;
    }
    serial_pass_wall.push_back(pass.wall_s);
    for (const ReplicaResult& r : pass.results) {
      (pass.traced ? traced_wall : untraced_wall).push_back(r.timing.wall_s());
      if (pass.traced) continue;
      setup.push_back(r.timing.setup_s);
      run.push_back(r.timing.run_s);
      wall.push_back(r.timing.wall_s());
      if (r.timing.run_s > 0.0) {
        rate.push_back(static_cast<double>(r.events) / r.timing.run_s);
      }
    }
  }
  if (mt_rate.empty()) mt_rate = rate;  // one CPU: the serial rate

  rusage usage_info{};
  getrusage(RUSAGE_SELF, &usage_info);
  const double peak_rss_mb = static_cast<double>(usage_info.ru_maxrss) / 1024.0;

  double delivered = 0.0, offered = 0.0, bits = 0.0, joules = 0.0;
  for (const ReplicaResult& r : reference.results) {
    delivered += r.delivered;
    offered += r.offered;
    bits += r.payload_bits;
    joules += r.joules;
  }

  JsonObject e2e;
  e2e.num("setup_s", median(setup))
      .num("events_per_s", median(rate))
      .num("wall_s", median(wall))
      .num("events_per_s_mt", median(mt_rate))
      .num("peak_rss_mb", peak_rss_mb)
      .num("paper_gain_err_pct", paper_gain_err_pct(column1));
  JsonObject results;
  results.num("delivery_ratio", offered > 0.0 ? delivered / offered : 0.0)
      .num("bits_per_joule", joules > 0.0 ? bits / joules : 0.0);

  JsonObject layers;
  JsonObject self_times;
  if (opt.trace) {
    double events = 0.0;
    for (const auto& r : reference.results) events += static_cast<double>(r.events);
    LayerInputs in;
    in.run_s = median(run);
    in.setup_s = median(setup);
    in.events = events / static_cast<double>(spec.replicas);
    in.energy_posts = static_cast<double>(reference.energy_posts) /
                      static_cast<double>(spec.replicas);
    in.sample = &reference.results.front();
    MetricList metrics;
    run_layer_drivers(spec, backend, opt.seed, in, spans, metrics);
    for (const auto& [name, value] : metrics) layers.num(name, value);

    const double mt_wall = median(mt_pass_wall);
    layers.num("sim.sweep.parallel_efficiency",
               mt_wall > 0.0 && threads > 1
                   ? median(serial_pass_wall) / mt_wall / threads
                   : 1.0);
    layers.num("sim.sweep.imbalance", imbalance.empty() ? 1.0 : median(imbalance));
    {
      ScopedSpan span(spans, "layer.sim.export");
      std::vector<double> export_s;
      std::size_t bytes = 0;
      for (int rep = 0; rep < 5; ++rep) {
        const Clock::time_point t0 = Clock::now();
        bytes += export_table->to_json().size() + export_table->to_csv().size() +
                 sim::BenchTelemetry::from_table(spec.name, *export_table)
                     .to_json()
                     .size();
        export_s.push_back(seconds_since(t0));
      }
      volatile std::size_t keep = bytes;
      (void)keep;
      layers.num("sim.export_s", median(export_s));
    }
    const double untraced = median(untraced_wall);
    layers.num("obs.trace_overhead_pct",
               untraced > 0.0 ? (median(traced_wall) / untraced - 1.0) * 100.0
                              : 0.0);
    layers.num("result.delivery_ratio", offered > 0.0 ? delivered / offered : 0.0)
        .num("result.bits_per_joule", joules > 0.0 ? bits / joules : 0.0);

    workload_span.reset();
    for (const auto& [name, t] : spans.self_times()) {
      JsonObject entry;
      entry.integer("count", t.count).num("total_s", t.total_s).num("self_s", t.self_s);
      self_times.raw(name, entry.dump());
    }
    if (!opt.trace_out.empty()) {
      std::ofstream file(opt.trace_out);
      file << spans.chrome_json(manifest);
      if (!file) {
        std::cerr << "perfbench_harness: cannot write " << opt.trace_out << "\n";
        return 2;
      }
    }
  }

  std::size_t serial_samples = 0;
  for (const Pass& pass : passes) {
    if (pass.threads == 1 && !pass.traced) serial_samples += pass.results.size();
  }
  JsonObject doc;
  doc.raw("manifest", manifest)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .raw("failures", json_list(failures))
      .str("golden_replica_digest", golden.digest)
      .str("fluid_digest", fluid_digest)
      .raw("replica_digests", json_list(replica_digests))
      .integer("passes", passes.size())
      .integer("serial_replica_samples", serial_samples)
      .integer("mt_pass_samples", mt_rate.size())
      .raw("e2e", e2e.dump())
      .raw("results", results.dump());
  if (opt.trace) {
    doc.raw("layers", layers.dump()).raw("self_times", self_times.dump());
  }
  std::cout << doc.dump() << std::endl;
  return 0;
}
