#include "sim/bench_telemetry.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "sim/result_table.hpp"
#include "util/contract.hpp"
#include "util/json.hpp"

namespace braidio::sim {

BenchTelemetry::BenchTelemetry()
    : delivered_bits_per_joule(
          std::numeric_limits<double>::quiet_NaN()) {}

BenchTelemetry BenchTelemetry::from_table(const std::string& name,
                                          const ResultTable& table) {
  BRAIDIO_REQUIRE(!name.empty(), "name_length", name.size());
  BenchTelemetry t;
  t.name = name;
  t.points = table.row_count();
  t.threads = table.threads_used();
  t.wall_seconds = table.total_wall_seconds();
  t.points_per_second =
      t.wall_seconds > 0.0
          ? static_cast<double>(t.points) / t.wall_seconds
          : 0.0;
  // Top attributions: joules descending, ties broken by path so the
  // ordering (and hence the record) is deterministic.
  std::vector<std::pair<std::string, double>> paths;
  for (const auto& [path, slot] : table.energy_profile().entries()) {
    paths.emplace_back(path, slot.joules);
  }
  std::sort(paths.begin(), paths.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (paths.size() > kBenchTopAttributions) {
    paths.resize(kBenchTopAttributions);
  }
  t.top_attributions = std::move(paths);
  for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
    const auto counter = static_cast<obs::Counter>(c);
    const std::uint64_t v = table.metrics_registry().value(counter);
    if (v != 0) t.counters[obs::to_string(counter)] = v;
  }
  return t;
}

std::string BenchTelemetry::to_json() const {
  util::json::Writer w;
  w.begin_object().key("schema").value(kBenchTelemetrySchema);
  w.key("name").value(name).key("points").value(points);
  w.key("threads").value(threads).key("wall_seconds").value(wall_seconds);
  w.key("points_per_second").value(points_per_second);
  w.key("delivered_bits_per_joule").value(delivered_bits_per_joule);
  w.key("top_attributions").begin_array();
  for (const auto& [path, joules] : top_attributions) {
    w.begin_object().key("path").value(path);
    w.key("joules").value(joules).end_object();
  }
  w.end_array().key("counters").begin_object();
  for (const auto& [name_, v] : counters) w.key(name_).value(v);
  w.end_object();
  // Soft fields are optional so benches without them keep their exact
  // historical record fields.
  if (!soft.empty()) {
    w.key("soft").begin_object();
    for (const auto& [name_, v] : soft) w.key(name_).value(v);
    w.end_object();
  }
  return w.end_object().str();
}

}  // namespace braidio::sim
