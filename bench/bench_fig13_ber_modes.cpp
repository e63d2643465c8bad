// Figure 13: BER vs distance for the backscatter and passive receiver
// modes at 1 Mbps / 100 kbps / 10 kbps, swept on the sim engine.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "phy/link_budget.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace braidio;
  sim::RunReport report(std::cout, "Figure 13",
                        "BER vs distance, backscatter & passive modes x "
                        "bitrates");

  phy::LinkBudget budget;
  auto cell = [&](hal::LinkMode mode, hal::Bitrate rate, double d) {
    const double ber = budget.ber(mode, rate, d);
    return ber < 1e-9 ? std::string("<1e-9")
                      : util::format_scientific(ber, 2);
  };

  std::vector<double> distances;
  for (double d = 0.25; d <= 6.01; d += 0.25) distances.push_back(d);

  sim::Scenario scenario(
      "fig13_ber_modes", {sim::Axis::numeric("d [m]", distances, 2)},
      {"bs@1M", "bs@100k", "bs@10k", "pa@1M", "pa@100k", "pa@10k"},
      [&](sim::SweepPoint& p) {
        const double d = distances[p.axis_index(0)];
        sim::RunRecord record;
        record.cells = {
            cell(hal::LinkMode::Backscatter, hal::Bitrate::M1, d),
            cell(hal::LinkMode::Backscatter, hal::Bitrate::k100, d),
            cell(hal::LinkMode::Backscatter, hal::Bitrate::k10, d),
            cell(hal::LinkMode::PassiveRx, hal::Bitrate::M1, d),
            cell(hal::LinkMode::PassiveRx, hal::Bitrate::k100, d),
            cell(hal::LinkMode::PassiveRx, hal::Bitrate::k10, d)};
        return record;
      });

  const auto out =
      sim::SweepRunner(bench::sweep_options(argc, argv)).run(scenario);
  report.table(out);
  report.metrics(out);
  report.export_csv("fig13_ber_modes", out);
  report.export_json("fig13_ber_modes", out);

  auto range = [&](hal::LinkMode mode, hal::Bitrate rate) {
    return util::format_fixed(budget.range_m(mode, rate), 2) + " m";
  };
  report.check("backscatter range @1M / @100k / @10k",
               "0.9 / 1.8 / 2.4 m",
               range(hal::LinkMode::Backscatter, hal::Bitrate::M1) + " / " +
                   range(hal::LinkMode::Backscatter, hal::Bitrate::k100) +
                   " / " +
                   range(hal::LinkMode::Backscatter, hal::Bitrate::k10));
  report.check("passive range @1M / @100k / @10k", "3.9 / 4.2 / 5.1 m",
               range(hal::LinkMode::PassiveRx, hal::Bitrate::M1) + " / " +
                   range(hal::LinkMode::PassiveRx, hal::Bitrate::k100) +
                   " / " +
                   range(hal::LinkMode::PassiveRx, hal::Bitrate::k10));
  report.check("active mode", "operates well beyond 6 m",
               util::format_fixed(budget.range_m(hal::LinkMode::Active,
                                                 hal::Bitrate::M1),
                                  0) +
                   " m");
  return 0;
}
