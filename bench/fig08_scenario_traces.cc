/**
 * @file
 * Fig. 8 — Representative deployment scenarios: concurrent-application
 * count and monitored metrics over time for heavy {5,20}, moderate
 * {5,40} and relaxed {5,60} arrival intervals.
 *
 * Prints a down-sampled series per scenario plus summary statistics,
 * and writes the full series to CSV for plotting.
 */

#include <iostream>

#include "bench/common.hh"
#include "stats/online_stats.hh"

namespace
{

using namespace adrias;

void
traceScenario(SimTime spawn_max, const std::string &label)
{
    scenario::ScenarioConfig config;
    config.durationSec = bench::envInt("ADRIAS_BENCH_DURATION", 1800);
    config.spawnMinSec = 5;
    config.spawnMaxSec = spawn_max;
    config.seed = 800 + static_cast<std::uint64_t>(spawn_max);
    scenario::ScenarioEngine engine(config);
    scenario::RandomPlacement policy(900);
    const auto result = engine.run(policy);

    stats::OnlineStats concurrency;
    for (int c : result.concurrency)
        concurrency.add(c);

    std::cout << "\n--- scenario {5," << spawn_max << "} (" << label
              << ") ---\n";
    std::cout << "concurrency: mean="
              << formatDouble(concurrency.mean(), 1)
              << " max=" << formatDouble(concurrency.max(), 0)
              << "  completions=" << result.records.size()
              << "  channel traffic="
              << formatDouble(result.totalRemoteTrafficGB, 1) << " GB\n";

    TextTable table({"t (s)", "apps", "LLC_mis (M/s)", "MEM_ld (GB/s)",
                     "RMT_rx (M/s)", "CHAN_lat (cyc)"});
    const std::size_t stride = result.trace.size() / 12;
    for (std::size_t t = 0; t < result.trace.size(); t += stride) {
        const auto &c = result.trace[t];
        table.addRow(
            std::to_string(t),
            {static_cast<double>(result.concurrency[t]),
             c[static_cast<std::size_t>(testbed::PerfEvent::LlcMisses)],
             c[static_cast<std::size_t>(testbed::PerfEvent::MemLoads)],
             c[static_cast<std::size_t>(testbed::PerfEvent::RemoteRx)],
             c[static_cast<std::size_t>(testbed::PerfEvent::ChannelLat)]},
            1);
    }
    std::cout << table.toString();

    CsvWriter csv(bench::outputPath("fig08_trace_5_" +
                                    std::to_string(spawn_max) + ".csv"));
    std::vector<std::string> header{"t", "apps"};
    for (auto event : testbed::allPerfEvents())
        header.push_back(perfEventName(event));
    csv.writeRow(header);
    for (std::size_t t = 0; t < result.trace.size(); ++t) {
        std::vector<double> row{static_cast<double>(
            result.concurrency[t])};
        for (std::size_t e = 0; e < testbed::kNumPerfEvents; ++e)
            row.push_back(result.trace[t][e]);
        csv.writeRow(std::to_string(t), row);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    obs::initFromArgs(argc, argv);
    bench::banner("Fig. 8 — scenario traces across arrival intensities",
                  "heavier arrival rates produce more concurrent apps "
                  "and busier counters; wide phase variety");
    traceScenario(20, "heavy");
    traceScenario(40, "moderate");
    traceScenario(60, "relaxed");
    std::cout << "\nFull per-second series written to "
              << bench::outputPath("fig08_trace_5_{20,40,60}.csv") << "\n";

    const std::string obs_report = obs::finishRun();
    if (!obs_report.empty())
        std::cout << "\nObservability summary:\n" << obs_report;
    return 0;
}
