/**
 * @file
 * Fig. 9 — Spark performance distributions across randomized scenarios,
 * split by memory mode.
 *
 * Expected shape: remote distributions shift toward higher execution
 * times; gmm-like apps overlap between modes while nweight-like apps
 * separate cleanly.
 */

#include <iostream>
#include <map>

#include "bench/common.hh"

int
main()
{
    using namespace adrias;
    bench::banner("Fig. 9 — BE execution-time distributions over "
                  "scenarios",
                  "remote distributions shifted up; overlap for gmm, "
                  "clear separation for nweight");

    const auto scenarios =
        static_cast<std::size_t>(bench::envInt("ADRIAS_BENCH_SCENARIOS",
                                               4));
    std::map<std::string, std::vector<double>> local_times, remote_times;
    for (std::size_t i = 0; i < scenarios; ++i) {
        for (SimTime spawn_max : {20, 40, 60}) {
            scenario::ScenarioEngine engine(bench::evalScenario(
                1000 + i * 10 + static_cast<std::uint64_t>(spawn_max),
                spawn_max));
            scenario::RandomPlacement policy(1100 + i);
            const auto result = engine.run(policy);
            for (const auto &record : result.records) {
                if (record.cls != WorkloadClass::BestEffort)
                    continue;
                auto &bucket = record.mode == MemoryMode::Remote
                                   ? remote_times[record.name]
                                   : local_times[record.name];
                bucket.push_back(record.execTimeSec);
            }
        }
    }

    TextTable table({"benchmark", "n loc", "med loc (s)", "p75 loc",
                     "n rem", "med rem (s)", "p75 rem", "med rem/loc"});
    for (const auto &spec : workloads::sparkBenchmarks()) {
        const auto &local = local_times[spec.name];
        const auto &remote = remote_times[spec.name];
        if (local.empty() || remote.empty())
            continue;
        const auto ls = stats::DistributionSummary::from(local);
        const auto rs = stats::DistributionSummary::from(remote);
        table.addRow(spec.name,
                     {static_cast<double>(ls.count), ls.median, ls.p75,
                      static_cast<double>(rs.count), rs.median, rs.p75,
                      rs.median / ls.median},
                     1);
    }
    std::cout << table.toString();
    std::cout << "\nShape check: med rem/loc near 1 for gmm/pca, high "
                 "for nweight/lr; remote tails heavier overall.\n";
    return 0;
}
