/**
 * @file
 * Fig. 10 — Redis/Memcached distributions across scenarios: total
 * execution time to drain the request budget, and p99/p99.9 response
 * percentiles, split by memory mode.
 *
 * Expected shape: remote mode yields higher response times but with
 * overlapping distributions — loose QoS targets leave room to use
 * remote memory, strict ones do not.
 */

#include <iostream>
#include <map>

#include "bench/common.hh"

int
main()
{
    using namespace adrias;
    bench::banner("Fig. 10 — LC exec-time and tail-latency "
                  "distributions",
                  "remote shifted up but overlapping; prohibitive only "
                  "for strict QoS");

    const auto scenarios =
        static_cast<std::size_t>(bench::envInt("ADRIAS_BENCH_SCENARIOS",
                                               4));
    struct Bucket
    {
        std::vector<double> exec, p99, p999;
    };
    std::map<std::string, Bucket> local, remote;

    for (std::size_t i = 0; i < scenarios; ++i) {
        for (SimTime spawn_max : {20, 40, 60}) {
            scenario::ScenarioEngine engine(bench::evalScenario(
                1300 + i * 10 + static_cast<std::uint64_t>(spawn_max),
                spawn_max));
            scenario::RandomPlacement policy(1400 + i);
            const auto result = engine.run(policy);
            for (const auto &record : result.records) {
                if (record.cls != WorkloadClass::LatencyCritical)
                    continue;
                Bucket &bucket = record.mode == MemoryMode::Remote
                                     ? remote[record.name]
                                     : local[record.name];
                bucket.exec.push_back(record.execTimeSec);
                bucket.p99.push_back(record.p99Ms);
                bucket.p999.push_back(record.p999Ms);
            }
        }
    }

    for (const auto &spec : workloads::latencyCriticalBenchmarks()) {
        std::cout << "\n--- " << spec.name << " ---\n";
        TextTable table({"metric", "n loc", "med loc", "p75 loc", "n rem",
                         "med rem", "p75 rem"});
        const Bucket &l = local[spec.name];
        const Bucket &r = remote[spec.name];
        auto add_metric = [&](const char *label,
                              const std::vector<double> &lv,
                              const std::vector<double> &rv) {
            if (lv.empty() || rv.empty())
                return;
            const auto ls = stats::DistributionSummary::from(lv);
            const auto rs = stats::DistributionSummary::from(rv);
            table.addRow(label,
                         {static_cast<double>(ls.count), ls.median,
                          ls.p75, static_cast<double>(rs.count),
                          rs.median, rs.p75},
                         2);
        };
        add_metric("exec time (s)", l.exec, r.exec);
        add_metric("p99 (ms)", l.p99, r.p99);
        add_metric("p99.9 (ms)", l.p999, r.p999);
        std::cout << table.toString();
    }
    std::cout << "\nShape check: remote medians above local but within "
                 "overlapping ranges.\n";
    return 0;
}
