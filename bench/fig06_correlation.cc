/**
 * @file
 * Fig. 6 — Affinity of system and workload metrics: Pearson
 * correlation of each monitored event with application performance,
 * measured over the 120 s prior to arrival (tau) and during execution
 * (l), for remote-mode deployments.
 *
 * Expected shape (R8): runtime metrics correlate much more strongly
 * with performance than historical ones.
 */

#include <cmath>
#include <iostream>
#include <map>

#include "bench/common.hh"
#include "stats/correlation.hh"

namespace
{

using namespace adrias;

/** Mean of one event over a binned window sequence. */
double
eventMean(const std::vector<ml::Matrix> &window, std::size_t event)
{
    double total = 0.0;
    for (const auto &step : window)
        total += step.at(0, event);
    return total / static_cast<double>(window.size());
}

} // namespace

int
main()
{
    bench::banner("Fig. 6 — correlation of system metrics with app "
                  "performance",
                  "runtime (during-execution) metrics correlate much "
                  "higher than historical ones (R8)");

    // Randomized co-location scenarios, remote placements only.
    std::vector<scenario::ScenarioResult> results;
    const auto scenarios =
        static_cast<std::size_t>(bench::envInt("ADRIAS_BENCH_SCENARIOS",
                                               4));
    for (std::size_t i = 0; i < scenarios; ++i) {
        scenario::ScenarioEngine engine(
            bench::evalScenario(500 + i, 25));
        scenario::RandomPlacement policy(600 + i);
        results.push_back(engine.run(policy));
    }

    // Performance vs prior/during metric means for remote BE records.
    std::vector<double> perf;
    std::array<std::vector<double>, testbed::kNumPerfEvents> prior;
    std::array<std::vector<double>, testbed::kNumPerfEvents> during;
    for (const auto &result : results) {
        for (const auto &record : result.records) {
            if (record.cls != WorkloadClass::BestEffort ||
                record.mode != MemoryMode::Remote ||
                record.historyWindow.empty() ||
                record.executionWindow.empty()) {
                continue;
            }
            perf.push_back(record.execTimeSec);
            for (std::size_t e = 0; e < testbed::kNumPerfEvents; ++e) {
                prior[e].push_back(eventMean(record.historyWindow, e));
                during[e].push_back(eventMean(record.executionWindow, e));
            }
        }
    }

    TextTable table({"event", "corr prior (tau)", "corr during (l)",
                     "|during| - |prior|"});
    double prior_abs = 0.0, during_abs = 0.0;
    for (std::size_t e = 0; e < testbed::kNumPerfEvents; ++e) {
        const double r_prior = stats::pearson(prior[e], perf);
        const double r_during = stats::pearson(during[e], perf);
        prior_abs += std::fabs(r_prior);
        during_abs += std::fabs(r_during);
        table.addRow(perfEventName(testbed::allPerfEvents()[e]),
                     {r_prior, r_during,
                      std::fabs(r_during) - std::fabs(r_prior)},
                     3);
    }
    std::cout << table.toString();
    std::cout << "\nMean |corr|: prior="
              << formatDouble(prior_abs / testbed::kNumPerfEvents, 3)
              << " during="
              << formatDouble(during_abs / testbed::kNumPerfEvents, 3)
              << " over n=" << perf.size() << " remote deployments\n"
              << "Shape check: the during-execution column dominates "
                 "(R8 predictive-monitoring premise).\n";
    return 0;
}
