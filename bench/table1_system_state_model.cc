/**
 * @file
 * Table I + Fig. 12 — System-state model accuracy: R² per monitored
 * event on the held-out split, plus actual-vs-predicted residual
 * summary (the paper's 45-degree scatter).
 *
 * Paper: R² 0.964 .. 0.999, average 0.993.
 */

#include <cmath>
#include <iostream>

#include "bench/common.hh"
#include "models/system_state.hh"

int
main()
{
    using namespace adrias;
    bench::banner("Table I / Fig. 12 — system-state model accuracy",
                  "R^2 0.964..0.999 per event, average 0.993");

    // Trace collection at several arrival intensities.
    std::vector<scenario::ScenarioResult> results;
    const auto scenarios =
        static_cast<std::size_t>(bench::envInt("ADRIAS_BENCH_SCENARIOS",
                                               4));
    const SimTime spawn_maxes[] = {20, 30, 40, 50, 60};
    for (std::size_t i = 0; i < scenarios; ++i) {
        scenario::ScenarioEngine engine(bench::evalScenario(
            1500 + i, spawn_maxes[i % std::size(spawn_maxes)]));
        scenario::RandomPlacement policy(1600 + i);
        results.push_back(engine.run(policy));
    }

    auto samples = scenario::DatasetBuilder::systemState(results, 5);
    auto [train, test] =
        scenario::splitDataset(std::move(samples), 0.6, 9);
    std::cout << "dataset: train=" << train.size()
              << " test=" << test.size() << "\n";

    models::ModelConfig config;
    config.epochs = static_cast<std::size_t>(
        bench::envInt("ADRIAS_BENCH_EPOCHS", 30)) * 2;
    models::SystemStateModel model(config);
    const double loss = model.train(train);
    std::cout << "final training loss (scaled): "
              << formatDouble(loss, 4) << "\n\n";

    const auto eval = model.evaluate(test);
    TextTable table({"event", "R^2 (measured)", "R^2 (paper)"});
    const double paper_r2[] = {0.9969, 0.9995, 0.9641, 0.9983,
                               0.9977, 0.9871, 0.9876};
    for (std::size_t e = 0; e < testbed::kNumPerfEvents; ++e) {
        table.addRow(perfEventName(testbed::allPerfEvents()[e]),
                     {eval.r2PerEvent[e], paper_r2[e]}, 4);
    }
    table.addRow("Avg.", {eval.r2Average, 0.9932}, 4);
    std::cout << table.toString();

    // Fig. 12: residuals against the 45-degree line.
    double max_resid = 0.0, mean_resid = 0.0;
    for (std::size_t i = 0; i < eval.actual.size(); ++i) {
        const double denom = std::max(1e-9, std::fabs(eval.actual[i]));
        const double resid =
            std::fabs(eval.predicted[i] - eval.actual[i]) / denom;
        max_resid = std::max(max_resid, resid);
        mean_resid += resid;
    }
    mean_resid /= static_cast<double>(eval.actual.size());
    std::cout << "\nFig. 12 residuals: mean relative deviation from the "
                 "45-degree line = "
              << formatDouble(100.0 * mean_resid, 1) << "% over "
              << eval.actual.size() << " points\n";
    return 0;
}
