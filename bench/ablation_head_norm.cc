/**
 * @file
 * Ablation — head normalization flavour (design choice of DESIGN.md
 * §5): batch normalization (the paper's architecture) versus layer
 * normalization (this reproduction's default) in the system-state
 * model, plus a no-future ablation echo for the performance model.
 *
 * Expected: LayerNorm clearly outperforms BatchNorm at inference
 * because the spiky channel counters make small-batch statistics
 * untransferable to single-sample prediction.
 */

#include <iostream>

#include "bench/common.hh"
#include "models/system_state.hh"

int
main()
{
    using namespace adrias;
    bench::banner("Ablation — BatchNorm vs LayerNorm prediction heads",
                  "(reproduction design choice; no paper counterpart)");

    std::vector<scenario::ScenarioResult> results;
    const auto scenarios = static_cast<std::size_t>(
        bench::envInt("ADRIAS_BENCH_SCENARIOS", 4));
    for (std::size_t i = 0; i < scenarios; ++i) {
        scenario::ScenarioEngine engine(bench::evalScenario(6000 + i, 30));
        scenario::RandomPlacement policy(6100 + i);
        results.push_back(engine.run(policy));
    }
    auto samples = scenario::DatasetBuilder::systemState(results, 5);
    auto [train, test] =
        scenario::splitDataset(std::move(samples), 0.6, 17);

    TextTable table({"head norm", "epochs", "test R^2 (avg)",
                     "min event R^2"});
    for (auto norm : {ml::HeadNorm::Batch, ml::HeadNorm::Layer}) {
        for (std::size_t epochs : {20, 40}) {
            models::ModelConfig config;
            config.headNorm = norm;
            config.epochs = epochs;
            models::SystemStateModel model(config);
            model.train(train);
            const auto eval = model.evaluate(test);
            double min_r2 = 1.0;
            for (double r2 : eval.r2PerEvent)
                min_r2 = std::min(min_r2, r2);
            table.addRow(norm == ml::HeadNorm::Batch ? "batch" : "layer",
                         {static_cast<double>(epochs), eval.r2Average,
                          min_r2},
                         3);
        }
    }
    std::cout << table.toString();
    std::cout << "\nShape check: the layer rows dominate, most visibly "
                 "in the min-event column (channel counters).\n";
    return 0;
}
