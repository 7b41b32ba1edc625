/**
 * @file
 * Quickstart: the five-minute tour of the Adrias library.
 *
 * 1. Simulate the ThymesisFlow testbed for a single application in
 *    both memory modes.
 * 2. Build the full Adrias stack (signatures, traces, trained models).
 * 3. Ask the orchestrator to place arriving applications and inspect
 *    its decisions.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <iostream>

#include "core/adrias.hh"

using namespace adrias;

int
main()
{
    std::cout << "== 1. Raw testbed: one Spark job, local vs remote ==\n";
    testbed::Testbed bed;
    bed.setNoise(0.0);
    for (MemoryMode mode : {MemoryMode::Local, MemoryMode::Remote}) {
        workloads::WorkloadInstance app(
            1, workloads::sparkBenchmark("lr"), mode, 0, 7);
        SimTime now = 0;
        while (!app.finished()) {
            const auto tick = bed.tick({app.load()});
            app.advance(tick.outcomes.at(0), ++now);
        }
        std::cout << "  lr on " << toString(mode) << " memory: "
                  << app.executionTimeSec() << " s\n";
    }

    std::cout << "\n== 2. Offline phase: train the prediction stack ==\n";
    core::AdriasStack::BuildOptions options;
    options.scenarios = 3;          // keep the demo quick
    options.scenarioDurationSec = 1200;
    options.model.epochs = 20;
    core::AdriasStack stack(options);
    std::cout << "  trained on " << stack.traces().size()
              << " randomized scenarios; "
              << stack.signatures().size()
              << " application signatures collected\n";

    std::cout << "\n== 3. Online phase: orchestrate arrivals ==\n";
    core::AdriasConfig config;
    config.beta = 0.7;               // accept up to ~43% slowdown
    config.defaultQosP99Ms = 2.0;    // LC QoS target
    auto orchestrator = stack.makeOrchestrator(config);

    // Warm telemetry: run a short busy scenario through the policy.
    scenario::ScenarioConfig scenario_config;
    scenario_config.durationSec = 900;
    scenario_config.spawnMinSec = 5;
    scenario_config.spawnMaxSec = 25;
    scenario_config.seed = 99;
    scenario::ScenarioEngine engine(scenario_config);
    const auto result = engine.run(orchestrator);

    std::size_t local = 0, remote = 0;
    for (const auto &record : result.records) {
        if (record.cls == WorkloadClass::Interference)
            continue;
        (record.mode == MemoryMode::Remote ? remote : local) += 1;
    }
    std::cout << "  placements: " << local << " local, " << remote
              << " remote (" << orchestrator.stats().bootstrapPlacements
              << " signature bootstraps)\n"
              << "  channel traffic: "
              << formatDouble(result.totalRemoteTrafficGB, 2) << " GB\n"
              << "\nDone. See examples/characterization.cc and "
                 "examples/orchestrate_datacenter.cc for deeper dives.\n";
    return 0;
}
