/**
 * @file
 * Micro-benchmarks for the testbed simulator: contention-resolution
 * throughput per tick and full-scenario execution rate.  Not a paper
 * figure — establishes how cheaply the 72x1h trace-collection protocol
 * can be reproduced, and feeds the perf-regression gate
 * (tools/bench_compare against bench/baselines/BENCH_sim.json).
 */

#include <vector>

#include "bench/microbench.hh"
#include "common/threadpool.hh"
#include "scenario/engine.hh"
#include "scenario/signature.hh"
#include "testbed/testbed.hh"
#include "workloads/spec.hh"

namespace
{

using namespace adrias;
using bench::micro::Result;

Result
benchTestbedTick(std::size_t apps)
{
    testbed::Testbed bed;
    std::vector<testbed::LoadDescriptor> loads;
    const auto &sparks = workloads::sparkBenchmarks();
    for (std::size_t i = 0; i < apps; ++i) {
        loads.push_back(sparks[i % sparks.size()].toLoad(
            static_cast<DeploymentId>(i),
            i % 2 ? MemoryMode::Remote : MemoryMode::Local));
    }
    return bench::micro::measure(
        "testbed_tick_apps" + std::to_string(apps),
        [&] { bed.tick(loads); });
}

Result
benchScenarioMinute()
{
    // One simulated minute of a moderately congested scenario; fewer
    // iterations than the ns-scale kernels, it runs for milliseconds.
    return bench::micro::measure(
        "scenario_minute",
        [] {
            scenario::ScenarioConfig config;
            config.durationSec = 60;
            config.spawnMinSec = 5;
            config.spawnMaxSec = 20;
            config.seed = 42;
            scenario::ScenarioEngine engine(config);
            scenario::RandomPlacement policy(43);
            engine.run(policy);
        },
        bench::micro::envCount("ADRIAS_BENCH_ITERS", 15),
        bench::micro::envCount("ADRIAS_BENCH_WARMUP", 2));
}

Result
benchSignatureCollection()
{
    const auto &spec = workloads::sparkBenchmark("gmm");
    return bench::micro::measure(
        "signature_collection",
        [&] { scenario::collectSignature(spec); },
        bench::micro::envCount("ADRIAS_BENCH_ITERS", 15),
        bench::micro::envCount("ADRIAS_BENCH_WARMUP", 2));
}

} // namespace

int
main()
{
    ScopedThreadOverride serial(1);

    std::vector<bench::micro::Result> results;
    results.push_back(benchTestbedTick(1));
    results.push_back(benchTestbedTick(8));
    results.push_back(benchTestbedTick(35));
    results.push_back(benchScenarioMinute());
    results.push_back(benchSignatureCollection());

    bench::micro::printResults("sim_speed", results);
    const std::string path = bench::micro::jsonPath("BENCH_sim.json");
    bench::micro::writeJson(path, "sim_speed", results);
    std::cout << "JSON written to " << path << "\n";
    return 0;
}
