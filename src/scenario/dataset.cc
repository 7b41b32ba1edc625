#include "scenario/dataset.hh"

#include "common/logging.hh"
#include "telemetry/watcher.hh"

namespace adrias::scenario
{

using testbed::kNumPerfEvents;

namespace
{

ml::Matrix
sampleToMatrix(const testbed::CounterSample &sample)
{
    ml::Matrix m(1, kNumPerfEvents);
    for (std::size_t e = 0; e < kNumPerfEvents; ++e)
        m.at(0, e) = sample[e];
    return m;
}

} // namespace

std::vector<SystemStateSample>
DatasetBuilder::systemState(const std::vector<ScenarioResult> &results,
                            std::size_t stride_sec)
{
    if (stride_sec == 0)
        fatal("DatasetBuilder::systemState: stride must be positive");

    const std::size_t window = ScenarioEngine::kWindowSec;
    const std::size_t bins = ScenarioEngine::kWindowBins;

    std::vector<SystemStateSample> samples;
    for (const ScenarioResult &result : results) {
        const auto &trace = result.trace;
        if (trace.size() < 2 * window)
            continue;
        for (std::size_t t = window; t + window <= trace.size();
             t += stride_sec) {
            SystemStateSample sample;
            sample.history =
                telemetry::binSpan(trace, t - window, t, bins);
            sample.target = sampleToMatrix(
                telemetry::meanOverSpan(trace, t, t + window));
            samples.push_back(std::move(sample));
        }
    }
    return samples;
}

std::vector<PerformanceSample>
DatasetBuilder::performance(const std::vector<ScenarioResult> &results,
                            const SignatureStore &signatures,
                            WorkloadClass cls)
{
    const std::size_t window = ScenarioEngine::kWindowSec;

    std::vector<PerformanceSample> samples;
    for (const ScenarioResult &result : results) {
        const auto &trace = result.trace;
        for (const DeploymentRecord &record : result.records) {
            if (record.cls != cls)
                continue;
            if (record.historyWindow.empty())
                continue; // warm-up arrival, no telemetry yet
            if (!signatures.has(record.name))
                continue;

            const auto arrival =
                static_cast<std::size_t>(record.arrival);
            const auto completion = std::min<std::size_t>(
                static_cast<std::size_t>(record.completion),
                trace.size());
            if (completion <= arrival)
                continue;

            PerformanceSample sample;
            sample.name = record.name;
            sample.cls = record.cls;
            sample.mode = record.mode;
            sample.history = record.historyWindow;
            sample.signature = signatures.get(record.name);
            sample.futureWindow = sampleToMatrix(telemetry::meanOverSpan(
                trace, arrival,
                std::min(arrival + window, completion)));
            sample.futureExec = sampleToMatrix(
                telemetry::meanOverSpan(trace, arrival, completion));
            sample.target = record.primaryMetric();
            samples.push_back(std::move(sample));
        }
    }
    return samples;
}

} // namespace adrias::scenario
