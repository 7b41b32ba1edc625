/**
 * @file
 * Dataset construction from scenario traces (paper §V-B1/2): sliding
 * windows over the counter trace for the system-state model, and
 * per-deployment samples (S, k, mode, future state, target) for the
 * performance models.
 */

#ifndef ADRIAS_SCENARIO_DATASET_HH
#define ADRIAS_SCENARIO_DATASET_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "ml/matrix.hh"
#include "scenario/engine.hh"
#include "scenario/signature.hh"

namespace adrias::scenario
{

/** One supervised example for the system-state model. */
struct SystemStateSample
{
    /** Binned 120 s history window (time-major, 1 x events steps). */
    std::vector<ml::Matrix> history;

    /** Mean of each event over the 120 s horizon (1 x events). */
    ml::Matrix target;
};

/** One supervised example for a performance model. */
struct PerformanceSample
{
    std::string name;
    WorkloadClass cls = WorkloadClass::BestEffort;
    MemoryMode mode = MemoryMode::Local;

    /** History window S at arrival. */
    std::vector<ml::Matrix> history;

    /** Application signature k. */
    std::vector<ml::Matrix> signature;

    /** Actual mean counters over the 120 s after arrival. */
    ml::Matrix futureWindow;

    /** Actual mean counters over the app's full execution. */
    ml::Matrix futureExec;

    /** Ground truth: execution time (BE, s) or p99 (LC, ms). */
    double target = 0.0;
};

/** Builds model datasets out of recorded scenarios. */
class DatasetBuilder
{
  public:
    /**
     * Sliding-window system-state samples from every trace.
     *
     * @param results recorded scenarios.
     * @param stride_sec spacing between consecutive window starts.
     */
    static std::vector<SystemStateSample>
    systemState(const std::vector<ScenarioResult> &results,
                std::size_t stride_sec = 15);

    /**
     * Performance samples for one workload class.
     *
     * Records lacking a history window (scenario warm-up) or without a
     * stored signature are skipped.
     */
    static std::vector<PerformanceSample>
    performance(const std::vector<ScenarioResult> &results,
                const SignatureStore &signatures, WorkloadClass cls);
};

/**
 * Shuffle and split a dataset into train/test partitions.
 *
 * @param samples full dataset (moved from).
 * @param train_fraction fraction assigned to training (paper: 0.6).
 * @param seed shuffle seed.
 */
template <typename Sample>
std::pair<std::vector<Sample>, std::vector<Sample>>
splitDataset(std::vector<Sample> samples, double train_fraction,
             std::uint64_t seed)
{
    Rng rng(seed);
    rng.shuffle(samples);
    const auto cut = static_cast<std::size_t>(
        train_fraction * static_cast<double>(samples.size()));
    std::vector<Sample> train(samples.begin(),
                              samples.begin() +
                                  static_cast<std::ptrdiff_t>(cut));
    std::vector<Sample> test(samples.begin() +
                                 static_cast<std::ptrdiff_t>(cut),
                             samples.end());
    return {std::move(train), std::move(test)};
}

} // namespace adrias::scenario

#endif // ADRIAS_SCENARIO_DATASET_HH
