/**
 * @file
 * What every workload shares: command-line options, the offline stack
 * build timed as set-up, the result report and its printing.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adrias.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One named number with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples the number rests on (0 when it is not a sample). */
    std::uint64_t samples = 0;
};

/**
 * A workload's result.  `metrics` go into the final JSON line (the
 * end-to-end set, or the per-layer set in a traced run); `details`
 * are printed in the table only.
 */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Metric> details;

    /** Records a failed correctness check (and says why on stderr). */
    void check(bool ok, const std::string &what);

    void metric(const std::string &name, double value,
                const std::string &unit, std::uint64_t samples = 0);
    void detail(const std::string &name, double value,
                const std::string &unit, std::uint64_t samples = 0);
};

/** Offline stack build and its timing. */
struct Setup
{
    std::unique_ptr<adrias::core::AdriasStack> stack;
    /** Wall seconds of each build. */
    std::vector<double> buildSeconds;
};

/**
 * Build the AdriasStack `builds` times (identical options each time),
 * keep the first, and check every rebuild predicts bit-identically.
 */
Setup buildStack(std::size_t builds, Report &report);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Run-configuration stamp, one JSON object. */
std::string configStamp(const Options &options);

/** Seed of item `index` of a workload seeded with `seed`. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t index);

/** Print the table and the final JSON line. */
void printReport(const Options &options, const Report &report);

void runPairHours(const Options &options,
                  adrias::core::AdriasStack &stack, Report &report);
void runRack(const Options &options, adrias::core::AdriasStack &stack,
             Report &report);
void runServeOpen(const Options &options,
                  adrias::core::AdriasStack &stack, Report &report);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
