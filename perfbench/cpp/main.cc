/**
 * @file
 * perfbench: builds the offline stack, runs one workload and
 * prints the table and the final JSON result line.
 *
 *   perfbench --workload pair-hours|rack-4x4|serve-open --seed N
 *             --seconds S --trace 0|1
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the same
 * work untraced and then traced and reports the per-layer metrics.
 * Exit code 1 when a correctness check fails, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "arith.hh"
#include "harness.hh"
#include "ml/simd.hh"

namespace
{

/** Stack builds per end-to-end run; setup_s is their median. */
constexpr std::size_t kSetupBuilds = 5;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "pair-hours|rack-4x4|serve-open --seed N --seconds S "
                 "--trace 0|1\n",
                 why);
    std::exit(2);
}

perfbench::Options
parse(int argc, char **argv)
{
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage("missing value");
        const std::string key = argv[i];
        const char *value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            options.workload = value;
        } else if (key == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
            if (*value == '\0' || *end != '\0')
                usage("bad --seed");
        } else if (key == "--seconds") {
            options.seconds = std::strtod(value, &end);
            if (*value == '\0' || *end != '\0' || !(options.seconds > 0.0) ||
                options.seconds > 120.0)
                usage("bad --seconds");
        } else if (key == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage("bad --trace");
            options.trace = value[0] == '1';
        } else {
            usage("unknown argument");
        }
    }
    if (options.workload != "pair-hours" && options.workload != "rack-4x4" &&
        options.workload != "serve-open")
        usage("unknown --workload");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options options = parse(argc, argv);
    adrias::ml::setKernelTier(adrias::ml::KernelTier::Scalar);

    Report report;
    Setup setup = buildStack(options.trace ? 1 : kSetupBuilds, report);
    if (!options.trace)
        report.metric("setup_s", quantile(setup.buildSeconds, 0.5), "s",
                      setup.buildSeconds.size());

    if (options.workload == "pair-hours")
        runPairHours(options, *setup.stack, report);
    else if (options.workload == "rack-4x4")
        runRack(options, *setup.stack, report);
    else
        runServeOpen(options, *setup.stack, report);

    printReport(options, report);
    return report.correct ? 0 : 1;
}
