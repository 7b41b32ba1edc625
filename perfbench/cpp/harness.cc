#include "harness.hh"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "arith.hh"
#include "common/threadpool.hh"
#include "ml/simd.hh"
#include "probes.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

using namespace adrias;

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::uint64_t samples)
{
    metrics.push_back({name, value, unit, samples});
}

void
Report::detail(const std::string &name, double value,
               const std::string &unit, std::uint64_t samples)
{
    details.push_back({name, value, unit, samples});
}

namespace
{

/**
 * The offline phase every workload starts from.  The stack's own seed
 * is fixed: the trained model is part of the system under test, and
 * --seed varies the load it serves.  Three collection scenarios and 12
 * epochs keep one build near a second; the model dimensions stay at
 * their defaults so inference costs what it costs in the paper setup.
 */
core::AdriasStack::BuildOptions
stackOptions()
{
    core::AdriasStack::BuildOptions options;
    options.scenarios = 3;
    options.scenarioDurationSec = 1200;
    options.seed = 100;
    options.model.epochs = 12;
    return options;
}

/** One prediction that pins the trained weights. */
double
probePrediction(core::AdriasStack &stack)
{
    const auto &trace = stack.traces().front().trace;
    const auto window = scenario::historyWindowAt(
        trace, static_cast<SimTime>(trace.size() / 2));
    const auto &name = workloads::sparkBenchmarks().front().name;
    return stack.predictor().predictPerformance(
        WorkloadClass::BestEffort, window, stack.signatures().get(name),
        MemoryMode::Remote);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

} // namespace

Setup
buildStack(std::size_t builds, Report &report)
{
    Setup setup;
    double reference = 0.0;
    for (std::size_t b = 0; b < builds; ++b) {
        const std::int64_t start = nowNs();
        auto stack = std::make_unique<core::AdriasStack>(stackOptions());
        setup.buildSeconds.push_back(
            static_cast<double>(nowNs() - start) * 1e-9);
        const double probe = probePrediction(*stack);
        if (b == 0) {
            reference = probe;
            setup.stack = std::move(stack);
        } else {
            report.check(probe == reference,
                         "rebuilt stack predicts differently");
        }
    }
    return setup;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t index)
{
    // splitmix64 of (seed, index): distinct, well-mixed item seeds.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
configStamp(const Options &options)
{
    std::ostringstream out;
    out << "{\"cpu\": " << jsonString(cpuModel())
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"compiler\": " << jsonString("g++ " __VERSION__)
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
#ifdef ADRIAS_ENABLE_INVARIANTS
        << ", \"invariants\": true"
#else
        << ", \"invariants\": false"
#endif
        << ", \"obs\": " << (ADRIAS_OBS_ENABLED ? "true" : "false")
        << ", \"simd\": " << (ADRIAS_SIMD_ENABLED ? "true" : "false")
        << ", \"kernel_tier\": "
        << jsonString(ml::kernelTierName(ml::effectiveKernelTier()))
        << ", \"pool_threads\": " << ThreadPool::global().threadCount()
        << ", \"workload\": " << jsonString(options.workload)
        << ", \"seed\": " << options.seed
        << ", \"seconds\": " << jsonNumber(options.seconds)
        << ", \"trace\": " << (options.trace ? 1 : 0) << "}";
    return out.str();
}

void
printReport(const Options &options, const Report &report)
{
    std::printf("config %s\n", configStamp(options).c_str());
    const auto row = [](const char *kind, const Metric &m) {
        if (m.samples > 0)
            std::printf("%-7s %-34s %16.6f %-8s n=%llu\n", kind,
                        m.name.c_str(), m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(m.samples));
        else
            std::printf("%-7s %-34s %16.6f %s\n", kind, m.name.c_str(),
                        m.value, m.unit.c_str());
    };
    for (const Metric &m : report.metrics)
        row("metric", m);
    for (const Metric &m : report.details)
        row("detail", m);

    std::ostringstream json;
    json << "{\"correct\": " << (report.correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        json << (i ? ", " : "") << jsonString(m.name)
             << ": {\"value\": " << jsonNumber(m.value)
             << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

} // namespace perfbench
