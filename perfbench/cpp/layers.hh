/**
 * @file
 * The per-layer report of a traced run.  Every workload emits the same
 * metric names, so a layer a workload leaves idle reads 0 there.
 * Times are shares of the traced end-to-end wall time (they add up to
 * trace.coverage) plus two per-unit costs every workload exercises;
 * per-call times with their sample counts go to the table.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>

#include "arith.hh"
#include "harness.hh"

namespace perfbench
{

/** Counts a workload gathers from the library's stats accessors. */
struct LayerCounts
{
    std::uint64_t decisions = 0;
    std::uint64_t bootstrap = 0;
    std::uint64_t fallback = 0;
    std::uint64_t batchRows = 0; ///< rows into predictPerformanceBatch
    double padFrac = 0.0;
    double requestsPerBatch = 0.0;
    double deadlineFlushFrac = 0.0;
    double genLateFrac = 0.0;
    double genLagP99Ms = 0.0;
    std::uint64_t genLagSamples = 0;
    double remoteTrafficGb = 0.0;
    double linkDeliveredGb = 0.0;
    std::uint64_t remoteFallbacks = 0;
    std::uint64_t watcherRepairs = 0;
};

/**
 * Self times are reconciled against end-to-end wall time: the traced
 * run fails its check when the summed self times fall outside
 * [kCoverageMin, kCoverageMax] of the traced wall time.
 */
constexpr double kCoverageMin = 0.90;
constexpr double kCoverageMax = 1.01;

/** Raw spans kept for the trace file; totals cover every span. */
constexpr std::size_t kKeptSpans = 20000;

/**
 * Emit every per-layer metric of a traced run.
 *
 * @param traced_ns end-to-end wall time of the traced run.
 * @param untraced_ns the same work's wall time without tracing.
 */
void reportLayers(const SpanTracer &tracer, double traced_ns,
                  double untraced_ns, const LayerCounts &counts,
                  Report &report);

/** Write the kept raw spans and per-name totals as JSON lines. */
void writeTrace(const SpanTracer &tracer, const Options &options);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
