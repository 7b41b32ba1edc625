#include "layers.hh"

#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench
{

namespace
{

double
share(const SpanTracer &tracer, const char *name, double wall_ns)
{
    return wall_ns > 0.0 ? tracer.totals(name).selfNs / wall_ns : 0.0;
}

/** Mean self time per call in `scale` units (0 with no calls). */
void
perCall(const SpanTracer &tracer, const char *span, const char *name,
        double scale, const char *unit, Report &report)
{
    const SpanTracer::Totals totals = tracer.totals(span);
    const double mean =
        totals.count ? totals.selfNs / static_cast<double>(totals.count)
                     : 0.0;
    report.detail(name, mean / scale, unit, totals.count);
}

} // namespace

void
reportLayers(const SpanTracer &tracer, double traced_ns,
             double untraced_ns, const LayerCounts &counts, Report &report)
{
    const auto perf = tracer.totals("models.perf");
    const auto batch = tracer.totals("models.perf_batch");
    const auto forecast = tracer.totals("models.state_forecast");
    const double model_ns = perf.selfNs + batch.selfNs + forecast.selfNs;
    const double model_rows = static_cast<double>(
        perf.count + forecast.count + counts.batchRows);
    const double decide_ns = tracer.totals("core.place").selfNs +
                             tracer.totals("core.on_completion").selfNs +
                             tracer.totals("serving.submit").selfNs +
                             tracer.totals("serving.pump").selfNs +
                             tracer.totals("serving.begin_epoch").selfNs;
    const double coverage = tracer.selfSumNs() / traced_ns;
    report.check(coverage >= kCoverageMin && coverage <= kCoverageMax,
                 "per-layer self times cover " + std::to_string(coverage) +
                     " of the traced wall time");

    report.metric("trace.overhead_frac",
                  (traced_ns - untraced_ns) / untraced_ns, "frac");
    report.metric("trace.coverage", coverage, "frac");
    report.metric("models.row_us",
                  model_rows > 0 ? model_ns / model_rows * 1e-3 : 0.0,
                  "us", static_cast<std::uint64_t>(model_rows));
    report.metric("decide.self_us",
                  counts.decisions ? decide_ns /
                                         static_cast<double>(
                                             counts.decisions) *
                                         1e-3
                                   : 0.0,
                  "us", counts.decisions);

    report.metric("models.state_forecast_frac",
                  share(tracer, "models.state_forecast", traced_ns),
                  "frac");
    report.metric("models.perf_frac", share(tracer, "models.perf", traced_ns),
                  "frac");
    report.metric("models.perf_batch_frac",
                  share(tracer, "models.perf_batch", traced_ns), "frac");
    report.metric("core.place_self_frac",
                  share(tracer, "core.place", traced_ns), "frac");
    report.metric("core.on_completion_frac",
                  share(tracer, "core.on_completion", traced_ns), "frac");
    report.metric("scenario.tick_self_frac",
                  share(tracer, "scenario.tick", traced_ns), "frac");
    report.metric("scenario.cluster_self_frac",
                  share(tracer, "scenario.cluster_run", traced_ns), "frac");
    report.metric("serving.submit_frac",
                  share(tracer, "serving.submit", traced_ns), "frac");
    report.metric("serving.pump_self_frac",
                  share(tracer, "serving.pump", traced_ns), "frac");
    report.metric("serving.begin_epoch_frac",
                  share(tracer, "serving.begin_epoch", traced_ns), "frac");
    report.metric("loadgen.self_frac",
                  share(tracer, "loadgen.generate", traced_ns), "frac");

    report.metric("models.state_forecast_calls",
                  static_cast<double>(forecast.count), "count");
    report.metric("models.perf_calls", static_cast<double>(perf.count),
                  "count");
    report.metric("models.perf_batch_calls",
                  static_cast<double>(batch.count), "count");
    report.metric("models.perf_batch_rows",
                  static_cast<double>(counts.batchRows), "count");
    report.metric("core.decisions", static_cast<double>(counts.decisions),
                  "count");
    report.metric("core.bootstrap", static_cast<double>(counts.bootstrap),
                  "count");
    report.metric("core.fallback", static_cast<double>(counts.fallback),
                  "count");
    report.metric("serving.pad_frac", counts.padFrac, "frac");
    report.metric("serving.batch_rows", counts.requestsPerBatch, "count");
    report.metric("serving.deadline_flush_frac", counts.deadlineFlushFrac,
                  "frac");
    report.metric("serving.gen_late_frac", counts.genLateFrac, "frac");
    report.metric("testbed.remote_traffic_gb", counts.remoteTrafficGb,
                  "GB");
    report.metric("testbed.link_delivered_gb", counts.linkDeliveredGb,
                  "GB");
    report.metric("scenario.remote_fallbacks",
                  static_cast<double>(counts.remoteFallbacks), "count");
    report.metric("telemetry.watcher_repairs",
                  static_cast<double>(counts.watcherRepairs), "count");

    perCall(tracer, "models.state_forecast", "models.state_forecast_us",
            1e3, "us", report);
    perCall(tracer, "models.perf", "models.perf_us", 1e3, "us", report);
    perCall(tracer, "models.perf_batch", "models.perf_batch_us", 1e3, "us",
            report);
    report.detail("models.perf_batch_rows_per_call",
                  batch.count ? static_cast<double>(counts.batchRows) /
                                    static_cast<double>(batch.count)
                              : 0.0,
                  "count", batch.count);
    perCall(tracer, "core.place", "core.place_self_us", 1e3, "us", report);
    perCall(tracer, "core.on_completion", "core.on_completion_us", 1e3, "us",
            report);
    perCall(tracer, "scenario.tick", "scenario.tick_self_us", 1e3, "us",
            report);
    perCall(tracer, "scenario.cluster_run", "scenario.cluster_self_s", 1e9,
            "s", report);
    perCall(tracer, "serving.submit", "serving.submit_ns", 1.0, "ns",
            report);
    perCall(tracer, "serving.pump", "serving.pump_self_us", 1e3, "us",
            report);
    perCall(tracer, "serving.begin_epoch", "serving.begin_epoch_us", 1e3,
            "us", report);
    perCall(tracer, "loadgen.generate", "loadgen.generate_us", 1e3, "us",
            report);
    report.detail("serving.gen_lag_p99_ms", counts.genLagP99Ms, "ms",
                  counts.genLagSamples);
}

void
writeTrace(const SpanTracer &tracer, const Options &options)
{
    const std::string path = ".bench_build/perfbench-trace-" +
                             options.workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    const auto &names = tracer.names();
    for (const std::string &name : names) {
        const auto totals = tracer.totals(name);
        out << "{\"total\": \"" << name << "\", \"count\": " << totals.count
            << ", \"total_ns\": " << totals.totalNs
            << ", \"self_ns\": " << totals.selfNs << "}\n";
    }
    const auto &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &span = spans[i];
        out << "{\"span\": " << i << ", \"name\": \""
            << names[static_cast<std::size_t>(span.name)]
            << "\", \"parent\": " << span.parent
            << ", \"start_ns\": " << span.startNs
            << ", \"end_ns\": " << span.endNs << "}\n";
    }
}

} // namespace perfbench
