/**
 * @file
 * The two simulation workloads.
 *
 * pair-hours: the paper's protocol — one-hour random scenarios on the
 * ThymesisFlow pair, spawn intervals cycling {5,20}..{5,60}, each
 * arrival placed inline by AdriasOrchestrator (β = 0.8) through
 * ScenarioEngine::stepTick.  Exercises the simulation path and the
 * single-row decision path at the paper's arrival rate.
 *
 * rack-4x4: a congested rack — rack-4x4-mixed, spawn 3–10 s, at most
 * 20 apps per node, placed by AdriasClusterOrchestrator::placeRack
 * (β = 0.8, QoS 5 ms) through ClusterScenarioRunner::run.  The only
 * workload that runs RackTestbed, routing and capacity accounting.
 *
 * Both run whole simulated hours until --seconds of wall time are
 * spent.  Placement-quality figures come from a fixed prefix of hours
 * so they depend on the seed alone, never on how fast the host is.
 */

#include <algorithm>
#include <map>
#include <tuple>

#include "harness.hh"
#include "layers.hh"
#include "probes.hh"
#include "scenario/engine.hh"

namespace perfbench
{

using namespace adrias;

namespace
{

constexpr double kBeta = 0.8;
constexpr double kRackQosMs = 5.0;
constexpr std::size_t kPairQualityHours = 60;
constexpr std::size_t kRackQualityHours = 16;
constexpr SimTime kHourSec = 3600;

/** Decisions per block of the block-median p99 (10 beyond each p99). */
constexpr std::size_t kTailBlock = 1000;

/** What one pass over a run of simulated hours produced. */
struct SimPass
{
    double wallNs = 0.0;
    std::size_t hours = 0;
    std::vector<double> latencyUs;
    Digest digest;
    std::uint64_t decisions = 0;
    std::uint64_t bootstrap = 0;
    std::uint64_t fallback = 0;

    // Over the first quality hours only.
    std::vector<double> beExecSec;
    std::uint64_t lcRuns = 0;
    std::uint64_t lcMisses = 0;
    std::uint64_t qualityDecisions = 0;
    std::uint64_t qualityRemote = 0;

    double remoteTrafficGb = 0.0;
    double linkDeliveredGb = 0.0;
    std::uint64_t remoteFallbacks = 0;
    std::uint64_t watcherRepairs = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t dropped = 0;
    std::uint64_t batchRows = 0;
};

/** Runs hours until the budget is spent (or exactly `fixed_hours`). */
template <typename HourFn>
void
runHours(SimPass &pass, double budget_sec, std::size_t min_hours,
         std::size_t fixed_hours, HourFn &&hour)
{
    while (true) {
        if (fixed_hours > 0) {
            if (pass.hours >= fixed_hours)
                break;
        } else if (pass.hours >= min_hours &&
                   pass.wallNs * 1e-9 >= budget_sec) {
            break;
        }
        hour(pass.hours);
        ++pass.hours;
    }
}

void
addQuality(SimPass &pass, const scenario::DeploymentRecord &record,
           double qos_ms)
{
    if (record.cls == WorkloadClass::BestEffort) {
        pass.beExecSec.push_back(record.execTimeSec);
    } else if (record.cls == WorkloadClass::LatencyCritical) {
        ++pass.lcRuns;
        pass.lcMisses += record.p99Ms > qos_ms;
    }
}

SimPass
pairPass(core::AdriasStack &stack, std::uint64_t seed, SpanTracer *tracer,
         double budget_sec, std::size_t fixed_hours)
{
    static const SimTime kSpawnMax[] = {20, 30, 40, 50, 60};
    SpanTracer scratch;
    const SpanIds ids(tracer ? *tracer : scratch);
    SimPass pass;
    runHours(pass, budget_sec, kPairQualityHours, fixed_hours,
             [&](std::size_t h) {
        scenario::ScenarioConfig config;
        config.durationSec = kHourSec;
        config.spawnMinSec = 5;
        config.spawnMaxSec = kSpawnMax[h % std::size(kSpawnMax)];
        config.seed = subSeed(seed, h);
        // Each hour starts from the offline signature set.
        scenario::SignatureStore store = stack.signatures();
        std::unique_ptr<TracedPredictor> traced;
        if (tracer)
            traced = std::make_unique<TracedPredictor>(stack.predictor(),
                                                       *tracer, ids);
        const models::PredictorBase &predictor =
            traced ? static_cast<const models::PredictorBase &>(*traced)
                   : stack.predictor();
        core::AdriasConfig policy_config;
        policy_config.beta = kBeta;
        core::AdriasOrchestrator orchestrator(predictor, store,
                                              policy_config);
        MeasuredPlacement policy(orchestrator, tracer, ids, pass.latencyUs,
                                 pass.digest);

        const std::int64_t start = nowNs();
        scenario::ScenarioEngine engine(config);
        while (!engine.finished()) {
            ScopedSpan span(tracer, ids.tick);
            engine.stepTick(policy);
        }
        const scenario::ScenarioResult result = engine.finish();
        pass.wallNs += static_cast<double>(nowNs() - start);

        const core::OrchestratorStats stats = orchestrator.stats();
        const std::uint64_t decisions =
            stats.localPlacements + stats.remotePlacements;
        pass.decisions += decisions;
        pass.bootstrap += stats.bootstrapPlacements;
        pass.fallback += stats.fallbackPlacements;
        pass.remoteTrafficGb += result.totalRemoteTrafficGB;
        pass.watcherRepairs += result.watcherHealth.samplesRepaired;
        if (h < kPairQualityHours) {
            pass.qualityDecisions += decisions;
            pass.qualityRemote += stats.remotePlacements;
            for (const auto &record : result.records)
                addQuality(pass, record, orchestrator.qosFor(record.name));
        }
        if (traced)
            pass.batchRows += traced->batchRows();
    });
    return pass;
}

/**
 * Reconcile one rack hour: every completed BE/LC deployment matches a
 * distinct arrival the policy admitted, the runner dropped at least the
 * arrivals the policy saw land on a full node, and the admitted
 * arrivals not yet completed fit in what was still running at the end.
 * Returns arrivals = placed + dropped over all classes.
 */
std::uint64_t
reconcileRack(const MeasuredClusterPolicy &policy,
              const scenario::ClusterResult &result, Report &report)
{
    std::map<std::tuple<std::size_t, SimTime, std::string>, int> admitted;
    std::uint64_t policy_drops = 0;
    for (const auto &arrival : policy.arrivals()) {
        if (arrival.dropped)
            ++policy_drops;
        else
            ++admitted[{arrival.node, arrival.now, arrival.app}];
    }
    std::uint64_t placed = 0, running_end = 0;
    std::int64_t unmatched_admitted =
        static_cast<std::int64_t>(policy.arrivals().size() - policy_drops);
    bool phantom = false;
    for (std::size_t n = 0; n < result.nodes.size(); ++n) {
        const auto &node = result.nodes[n];
        std::int64_t finishing_last_tick = 0;
        for (const auto &record : node.records) {
            finishing_last_tick += record.completion == kHourSec;
            if (record.cls == WorkloadClass::Interference)
                continue;
            auto it = admitted.find({n, record.arrival, record.name});
            if (it == admitted.end() || it->second == 0) {
                phantom = true;
                continue;
            }
            --it->second;
            --unmatched_admitted;
        }
        const std::int64_t still_running =
            (node.concurrency.empty() ? 0 : node.concurrency.back()) -
            finishing_last_tick;
        report.check(still_running >= 0,
                     "rack node ends with a negative running count");
        running_end += static_cast<std::uint64_t>(
            std::max<std::int64_t>(still_running, 0));
        placed += node.records.size();
    }
    placed += running_end;
    report.check(!phantom, "rack record without a matching arrival");
    report.check(result.droppedArrivals >= policy_drops,
                 "rack runner admitted an arrival onto a full node");
    report.check(unmatched_admitted >= 0 &&
                     static_cast<std::uint64_t>(unmatched_admitted) <=
                         running_end,
                 "rack lost admitted deployments");
    return placed + result.droppedArrivals;
}

SimPass
rackPass(core::AdriasStack &stack, std::uint64_t seed, SpanTracer *tracer,
         double budget_sec, std::size_t fixed_hours, Report &report)
{
    SpanTracer scratch;
    const SpanIds ids(tracer ? *tracer : scratch);
    SimPass pass;
    const testbed::Topology topology =
        testbed::topologyByName("rack-4x4-mixed");
    runHours(pass, budget_sec, kRackQualityHours, fixed_hours,
             [&](std::size_t h) {
        scenario::ScenarioConfig config;
        config.durationSec = kHourSec;
        config.spawnMinSec = 3;
        config.spawnMaxSec = 10;
        config.maxConcurrent = 20;
        config.seed = subSeed(seed, h);
        scenario::SignatureStore store = stack.signatures();
        std::unique_ptr<TracedPredictor> traced;
        if (tracer)
            traced = std::make_unique<TracedPredictor>(stack.predictor(),
                                                       *tracer, ids);
        const models::PredictorBase &predictor =
            traced ? static_cast<const models::PredictorBase &>(*traced)
                   : stack.predictor();
        core::AdriasConfig policy_config;
        policy_config.beta = kBeta;
        policy_config.defaultQosP99Ms = kRackQosMs;
        core::AdriasClusterOrchestrator orchestrator(predictor, store,
                                                     policy_config);
        MeasuredClusterPolicy policy(orchestrator, config.maxConcurrent,
                                     tracer, ids, pass.latencyUs,
                                     pass.digest);

        const std::int64_t start = nowNs();
        scenario::ClusterScenarioRunner runner(topology, config);
        scenario::ClusterResult result;
        {
            ScopedSpan span(tracer, ids.clusterRun);
            result = runner.run(policy);
        }
        pass.wallNs += static_cast<double>(nowNs() - start);

        const std::uint64_t decisions = policy.arrivals().size();
        pass.decisions += decisions;
        pass.arrivals += reconcileRack(policy, result, report);
        pass.dropped += result.droppedArrivals;
        pass.remoteFallbacks += result.remoteFallbacks;
        pass.remoteTrafficGb += result.totalRemoteTrafficGB;
        for (const auto &link : result.linkTotals)
            pass.linkDeliveredGb += link.deliveredGb;
        for (const auto &node : result.nodes)
            pass.watcherRepairs += node.watcherHealth.samplesRepaired;
        if (h < kRackQualityHours) {
            pass.qualityDecisions += decisions;
            pass.qualityRemote += policy.remoteDecisions();
            for (const auto &entry : result.allRecords())
                addQuality(pass, *entry.record, kRackQosMs);
        }
        if (traced)
            pass.batchRows += traced->batchRows();
    });
    return pass;
}

/** The end-to-end report shared by both simulation workloads. */
void
reportSimPass(const SimPass &pass, Report &report)
{
    report.check(pass.latencyUs.size() == pass.decisions,
                 "every policy decision was timed");
    const TailPick tail = highestSupportedPercentile(pass.latencyUs);
    report.check(tail.percentile >= 99.0,
                 "p99 needs 10 samples beyond it (1000 decisions)");
    report.attempted = pass.decisions;
    report.failed = pass.fallback;

    report.metric("decide_p50_us", quantile(pass.latencyUs, 0.5), "us",
                  pass.latencyUs.size());
    report.metric("decide_p99_us",
                  blockMedianQuantile(pass.latencyUs, 0.99, kTailBlock), "us",
                  pass.latencyUs.size());
    report.metric("decisions_per_s",
                  static_cast<double>(pass.decisions) / (pass.wallNs * 1e-9),
                  "1/s", pass.decisions);
    report.metric("remote_frac",
                  static_cast<double>(pass.qualityRemote) /
                      static_cast<double>(pass.qualityDecisions),
                  "frac", pass.qualityDecisions);

    report.metric("peak_rss_mb", peakRssMb(), "MiB");

    report.detail("sim_hours_per_s",
                  static_cast<double>(pass.hours) / (pass.wallNs * 1e-9),
                  "1/s", pass.hours);
    report.detail("decide_tail_pct", tail.percentile, "pct",
                  pass.latencyUs.size());
    report.detail("failed_frac",
                  static_cast<double>(report.failed) /
                      static_cast<double>(report.attempted),
                  "frac", report.attempted);
    report.detail("be_exec_p50_s", quantile(pass.beExecSec, 0.5), "s",
                  pass.beExecSec.size());
    report.detail("lc_qos_miss_frac",
                  pass.lcRuns ? static_cast<double>(pass.lcMisses) /
                                    static_cast<double>(pass.lcRuns)
                              : 0.0,
                  "frac", pass.lcRuns);
    report.detail("placement_digest",
                  static_cast<double>(pass.digest.value() >> 11), "hash");
}

LayerCounts
simCounts(const SimPass &pass)
{
    LayerCounts counts;
    counts.decisions = pass.decisions;
    counts.bootstrap = pass.bootstrap;
    counts.fallback = pass.fallback;
    counts.batchRows = pass.batchRows;
    counts.remoteTrafficGb = pass.remoteTrafficGb;
    counts.linkDeliveredGb = pass.linkDeliveredGb;
    counts.remoteFallbacks = pass.remoteFallbacks;
    counts.watcherRepairs = pass.watcherRepairs;
    return counts;
}

/**
 * A traced run: the untraced pass gets half the budget, then the
 * traced pass replays exactly the same hours, so the two can be
 * compared decision by decision and their wall times give the
 * tracing overhead.
 */
template <typename PassFn>
void
tracedSimRun(const Options &options, Report &report, PassFn &&pass_fn)
{
    const SimPass plain = pass_fn(nullptr, options.seconds / 2.0, 0);
    SpanTracer tracer(kKeptSpans);
    const SimPass traced = pass_fn(&tracer, 0.0, plain.hours);
    report.check(tracer.depth() == 0, "every span was closed");
    report.check(traced.digest.value() == plain.digest.value(),
                 "traced placements equal untraced placements");
    report.attempted = traced.decisions;
    report.failed = traced.fallback;
    reportLayers(tracer, traced.wallNs, plain.wallNs, simCounts(traced),
                 report);
    writeTrace(tracer, options);
}

} // namespace

void
runPairHours(const Options &options, core::AdriasStack &stack,
             Report &report)
{
    const auto pass_fn = [&](SpanTracer *tracer, double budget,
                             std::size_t hours) {
        return pairPass(stack, options.seed, tracer, budget, hours);
    };
    if (options.trace) {
        tracedSimRun(options, report, pass_fn);
        return;
    }
    reportSimPass(pass_fn(nullptr, options.seconds, 0), report);
}

void
runRack(const Options &options, core::AdriasStack &stack, Report &report)
{
    const auto pass_fn = [&](SpanTracer *tracer, double budget,
                             std::size_t hours) {
        return rackPass(stack, options.seed, tracer, budget, hours, report);
    };
    if (options.trace) {
        tracedSimRun(options, report, pass_fn);
        return;
    }
    const SimPass pass = pass_fn(nullptr, options.seconds, 0);
    reportSimPass(pass, report);
    report.detail("rack_arrivals", static_cast<double>(pass.arrivals),
                  "count");
    report.detail("dropped_frac",
                  static_cast<double>(pass.dropped) /
                      static_cast<double>(pass.arrivals),
                  "frac", pass.arrivals);
    report.detail("remote_fallbacks",
                  static_cast<double>(pass.remoteFallbacks), "count");
}

} // namespace perfbench
