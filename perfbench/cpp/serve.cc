/**
 * @file
 * serve-open: an open loop against DecisionService.  One thread is
 * both the load generator and the service's consumer: requests fall
 * due on a fixed schedule at an offered rate, are submitted to 4 shard
 * queues when due, and the service is pumped once per 1 ms tick (b32
 * batches, 4-tick deadlines).  Latency runs from each request's due
 * time to the return of the pump that decided it, so a stall is
 * charged to every request it delays.  Epoch snapshots rotate through
 * windows captured from seeded scenario runs; the app mix has BE, LC
 * and apps with no signature (the bootstrap path).  No testbed ticks
 * run while the clock is running.
 *
 * The deadline is 4 ticks: on one pool thread a padded b32 model batch
 * costs about half a tick and a flush of both classes about a full
 * one.  A partial batch is dispatched one tick before its earliest
 * deadline, so a longer deadline lets more requests share one flush
 * and spaces the heavy pumps further apart.
 */

#include <algorithm>
#include <cmath>
#include <thread>

#include "harness.hh"
#include "layers.hh"
#include "probes.hh"
#include "scenario/engine.hh"
#include "serving/decision_service.hh"

namespace perfbench
{

using namespace adrias;

namespace
{

constexpr std::size_t kShards = 4;
constexpr std::size_t kBatch = 32;
constexpr SimTime kDeadlineTicks = 4;
constexpr double kTickNs = 1e6;
constexpr double kBeta = 0.8;

/** The p99 limit a rate must meet, ms. */
constexpr double kLatencyLimitMs = 10.0;

/** Fixed reference rate for serve latency, decisions/s: far below
 *  saturation, so the figure is latency, not queueing.  Its spacing is
 *  not a whole number of ticks, so due times sweep every phase of a
 *  tick; at exactly one request per tick every latency would sit on a
 *  1 ms step and the median could jump a whole step. */
constexpr double kReferenceRate = 1130.0;

/** Rate search: ladder start, ceiling, bisection steps. */
constexpr double kSearchStart = 1000.0;
constexpr double kSearchMax = 64000.0;
constexpr int kSearchBisections = 6;

/** Requests per epoch; the service is drained before each switch so
 *  the epoch a request reads depends on its index alone. */
constexpr std::size_t kEpochRequests = 32;

/** Share of requests for apps with no signature, and for LC apps. */
constexpr double kNovelShare = 0.10;
constexpr double kLcShare = 0.20;

/** Decisions per block of the block-median p99 (10 beyond each p99). */
constexpr std::size_t kTailBlock = 1000;

/** Every this-many decided ids are re-derived on the scalar path. */
constexpr std::uint64_t kCheckStride = 37;

/**
 * Binned windows captured every 30 s from many short seeded scenarios
 * under random placement, spawn intervals cycling {5,20}..{5,60}.
 * Many independent scenarios (not one long one) keep the share of
 * congested epochs, and so the decision mix, steady from seed to seed.
 */
std::vector<std::vector<ml::Matrix>>
captureWindows(std::uint64_t seed)
{
    static const SimTime kSpawnMax[] = {20, 30, 40, 50, 60};
    constexpr std::size_t kScenarios = 160;
    std::vector<std::vector<std::vector<ml::Matrix>>> per_scenario(
        kScenarios);
    for (std::size_t k = 0; k < kScenarios; ++k) {
        scenario::ScenarioConfig config;
        config.durationSec = 300;
        config.spawnMinSec = 5;
        config.spawnMaxSec = kSpawnMax[k % std::size(kSpawnMax)];
        config.seed = subSeed(seed, 1000 + k);
        scenario::RandomPlacement random(subSeed(seed, 2000 + k));
        scenario::ScenarioEngine engine(config);
        while (!engine.finished()) {
            engine.stepTick(random);
            const SimTime now = engine.now();
            if (now >= static_cast<SimTime>(
                           scenario::ScenarioEngine::kWindowSec) &&
                now % 30 == 0)
                per_scenario[k].push_back(engine.watcher().binnedWindow(
                    scenario::ScenarioEngine::kWindowSec,
                    scenario::ScenarioEngine::kWindowBins));
        }
    }
    // Interleave scenarios so consecutive epochs come from different
    // scenarios.
    std::vector<std::vector<ml::Matrix>> windows;
    for (std::size_t i = 0; i < per_scenario.front().size(); ++i)
        for (auto &scenario_windows : per_scenario)
            windows.push_back(std::move(scenario_windows[i]));
    return windows;
}

const std::vector<ml::Matrix> &
windowFor(const std::vector<std::vector<ml::Matrix>> &windows,
          std::size_t epoch_index, std::size_t shard)
{
    return windows[(epoch_index * kShards + shard) % windows.size()];
}

serving::EpochSnapshot
snapshotFor(const std::vector<std::vector<ml::Matrix>> &windows,
            std::size_t epoch_index)
{
    serving::EpochSnapshot snapshot;
    for (std::size_t s = 0; s < kShards; ++s)
        snapshot.shardWindows.push_back(windowFor(windows, epoch_index, s));
    return snapshot;
}

std::vector<serving::PlacementRequest>
makeRequests(std::uint64_t seed, std::size_t count)
{
    static const std::string kNovel[] = {"novel-etl", "novel-kv",
                                         "novel-graph", "novel-cache"};
    const auto &sparks = workloads::sparkBenchmarks();
    const auto &lcs = workloads::latencyCriticalBenchmarks();
    Rng rng(seed);
    std::vector<serving::PlacementRequest> requests(count);
    for (std::size_t i = 0; i < count; ++i) {
        serving::PlacementRequest &request = requests[i];
        request.id = static_cast<DeploymentId>(i);
        request.shard = i % kShards;
        const double draw = rng.uniform();
        if (draw < kNovelShare) {
            const auto k = static_cast<std::size_t>(rng.uniformInt(0, 3));
            request.app = kNovel[k];
            request.cls = k % 2 ? WorkloadClass::LatencyCritical
                                : WorkloadClass::BestEffort;
        } else {
            const bool lc = draw < kNovelShare + kLcShare;
            const auto &pool = lc ? lcs : sparks;
            const auto &spec = pool[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(pool.size()) - 1))];
            request.app = spec.name;
            request.cls = spec.cls;
        }
    }
    return requests;
}

struct Trial
{
    std::size_t requests = 0;
    std::vector<double> latencyUs;
    std::vector<double> lagUs;
    std::vector<double> backlog;
    std::vector<serving::PlacementDecision> decisions;
    std::uint64_t rejected = 0;
    std::uint64_t undecided = 0;
    std::uint64_t duplicates = 0;
    double wallNs = 0.0;
    double busyNs = 0.0;
    serving::DecisionServiceStats stats;
    std::uint64_t batchRows = 0;

    std::uint64_t missed() const { return stats.missedDeadlines; }
    std::uint64_t failed() const { return rejected + undecided + missed(); }
};

/** Open loop at `rate` for `seconds`.  Returns once every request is
 *  decided or rejected, or 2 s after the schedule ends, leaving the
 *  rest undecided. */
Trial
runTrial(core::AdriasStack &stack,
         const std::vector<std::vector<ml::Matrix>> &windows,
         std::uint64_t seed, double rate, double seconds,
         SpanTracer *tracer)
{
    SpanTracer scratch;
    const SpanIds ids(tracer ? *tracer : scratch);
    Trial trial;
    trial.requests = static_cast<std::size_t>(std::llround(rate * seconds));
    std::vector<serving::PlacementRequest> requests =
        makeRequests(seed, trial.requests);

    std::unique_ptr<TracedPredictor> traced;
    if (tracer)
        traced = std::make_unique<TracedPredictor>(stack.predictor(),
                                                   *tracer, ids);
    const models::PredictorBase &predictor =
        traced ? static_cast<const models::PredictorBase &>(*traced)
               : stack.predictor();
    core::AdriasConfig policy;
    policy.beta = kBeta;
    serving::DecisionServiceConfig config;
    config.shards = kShards;
    config.batchSize = kBatch;
    config.kernelTier = ml::KernelTier::Scalar;
    serving::DecisionService service(predictor, stack.signatures(), policy,
                                     config);
    service.beginEpoch(snapshotFor(windows, 0));

    std::vector<std::uint8_t> answered(trial.requests, 0);
    std::vector<std::int64_t> due_ns(trial.requests);
    trial.latencyUs.reserve(trial.requests);
    trial.lagUs.reserve(trial.requests);
    trial.decisions.reserve(trial.requests);

    const std::int64_t start = nowNs() + 1000000;
    for (std::size_t i = 0; i < trial.requests; ++i)
        due_ns[i] = start + static_cast<std::int64_t>(
                                static_cast<double>(i) * 1e9 / rate);
    const std::int64_t hard_stop =
        start + static_cast<std::int64_t>((seconds + 2.0) * 1e9);

    const auto record = [&](std::vector<serving::PlacementDecision> &&batch) {
        const std::int64_t now = nowNs();
        for (auto &decision : batch) {
            const auto id = static_cast<std::size_t>(decision.id);
            if (id >= trial.requests || answered[id]++) {
                ++trial.duplicates;
                continue;
            }
            trial.latencyUs.push_back(
                static_cast<double>(now - due_ns[id]) * 1e-3);
            trial.decisions.push_back(decision);
        }
    };

    std::size_t next = 0;
    std::size_t epoch_index = 0;
    SimTime last_tick = -1;
    double wait_ns = 0.0;
    while (true) {
        std::int64_t now = nowNs();
        if (now < start) {
            wait_ns += static_cast<double>(start - now);
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(start)));
            continue;
        }
        const auto tick = static_cast<SimTime>(
            static_cast<double>(now - start) / kTickNs);
        {
            ScopedSpan generate(tracer, ids.generate);
            while (next < trial.requests && due_ns[next] <= now) {
                if (next > 0 && next % kEpochRequests == 0) {
                    {
                        ScopedSpan span(tracer, ids.pump);
                        record(service.drain(tick));
                    }
                    ScopedSpan span(tracer, ids.beginEpoch);
                    service.beginEpoch(snapshotFor(windows, ++epoch_index));
                }
                serving::PlacementRequest request = requests[next];
                request.submitted = tick;
                request.deadline = tick + kDeadlineTicks;
                trial.lagUs.push_back(
                    static_cast<double>(now - due_ns[next]) * 1e-3);
                bool accepted;
                {
                    ScopedSpan span(tracer, ids.submit);
                    accepted = service.submit(request);
                }
                if (!accepted) {
                    ++trial.rejected;
                    answered[next] = 1;
                }
                ++next;
            }
            if (tick != last_tick) {
                {
                    ScopedSpan span(tracer, ids.pump);
                    record(service.pump(tick));
                }
                last_tick = tick;
                trial.backlog.push_back(static_cast<double>(
                    next - trial.decisions.size() - trial.rejected));
            }
        }
        if (next == trial.requests && service.inflightCount() == 0)
            break;
        now = nowNs();
        if (now > hard_stop)
            break;
        // Spin to the next event (a due request or the next tick):
        // sleeping overshoots by a large share of a tick on a busy host.
        std::int64_t wake = start + static_cast<std::int64_t>(
                                        static_cast<double>(tick + 1) *
                                        kTickNs);
        if (next < trial.requests)
            wake = std::min(wake, due_ns[next]);
        const std::int64_t wait_from = nowNs();
        while (nowNs() < wake) {
        }
        wait_ns += static_cast<double>(nowNs() - wait_from);
    }
    trial.wallNs = static_cast<double>(nowNs() - start);
    trial.busyNs = trial.wallNs - wait_ns;
    trial.stats = service.stats();
    if (traced)
        trial.batchRows = traced->batchRows();
    trial.undecided = static_cast<std::uint64_t>(
        std::count(answered.begin(), answered.end(), 0));
    return trial;
}

/** p99 as the median over 1000-decision blocks (plain p99 below one
 *  block): one host hiccup at a high rate delays more than 1% of a
 *  trial and would otherwise decide its fate alone. */
double
p99Us(const std::vector<double> &latency_us)
{
    return latency_us.size() < kTailBlock
               ? quantile(latency_us, 0.99)
               : blockMedianQuantile(latency_us, 0.99, kTailBlock);
}

/** A rate is met when its p99 is within the limit and the backlog is
 *  not growing, with nothing refused or left undecided. */
bool
trialPasses(const Trial &trial)
{
    return trial.rejected == 0 && trial.undecided == 0 &&
           trial.duplicates == 0 &&
           p99Us(trial.latencyUs) <= kLatencyLimitMs * 1e3 &&
           !backlogGrowing(trial.backlog, 2.0 * kBatch);
}

/**
 * Every request answered exactly once or rejected, and a sample of
 * decisions re-derived with the single-row Predictor and the β/QoS
 * rule on the epoch each decision reports.
 */
void
checkTrial(core::AdriasStack &stack,
           const std::vector<std::vector<ml::Matrix>> &windows,
           std::uint64_t seed, const Trial &trial, Report &report)
{
    report.check(trial.duplicates == 0,
                 "every serve request answered exactly once or rejected");
    report.check(trial.undecided == 0, "no serve request left undecided");
    const auto requests = makeRequests(seed, trial.requests);
    const auto &predictor = stack.predictor();
    core::AdriasConfig policy;
    policy.beta = kBeta;
    bool all_match = true;
    for (const auto &decision : trial.decisions) {
        if (decision.id % kCheckStride != 0)
            continue;
        const auto &request = requests[decision.id];
        if (!stack.signatures().has(request.app)) {
            all_match &= decision.path == serving::DecisionPath::Bootstrap &&
                         decision.mode == MemoryMode::Remote;
            continue;
        }
        const auto &window =
            windowFor(windows, decision.epoch - 1, request.shard);
        const auto &signature = stack.signatures().get(request.app);
        MemoryMode expected;
        if (request.cls == WorkloadClass::BestEffort) {
            expected = core::AdriasOrchestrator::decideBestEffort(
                predictor.predictPerformance(request.cls, window, signature,
                                             MemoryMode::Local),
                predictor.predictPerformance(request.cls, window, signature,
                                             MemoryMode::Remote),
                policy.beta);
        } else {
            expected = core::AdriasOrchestrator::decideLatencyCritical(
                predictor.predictPerformance(request.cls, window, signature,
                                             MemoryMode::Remote),
                policy.defaultQosP99Ms);
        }
        all_match &= decision.path == serving::DecisionPath::Model &&
                     decision.mode == expected;
    }
    report.check(all_match,
                 "served decisions equal the single-row predictor + rule");
    // The epoch a request reads is fixed by its index.
    bool epochs_ok = true;
    for (const auto &decision : trial.decisions)
        epochs_ok &= decision.epoch ==
                     static_cast<std::uint64_t>(
                         decision.id / kEpochRequests + 1);
    report.check(epochs_ok, "served decisions read their scheduled epoch");
}

std::uint64_t
trialDigest(const Trial &trial)
{
    std::vector<const serving::PlacementDecision *> sorted;
    for (const auto &decision : trial.decisions)
        sorted.push_back(&decision);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto *a, const auto *b) { return a->id < b->id; });
    Digest digest;
    for (const auto *decision : sorted) {
        digest.add(decision->id);
        digest.add(static_cast<std::uint64_t>(decision->mode));
        digest.add(static_cast<std::uint64_t>(decision->path));
        digest.add(decision->epoch);
    }
    return digest.value();
}

double
fraction(std::uint64_t part, std::uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

} // namespace

void
runServeOpen(const Options &options, core::AdriasStack &stack,
             Report &report)
{
    const auto windows = captureWindows(options.seed);
    report.check(!windows.empty(), "captured epoch windows");
    const std::uint64_t ref_seed = subSeed(options.seed, 0);

    if (options.trace) {
        const double seconds = options.seconds / 2.0;
        const Trial plain = runTrial(stack, windows, ref_seed,
                                     kReferenceRate, seconds, nullptr);
        SpanTracer tracer(kKeptSpans);
        const Trial traced = runTrial(stack, windows, ref_seed,
                                      kReferenceRate, seconds, &tracer);
        report.check(tracer.depth() == 0, "every span was closed");
        checkTrial(stack, windows, ref_seed, traced, report);
        report.check(trialDigest(traced) == trialDigest(plain),
                     "traced decisions equal untraced decisions");
        report.attempted = traced.requests;
        report.failed = traced.failed();

        LayerCounts counts;
        counts.decisions = traced.stats.decisions;
        counts.bootstrap = traced.stats.bootstrapDecisions;
        counts.fallback = traced.stats.fallbackDecisions;
        counts.batchRows = traced.batchRows;
        counts.padFrac = fraction(traced.stats.paddedRows, traced.batchRows);
        counts.requestsPerBatch =
            static_cast<double>(traced.stats.decisions) /
            static_cast<double>(std::max<std::uint64_t>(
                traced.stats.batches, 1));
        counts.deadlineFlushFrac =
            fraction(traced.stats.deadlineFlushes, traced.stats.batches);
        std::uint64_t late = 0;
        for (double lag : traced.lagUs)
            late += lag > kTickNs * 1e-3;
        counts.genLateFrac = fraction(late, traced.lagUs.size());
        counts.genLagP99Ms = quantile(traced.lagUs, 0.99) * 1e-3;
        counts.genLagSamples = traced.lagUs.size();
        reportLayers(tracer, traced.busyNs, plain.busyNs, counts, report);
        writeTrace(tracer, options);
        return;
    }

    // Latency at the fixed reference rate.
    const double ref_seconds = std::max(0.4 * options.seconds, 2.0);
    const Trial ref = runTrial(stack, windows, ref_seed, kReferenceRate,
                               ref_seconds, nullptr);
    checkTrial(stack, windows, ref_seed, ref, report);
    report.check(ref.latencyUs.size() >= 1000,
                 "p99 needs at least 1000 decisions (10 beyond it)");
    report.attempted = ref.requests;
    report.failed = ref.failed();
    // Before the search: its trial sizes follow the rates it probes.
    const double peak_rss_mb = peakRssMb();

    // Highest rate meeting the p99 limit with no growing backlog.
    RateSearch search(kSearchStart, kSearchMax, kSearchBisections);
    const double trial_seconds = 0.6 * options.seconds / 12.0;
    std::size_t index = 1;
    double sustained = 0.0;
    while (const auto rate = search.next()) {
        const std::uint64_t seed = subSeed(options.seed, index++);
        const Trial trial =
            runTrial(stack, windows, seed, *rate, trial_seconds, nullptr);
        report.check(trial.duplicates == 0,
                     "every serve request answered at most once");
        const bool pass = trialPasses(trial);
        if (pass && *rate >= search.best())
            sustained = static_cast<double>(trial.decisions.size()) /
                        (trial.wallNs * 1e-9);
        search.report(*rate, pass);
        report.detail("search_rate_" + std::to_string(search.trials()),
                      *rate, pass ? "1/s pass" : "1/s fail", trial.requests);
    }

    const TailPick tail = highestSupportedPercentile(ref.latencyUs);
    report.metric("decide_p50_us", quantile(ref.latencyUs, 0.5), "us",
                  ref.latencyUs.size());
    report.metric("decide_p99_us", p99Us(ref.latencyUs), "us",
                  ref.latencyUs.size());
    report.metric("decisions_per_s", sustained, "1/s", search.trials());
    report.metric("remote_frac",
                  fraction(ref.stats.remoteDecisions, ref.stats.decisions),
                  "frac", ref.stats.decisions);
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");
    report.detail("decide_tail_pct", tail.percentile, "pct",
                  ref.latencyUs.size());
    report.detail("serve_max_offered_rate", search.best(), "1/s");
    report.detail("serve_reference_rate", kReferenceRate, "1/s");
    report.detail("serve_gen_lag_p99_ms", quantile(ref.lagUs, 0.99) * 1e-3,
                  "ms", ref.lagUs.size());
    report.detail("failed_frac", fraction(report.failed, report.attempted),
                  "frac", report.attempted);
    report.detail("missed_deadlines", static_cast<double>(ref.missed()),
                  "count");
    report.detail("rejected", static_cast<double>(ref.rejected), "count");
}

} // namespace perfbench
