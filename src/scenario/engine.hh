/**
 * @file
 * Scenario generation and execution (paper §V-B1): random application
 * arrivals with configurable spawn intervals, random benchmark choice
 * from the Spark/LC/iBench pools, and tick-by-tick execution against
 * the simulated ThymesisFlow testbed while the Watcher samples
 * performance events.
 *
 * ScenarioEngine runs one scenario.  run() drives it to completion in
 * one call; recovery drives the same loop one tick at a time through
 * stepTick(), with every piece of evolving state (RNG streams, testbed
 * noise, watcher history, running instances, partial results) held as
 * members so it can be snapshotted between ticks and restored
 * bit-exactly after a crash.
 *
 * Placement decisions flow through an optional DecisionSink *before*
 * they are applied (write-ahead): the recovery layer appends them to a
 * durable journal so a crash between checkpoints can be replayed.
 * During replay the engine still queries the policy (keeping policy
 * RNG streams advancing identically) and cross-checks each re-derived
 * decision against the queued journal entry; any divergence is a
 * determinism bug and panics rather than silently forking the run.
 *
 * The arrival draw, the completion record and the configuration check
 * declared here are shared with the cluster runner (cluster.hh).
 */

#ifndef ADRIAS_SCENARIO_ENGINE_HH
#define ADRIAS_SCENARIO_ENGINE_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "common/io/checkpoint_annotations.hh"
#include "common/io/checkpointable.hh"
#include "common/rng.hh"
#include "fault/fault.hh"
#include "scenario/placement.hh"
#include "scenario/runtime.hh"
#include "telemetry/watcher.hh"
#include "testbed/testbed.hh"
#include "workloads/workload.hh"

namespace adrias::scenario
{

/** Knobs of one randomized deployment scenario. */
struct ScenarioConfig
{
    /** Scenario length, seconds (paper: 3600). */
    SimTime durationSec = 3600;

    /** Arrival spacing is uniform in [spawnMin, spawnMax] seconds. */
    SimTime spawnMinSec = 5;
    SimTime spawnMaxSec = 40;

    std::uint64_t seed = 1;

    /** Concurrency cap (paper footnote 3: at most 35). */
    std::size_t maxConcurrent = 35;

    /** Probability an arrival is an iBench trasher. */
    double ibenchFraction = 0.35;

    /** Probability an arrival is a latency-critical server. */
    double lcFraction = 0.15;

    /** Relative measurement noise of the counters. */
    double counterNoise = 0.01;

    /**
     * Deterministic fault schedule executed alongside the scenario
     * (empty by default).  Link faults derate the testbed's channel;
     * counter faults corrupt the Watcher's input; predictor faults are
     * picked up by a GuardedPredictor built over the same schedule.
     */
    fault::FaultSchedule faults{};

    /**
     * Named rack topology (testbed::topologyByName) the scenario runs
     * on.  The default "paper-pair" reproduces the two-node prototype
     * bit for bit.  The single-node engine accepts any 1×N topology
     * (its testbed calibration then comes from the topology's node and
     * first link); multi-node topologies are driven by
     * ClusterScenarioRunner.
     */
    std::string topology = "paper-pair";
};

/** Everything a finished scenario produced. */
struct ScenarioResult
{
    /** Per-second counter samples (the Watcher's trace). */
    std::vector<testbed::CounterSample> trace;

    /** Per-second number of concurrently running deployments. */
    std::vector<int> concurrency;

    /** Completed deployments (all classes, trashers included). */
    std::vector<DeploymentRecord> records;

    /** Total ThymesisFlow traffic over the scenario, GB. */
    double totalRemoteTrafficGB = 0.0;

    /** What the fault injector actually did during the run. */
    fault::FaultStats faultSummary{};

    /** Watcher self-repair tallies at scenario end. */
    telemetry::WatcherHealth watcherHealth{};

    /** Records of one class, excluding trashers unless asked. */
    std::vector<const DeploymentRecord *>
    recordsOfClass(WorkloadClass cls) const;
};

/** A random placement hook used for trace collection (paper: apps are
 *  deployed "randomly on local or remote memory").  Checkpointable so
 *  a crash-recovered run re-derives the exact same placements. */
class RandomPlacement : public PlacementPolicy, public io::Checkpointable
{
  public:
    explicit RandomPlacement(std::uint64_t seed = 99) : rng(seed) {}

    std::string name() const override { return "random"; }

    MemoryMode
    place(const workloads::WorkloadSpec &, const telemetry::Watcher &,
          SimTime) override
    {
        return rng.bernoulli(0.5) ? MemoryMode::Remote : MemoryMode::Local;
    }

    std::string checkpointTag() const override
    {
        return "random-placement";
    }

    /** Serialize the policy's exact RNG stream position. */
    void saveState(io::BinaryWriter &out) const override
    {
        rng.saveState(out);
    }

    /** Restore a position saved with saveState(). */
    [[nodiscard]] Result<void>
    restoreState(io::BinaryReader &in) override
    {
        rng.restoreState(in);
        return in.status();
    }

  private:
    Rng rng;
};

/**
 * Binned history window S for a deployment that arrived at `arrival`
 * within a recorded trace: the 120 s (or whatever is available) before
 * arrival, aggregated into ScenarioEngine::kWindowBins steps.  Returns
 * an empty sequence for arrivals in the very first second.
 */
std::vector<ml::Matrix>
historyWindowAt(const std::vector<testbed::CounterSample> &trace,
                SimTime arrival);

/**
 * Reject a configuration no scenario loop can run: a non-positive
 * duration, an empty spawn interval, or arrival fractions summing past
 * one.  A loop without a fault injector also rejects a non-empty fault
 * schedule rather than ignore it.
 *
 * @param who names the caller in the error message.
 * @param injectsFaults whether the calling loop runs config.faults.
 */
void checkScenarioConfig(const ScenarioConfig &config,
                         const std::string &who, bool injectsFaults);

/**
 * Draw one arrival's application (paper §V-B1): an iBench trasher with
 * probability ibenchFraction, an LC server with probability lcFraction,
 * otherwise a Spark job, each uniformly from its pool.  Trashers come
 * back with class Interference.
 */
const workloads::WorkloadSpec &drawArrival(Rng &rng,
                                           const ScenarioConfig &config);

/**
 * The completion record of a finished deployment: its performance
 * numbers plus the binned history window at arrival and its execution
 * window, both cut from the node trace it ran under.
 */
DeploymentRecord
completionRecord(const workloads::WorkloadInstance &done,
                 SimTime completion,
                 const std::vector<testbed::CounterSample> &trace);

/** One policy placement decision, as journaled write-ahead. */
struct PlacementDecision
{
    /** Tick on which the decision was made. */
    SimTime tick = 0;

    /** Deployment id assigned to the arrival. */
    DeploymentId id = 0;

    /** Spec (by canonical name) the decision was made for. */
    std::string specName;

    /** The chosen placement. */
    MemoryMode mode = MemoryMode::Local;

    bool
    operator==(const PlacementDecision &other) const
    {
        return tick == other.tick && id == other.id &&
               specName == other.specName && mode == other.mode;
    }
};

/**
 * Observer of placement decisions, invoked BEFORE a decision takes
 * effect.  Implementations must make the decision durable before
 * returning (write-ahead contract); throwing aborts the tick.
 */
class DecisionSink
{
  public:
    virtual ~DecisionSink() = default;

    /** Called once per policy placement, before the app deploys. */
    virtual void onDecision(const PlacementDecision &decision) = 0;
};

/** One scenario, run whole (run()) or tick by tick (stepTick()),
 *  with full state capture between ticks. */
class ScenarioEngine : public io::Checkpointable
{
  public:
    /**
     * @param config scenario knobs (see checkScenarioConfig()).
     * @param params testbed calibration.
     */
    explicit ScenarioEngine(ScenarioConfig config,
                            testbed::TestbedParams params = {});

    /** @return true once the configured duration has elapsed. */
    bool finished() const { return now_ >= config.durationSec; }

    /** Current simulation time (ticks executed so far). */
    SimTime now() const { return now_; }

    /**
     * Execute exactly one simulated second: arrivals, contention,
     * telemetry, progress and completions.
     *
     * @pre !finished()
     */
    void stepTick(PlacementPolicy &policy,
                  RuntimePolicy *runtime = nullptr);

    /**
     * Finalize and move the result out (fault summary and watcher
     * health are stamped here).
     *
     * @pre finished()
     */
    ScenarioResult finish();

    /**
     * Execute the scenario to completion: stepTick() until finished(),
     * then finish().
     *
     * @param policy decides local/remote for BE and LC arrivals
     *        (iBench trashers are always placed randomly, as in the
     *        paper's trace-collection protocol).
     * @param runtime optional L2 runtime manager invoked every tick
     *        (may migrate running instances between pools).
     * @return the full trace and all completion records.
     */
    ScenarioResult run(PlacementPolicy &policy,
                       RuntimePolicy *runtime = nullptr);

    /** Live telemetry (for policies queried outside stepTick). */
    const telemetry::Watcher &watcher() const { return watcherState; }

    /** Number of currently running deployments. */
    std::size_t runningCount() const { return running.size(); }

    /** Attach/detach the write-ahead decision observer. */
    void setDecisionSink(DecisionSink *sink) { decisionSink = sink; }

    /**
     * Queue one journaled decision for replay verification.  While the
     * queue is non-empty, stepTick() checks each policy decision
     * against the queue head instead of notifying the sink.
     */
    void queueReplayDecision(const PlacementDecision &decision);

    /** Journal entries still awaiting replay. */
    std::size_t pendingReplay() const { return replayQueue.size(); }

    // --- Checkpointable ------------------------------------------------
    std::string checkpointTag() const override
    {
        return "scenario-engine";
    }

    /**
     * Serialize all evolving state.  Must not be called while replay
     * decisions are pending (the queue belongs to the previous journal
     * epoch); the CheckpointManager defers checkpoints until the queue
     * drains.
     */
    void saveState(io::BinaryWriter &out) const override;

    /** Restore a payload written by saveState(). */
    [[nodiscard]] Result<void>
    restoreState(io::BinaryReader &in) override;

    /** History window length r and horizon z, seconds (paper: 120). */
    static constexpr std::size_t kWindowSec = 120;

    /** Sequence bins used for model inputs (10 s bins over 120 s). */
    static constexpr std::size_t kWindowBins = 12;

  private:
    ScenarioConfig config ADRIAS_NOT_CHECKPOINTED(
        "construction-time configuration; restoreState validates the "
        "snapshot against it");
    testbed::TestbedParams testbedParams ADRIAS_NOT_CHECKPOINTED(
        "construction-time calibration, re-supplied on restore");

    // Evolving state, in construction order (the Testbed seed is the
    // scenario Rng's first draw).
    Rng rng;
    testbed::Testbed bed;
    telemetry::Watcher watcherState;
    fault::FaultInjector injector;

    ScenarioResult result;
    std::vector<std::unique_ptr<workloads::WorkloadInstance>> running;
    DeploymentId nextId = 1;
    SimTime nextArrival = 0;
    SimTime now_ = 0;

    DecisionSink *decisionSink ADRIAS_NOT_CHECKPOINTED(
        "runtime observer wiring, re-attached after restore") = nullptr;
    std::deque<PlacementDecision> replayQueue ADRIAS_NOT_CHECKPOINTED(
        "transient replay scaffolding; saveState panics mid-replay");

    /** Deploy arrivals scheduled at or before now_. */
    void admitArrivals(PlacementPolicy &policy);

    /** Harvest finished instances into completion records. */
    void harvestCompletions(PlacementPolicy &policy);
};

/** One entry of a multi-seed sweep. */
struct SweepItem
{
    ScenarioConfig config;

    /** Seed of the per-item RandomPlacement policy. */
    std::uint64_t policySeed = 99;
};

/**
 * Run many independent scenarios — one Testbed, Watcher and policy per
 * item — fanned out across the global ThreadPool (DESIGN.md §9).
 *
 * Policies are constructed serially in item order before any scenario
 * starts (factories may share an Rng), then every item runs in
 * isolation and writes its own result slot, so the returned vector is
 * bitwise identical to running the items one by one in a loop,
 * regardless of ADRIAS_THREADS.
 *
 * @param configs per-item scenario knobs.
 * @param params shared testbed calibration.
 * @param makePolicy called once per item index, in order, to build
 *        that item's placement policy (must not share mutable state
 *        across items).
 */
std::vector<ScenarioResult> runScenarioSweep(
    const std::vector<ScenarioConfig> &configs,
    testbed::TestbedParams params,
    const std::function<std::unique_ptr<PlacementPolicy>(std::size_t)>
        &makePolicy);

/** RandomPlacement convenience overload over SweepItems. */
std::vector<ScenarioResult>
runScenarioSweep(const std::vector<SweepItem> &items,
                 testbed::TestbedParams params = {});

} // namespace adrias::scenario

#endif // ADRIAS_SCENARIO_ENGINE_HH
