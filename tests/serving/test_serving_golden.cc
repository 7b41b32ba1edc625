/**
 * @file
 * End-to-end serving tests against a real trained stack: the served
 * path must reproduce the inline orchestrator's decisions exactly
 * (same rules, same snapshot → same modes), stay invariant across
 * worker-thread counts, and the fused batch fast-path must match the
 * single-query entry point bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/threadpool.hh"
#include "core/adrias.hh"
#include "serving/served_policy.hh"

namespace adrias::serving
{
namespace
{

using core::AdriasStack;
using scenario::ScenarioConfig;
using scenario::ScenarioResult;
using scenario::ScenarioEngine;

/** One trained stack shared across the suite (training is the cost). */
class ServingGoldenTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        AdriasStack::BuildOptions options;
        options.scenarios = 3;
        options.scenarioDurationSec = 1500;
        options.seed = 700;
        options.model.epochs = 18;
        options.model.hidden = 16;
        options.model.headWidth = 24;
        stack = new AdriasStack(options);
    }

    static void
    TearDownTestSuite()
    {
        delete stack;
        stack = nullptr;
    }

    static ScenarioConfig
    evalConfig(std::uint64_t seed)
    {
        ScenarioConfig config;
        config.durationSec = 1200;
        config.spawnMinSec = 5;
        config.spawnMaxSec = 25;
        config.seed = seed;
        return config;
    }

    /** Run one scenario through the serving daemon. */
    static ScenarioResult
    runServed(std::uint64_t seed, scenario::SignatureStore &signatures)
    {
        core::AdriasConfig policy;
        DecisionServiceConfig config;
        config.shards = 4;
        DecisionService service(stack->predictor(), signatures, policy,
                                config);
        ServedPolicyConfig adapter;
        // Refresh every tick: the served snapshot then equals the
        // fresh window the inline orchestrator reads per arrival.
        adapter.epochTicks = 1;
        ServedPlacementPolicy served(service, signatures, adapter);
        ScenarioEngine engine(evalConfig(seed));
        ScenarioResult result = engine.run(served);
        // Synchronous façade leaves nothing behind.
        EXPECT_EQ(service.inflightCount(), 0u);
        EXPECT_EQ(service.stats().rejectedBackpressure, 0u);
        return result;
    }

    static AdriasStack *stack;
};

AdriasStack *ServingGoldenTest::stack = nullptr;

/** (id, mode) pairs sorted by deployment id. */
std::vector<std::pair<DeploymentId, MemoryMode>>
placements(const ScenarioResult &result)
{
    std::vector<std::pair<DeploymentId, MemoryMode>> modes;
    for (const auto &record : result.records) {
        if (record.cls == WorkloadClass::Interference)
            continue;
        modes.emplace_back(record.id, record.mode);
    }
    std::sort(modes.begin(), modes.end());
    return modes;
}

TEST_F(ServingGoldenTest, ServedDecisionsMatchInlineOrchestrator)
{
    // Same trained models, same rules, per-tick snapshots: the daemon
    // must place every deployment exactly as the inline path does.
    scenario::SignatureStore inline_store = stack->signatures();
    core::AdriasOrchestrator inline_policy(stack->predictor(),
                                           inline_store, {});
    ScenarioEngine inline_engine(evalConfig(901));
    const ScenarioResult inline_result =
        inline_engine.run(inline_policy);

    scenario::SignatureStore served_store = stack->signatures();
    const ScenarioResult served_result = runServed(901, served_store);

    const auto expected = placements(inline_result);
    const auto actual = placements(served_result);
    ASSERT_EQ(expected.size(), actual.size());
    ASSERT_FALSE(expected.empty());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].first, actual[i].first) << "row " << i;
        EXPECT_EQ(expected[i].second, actual[i].second) << "row " << i;
    }
}

TEST_F(ServingGoldenTest, DecisionsInvariantAcrossThreadCounts)
{
    std::vector<std::vector<std::pair<DeploymentId, MemoryMode>>> runs;
    for (unsigned threads : {1u, 2u, 0u}) { // 0 = hardware default
        scenario::SignatureStore store = stack->signatures();
        if (threads == 0) {
            runs.push_back(placements(runServed(902, store)));
        } else {
            ScopedThreadOverride override_(threads);
            runs.push_back(placements(runServed(902, store)));
        }
    }
    ASSERT_FALSE(runs[0].empty());
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[0].size(), runs[r].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i) {
            EXPECT_EQ(runs[0][i].first, runs[r][i].first);
            EXPECT_EQ(runs[0][i].second, runs[r][i].second)
                << "thread run " << r << " row " << i;
        }
    }
}

TEST_F(ServingGoldenTest, FusedBatchMatchesSingleQueriesExactly)
{
    // Harvest real history windows from a scenario trace.
    scenario::SignatureStore store = stack->signatures();
    core::AdriasOrchestrator policy(stack->predictor(), store, {});
    ScenarioEngine engine(evalConfig(903));
    const ScenarioResult result = engine.run(policy);

    std::vector<models::PredictorBase::PerfQuery> queries;
    std::vector<const scenario::DeploymentRecord *> owners;
    for (const auto &record : result.records) {
        if (record.cls != WorkloadClass::BestEffort)
            continue;
        if (record.historyWindow.empty() || !store.has(record.name))
            continue;
        const MemoryMode mode = queries.size() % 2 == 0
                                    ? MemoryMode::Local
                                    : MemoryMode::Remote;
        queries.push_back({&record.historyWindow,
                           &store.get(record.name), mode});
        owners.push_back(&record);
        if (queries.size() == 37) // odd width: exercises partial chunks
            break;
    }
    ASSERT_GE(queries.size(), 8u);

    const std::vector<double> batched =
        stack->predictor().predictPerformanceBatch(
            WorkloadClass::BestEffort, queries);
    ASSERT_EQ(batched.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const double single = stack->predictor().predictPerformance(
            WorkloadClass::BestEffort, *queries[i].history,
            *queries[i].signature, queries[i].mode);
        EXPECT_DOUBLE_EQ(batched[i], single)
            << "row " << i << " app " << owners[i]->name;
    }
}

TEST_F(ServingGoldenTest, BatchResultsInvariantAcrossThreadCounts)
{
    scenario::SignatureStore store = stack->signatures();
    core::AdriasOrchestrator policy(stack->predictor(), store, {});
    ScenarioEngine engine(evalConfig(904));
    const ScenarioResult result = engine.run(policy);

    std::vector<models::PredictorBase::PerfQuery> queries;
    for (const auto &record : result.records) {
        if (record.cls != WorkloadClass::BestEffort ||
            record.historyWindow.empty() || !store.has(record.name))
            continue;
        queries.push_back({&record.historyWindow,
                           &store.get(record.name), MemoryMode::Remote});
        if (queries.size() == 16)
            break;
    }
    ASSERT_GE(queries.size(), 4u);

    std::vector<std::vector<double>> outputs;
    for (unsigned threads : {1u, 2u}) {
        ScopedThreadOverride override_(threads);
        outputs.push_back(stack->predictor().predictPerformanceBatch(
            WorkloadClass::BestEffort, queries));
    }
    ASSERT_EQ(outputs[0].size(), outputs[1].size());
    for (std::size_t i = 0; i < outputs[0].size(); ++i)
        EXPECT_DOUBLE_EQ(outputs[0][i], outputs[1][i]) << "row " << i;
}

} // namespace
} // namespace adrias::serving
