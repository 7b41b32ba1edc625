/**
 * @file
 * Golden end-to-end regression: a fixed tiny scenario, rendered to a
 * canonical text form and compared line-by-line against a checked-in
 * golden file.  Any change to the simulation pipeline that shifts a
 * completion time, a latency percentile or a trace aggregate shows up
 * here as a readable diff instead of a silent drift.
 *
 * The same mechanism pins two cluster runs: the legacy node-count
 * model and a rack run under a named-link fault window.
 *
 * Regenerate intentionally with:
 *     ADRIAS_UPDATE_GOLDEN=1 ./test_scenario \
 *         --gtest_filter=GoldenTest.*
 * and commit the refreshed file together with the change that caused
 * it.  Floats are rendered at %.6g so the golden survives benign
 * compiler/FMA differences while still pinning six significant digits.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/lstm.hh"
#include "ml/simd.hh"
#include "models/system_state.hh"
#include "scenario/cluster.hh"
#include "scenario/dataset.hh"
#include "scenario/engine.hh"

#ifndef ADRIAS_GOLDEN_DIR
#error "ADRIAS_GOLDEN_DIR must point at the checked-in golden files"
#endif

namespace
{

using namespace adrias;

std::string
num(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    return buffer;
}

/** Per-event trace totals and the channel traffic of one result. */
void
renderTrace(std::ostringstream &out, const scenario::ScenarioResult &result)
{
    out << "ticks " << result.trace.size() << "\n";

    // Trace: per-event totals pin the full counter stream without
    // committing megabytes of per-tick values to the repository.
    for (std::size_t e = 0; e < testbed::kNumPerfEvents; ++e) {
        double total = 0.0;
        for (const auto &tick : result.trace)
            total += tick[e];
        out << "event " << e << " total " << num(total) << "\n";
    }
    out << "remote_traffic_gb " << num(result.totalRemoteTrafficGB)
        << "\n";
}

/** One line per completion record, in completion order. */
void
renderRecords(std::ostringstream &out,
              const scenario::ScenarioResult &result)
{
    out << "records " << result.records.size() << "\n";
    for (const auto &record : result.records) {
        out << record.name << " cls=" << static_cast<int>(record.cls)
            << " mode=" << static_cast<int>(record.mode)
            << " arrival=" << record.arrival
            << " completion=" << record.completion
            << " exec=" << num(record.execTimeSec)
            << " p99=" << num(record.p99Ms)
            << " slowdown=" << num(record.meanSlowdown)
            << " traffic=" << num(record.remoteTrafficGB)
            << " migrations=" << record.migrations << "\n";
    }
}

/** Canonical text rendering of one scenario run. */
std::string
renderScenario()
{
    scenario::ScenarioConfig config;
    config.durationSec = 400;
    config.spawnMinSec = 5;
    config.spawnMaxSec = 20;
    config.seed = 20230228; // HPCA'23 — arbitrary but fixed forever

    scenario::ScenarioEngine engine(config);
    scenario::RandomPlacement policy(31);
    const auto result = engine.run(policy);

    std::ostringstream out;
    out << "golden scenario v1\n";
    renderTrace(out, result);
    renderRecords(out, result);
    return out.str();
}

/** Arrival stream shared by both cluster goldens: congested enough
 *  that nodes fill and drop arrivals. */
scenario::ScenarioConfig
clusterConfig()
{
    scenario::ScenarioConfig config;
    config.durationSec = 500;
    config.spawnMinSec = 1;
    config.spawnMaxSec = 6;
    config.maxConcurrent = 8;
    config.seed = 20230301;
    return config;
}

/** Per-node traces and records of one cluster run. */
void
renderNodes(std::ostringstream &out, const scenario::ClusterResult &result)
{
    out << "nodes " << result.nodes.size() << "\n";
    for (std::size_t n = 0; n < result.nodes.size(); ++n) {
        out << "node " << n << "\n";
        renderTrace(out, result.nodes[n]);
        renderRecords(out, result.nodes[n]);
    }
    out << "total_remote_traffic_gb " << num(result.totalRemoteTrafficGB)
        << "\n";
}

/** The legacy model: independent borrower/lender pairs.  Its drop
 *  count is left out of the golden (not pinned here). */
std::string
renderLegacyCluster()
{
    scenario::ClusterScenarioRunner runner(3, clusterConfig());
    scenario::RandomClusterPolicy policy(37);
    const scenario::ClusterResult result = runner.run(policy);

    std::ostringstream out;
    out << "golden legacy cluster v1\n";
    renderNodes(out, result);
    return out.str();
}

/** The rack model on rack-2x2-cxl with one named link degraded for a
 *  window in the middle of the run. */
std::string
renderRackCluster()
{
    scenario::ScenarioConfig config = clusterConfig();
    config.faults.seed = 5;
    config.faults.add(
        {fault::FaultKind::LinkDegrade, 150, 350, 0.08, 0.7, "n0-s1"});
    scenario::ClusterScenarioRunner runner(
        testbed::topologyByName("rack-2x2-cxl"), config);
    scenario::RandomClusterPolicy policy(41);
    const scenario::ClusterResult result = runner.run(policy);

    std::ostringstream out;
    out << "golden rack cluster v1\n";
    out << "topology " << result.topologyName << "\n";
    renderNodes(out, result);
    out << "links " << result.linkTotals.size() << "\n";
    for (const auto &totals : result.linkTotals)
        out << "link offered=" << num(totals.offeredGb)
            << " delivered=" << num(totals.deliveredGb)
            << " queued=" << num(totals.queuedGb)
            << " saturated=" << totals.saturatedTicks << "\n";
    out << "dropped " << result.droppedArrivals << "\n";
    out << "fallbacks " << result.remoteFallbacks << "\n";
    out << "link_fault_ticks " << result.nodes[0].faultSummary.linkFaultTicks
        << "\n";
    return out.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/**
 * Compare `actual` against the checked-in golden `file`, or rewrite the
 * golden under ADRIAS_UPDATE_GOLDEN=1.
 */
void
expectMatchesGolden(const std::string &file, const std::string &actual)
{
    const std::string path = std::string(ADRIAS_GOLDEN_DIR) + "/" + file;

    if (const char *update = std::getenv("ADRIAS_UPDATE_GOLDEN");
        update && std::string(update) == "1") {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden file regenerated at " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — run with ADRIAS_UPDATE_GOLDEN=1 to create it";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string expected = buffer.str();

    if (actual == expected)
        return;

    // Build a focused diff: first divergence plus every differing line.
    const auto expected_lines = splitLines(expected);
    const auto actual_lines = splitLines(actual);
    std::ostringstream diff;
    diff << "golden mismatch against " << path << "\n"
         << "  expected " << expected_lines.size() << " lines, got "
         << actual_lines.size() << "\n";
    const std::size_t common =
        std::min(expected_lines.size(), actual_lines.size());
    std::size_t shown = 0;
    for (std::size_t i = 0; i < common && shown < 20; ++i) {
        if (expected_lines[i] == actual_lines[i])
            continue;
        diff << "  line " << (i + 1) << ":\n"
             << "    - " << expected_lines[i] << "\n"
             << "    + " << actual_lines[i] << "\n";
        ++shown;
    }
    diff << "If the change is intentional, regenerate with "
            "ADRIAS_UPDATE_GOLDEN=1 and commit the new golden.";
    FAIL() << diff.str();
}

TEST(GoldenTest, TinyScenarioMatchesCheckedInGolden)
{
    expectMatchesGolden("tiny_scenario.golden", renderScenario());
}

TEST(GoldenTest, LegacyClusterMatchesCheckedInGolden)
{
    expectMatchesGolden("legacy_cluster.golden", renderLegacyCluster());
}

TEST(GoldenTest, RackClusterMatchesCheckedInGolden)
{
    expectMatchesGolden("rack_cluster.golden", renderRackCluster());
}

/**
 * Same golden, with the fused LSTM/GEMM kernels forced off.  The fused
 * hot path is contractually bitwise-identical to the reference path, so
 * the end-to-end pipeline must render the exact same canonical text —
 * and a tiny model trained under both paths must predict identically.
 */
TEST(GoldenTest, TinyScenarioMatchesGoldenWithFusedKernelsDisabled)
{
    if (const char *update = std::getenv("ADRIAS_UPDATE_GOLDEN");
        update && std::string(update) == "1")
        GTEST_SKIP() << "golden regeneration uses the default path";

    const bool saved_fused = ml::lstmFusedKernels();
    ml::setLstmFusedKernels(false);

    const std::string path =
        std::string(ADRIAS_GOLDEN_DIR) + "/tiny_scenario.golden";
    const std::string actual = renderScenario();

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — run with ADRIAS_UPDATE_GOLDEN=1 to create it";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(actual, buffer.str())
        << "reference (unfused) kernels diverged from the golden";

    // The fused-vs-reference bitwise contract is defined on the scalar
    // kernel tier (the vector tier is tolerance-checked by `ctest -L
    // simd` instead), so pin it for the predict comparison below even
    // when the suite runs under ADRIAS_KERNEL_TIER=vector.
    const ml::ScopedKernelTier scalar_pin(ml::KernelTier::Scalar);

    // The scenario itself never runs the LSTM, so also pin a real
    // train + predict round trip: reference path now, fused path next.
    scenario::ScenarioConfig config;
    config.durationSec = 400;
    config.spawnMinSec = 5;
    config.spawnMaxSec = 20;
    config.seed = 20230228;
    scenario::ScenarioEngine engine(config);
    scenario::RandomPlacement policy(31);
    const std::vector<scenario::ScenarioResult> results{
        engine.run(policy)};
    auto samples = scenario::DatasetBuilder::systemState(results);
    ASSERT_GE(samples.size(), 4u);
    samples.resize(std::min<std::size_t>(samples.size(), 16));

    models::ModelConfig model_config;
    model_config.epochs = 2;

    auto train_and_predict = [&] {
        models::SystemStateModel model(model_config);
        model.train(samples);
        return model.predict(samples.front().history);
    };
    const ml::Matrix reference_pred = train_and_predict();
    ml::setLstmFusedKernels(true);
    const ml::Matrix fused_pred = train_and_predict();
    ml::setLstmFusedKernels(saved_fused);

    ASSERT_EQ(reference_pred.rows(), fused_pred.rows());
    ASSERT_EQ(reference_pred.cols(), fused_pred.cols());
    EXPECT_EQ(reference_pred.raw(), fused_pred.raw());
}

} // namespace
