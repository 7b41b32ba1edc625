/** @file Round-trip persistence tests for the prediction models. */

#include <gtest/gtest.h>

#include <cstdio>

#include "models/performance.hh"
#include "models/system_state.hh"
#include "scenario/dataset.hh"

namespace adrias::models
{
namespace
{

using scenario::RandomPlacement;
using scenario::ScenarioConfig;
using scenario::ScenarioEngine;

/** Minimal trained models shared across the suite. */
class PersistenceTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ScenarioConfig scenario_config;
        scenario_config.durationSec = 1500;
        scenario_config.spawnMinSec = 5;
        scenario_config.spawnMaxSec = 25;
        scenario_config.seed = 313;
        ScenarioEngine engine(scenario_config);
        RandomPlacement policy(314);
        std::vector<scenario::ScenarioResult> results{engine.run(policy)};

        signatures = new scenario::SignatureStore;
        scenario::collectAllSignatures(*signatures);

        config = new ModelConfig;
        config->epochs = 8;
        config->hidden = 12;
        config->headWidth = 16;

        auto state = scenario::DatasetBuilder::systemState(results, 10);
        stateModel = new SystemStateModel(*config);
        stateModel->train(state);
        stateProbe = new std::vector<ml::Matrix>(state.front().history);

        auto be = scenario::DatasetBuilder::performance(
            results, *signatures, WorkloadClass::BestEffort);
        perfModel =
            new PerformanceModel(FutureKind::ActualWindow, *config);
        perfModel->train(be);
        perfProbe = new scenario::PerformanceSample(be.front());
    }

    static void
    TearDownTestSuite()
    {
        delete signatures;
        delete config;
        delete stateModel;
        delete stateProbe;
        delete perfModel;
        delete perfProbe;
    }

    static scenario::SignatureStore *signatures;
    static ModelConfig *config;
    static SystemStateModel *stateModel;
    static std::vector<ml::Matrix> *stateProbe;
    static PerformanceModel *perfModel;
    static scenario::PerformanceSample *perfProbe;
};

scenario::SignatureStore *PersistenceTest::signatures = nullptr;
ModelConfig *PersistenceTest::config = nullptr;
SystemStateModel *PersistenceTest::stateModel = nullptr;
std::vector<ml::Matrix> *PersistenceTest::stateProbe = nullptr;
PerformanceModel *PersistenceTest::perfModel = nullptr;
scenario::PerformanceSample *PersistenceTest::perfProbe = nullptr;

TEST_F(PersistenceTest, SystemStateRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "adrias_state_model.txt";
    stateModel->save(path);

    SystemStateModel reloaded(*config);
    EXPECT_FALSE(reloaded.trained());
    reloaded.load(path);
    EXPECT_TRUE(reloaded.trained());

    const ml::Matrix a = stateModel->predict(*stateProbe);
    const ml::Matrix b = reloaded.predict(*stateProbe);
    EXPECT_LT((a - b).maxAbs(), 1e-9);
    std::remove(path.c_str());
}

TEST_F(PersistenceTest, PerformanceRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "adrias_perf_model.txt";
    perfModel->save(path);

    PerformanceModel reloaded(FutureKind::ActualWindow, *config);
    reloaded.load(path);
    EXPECT_TRUE(reloaded.trained());

    const double a =
        perfModel->predict(perfProbe->history, perfProbe->signature,
                           perfProbe->mode, perfProbe->futureWindow);
    const double b =
        reloaded.predict(perfProbe->history, perfProbe->signature,
                         perfProbe->mode, perfProbe->futureWindow);
    EXPECT_NEAR(a, b, 1e-9);
    std::remove(path.c_str());
}

TEST_F(PersistenceTest, FutureKindMismatchRejected)
{
    const std::string path =
        ::testing::TempDir() + "adrias_perf_model_kind.txt";
    perfModel->save(path);
    PerformanceModel wrong_kind(FutureKind::None, *config);
    EXPECT_THROW(wrong_kind.load(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST_F(PersistenceTest, TopologyMismatchRejected)
{
    const std::string path =
        ::testing::TempDir() + "adrias_state_model_topo.txt";
    stateModel->save(path);
    ModelConfig bigger = *config;
    bigger.hidden = 20;
    SystemStateModel wrong_topology(bigger);
    EXPECT_THROW(wrong_topology.load(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST_F(PersistenceTest, SaveBeforeTrainRejected)
{
    SystemStateModel untrained(*config);
    EXPECT_THROW(untrained.save("/tmp/should_not_exist.txt"),
                 std::runtime_error);
    PerformanceModel untrained_perf(FutureKind::None, *config);
    EXPECT_THROW(untrained_perf.save("/tmp/should_not_exist.txt"),
                 std::runtime_error);
}

TEST_F(PersistenceTest, MissingFileRejected)
{
    SystemStateModel model(*config);
    EXPECT_THROW(model.load("/no/such/model/file.txt"),
                 std::runtime_error);
}

} // namespace
} // namespace adrias::models
