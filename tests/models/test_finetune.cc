/** @file Continual-learning (fineTune) tests — the Fig. 15 remedy. */

#include <gtest/gtest.h>

#include "models/performance.hh"
#include "scenario/dataset.hh"

namespace adrias::models
{
namespace
{

using scenario::PerformanceSample;

/** Shared dataset with one benchmark held out of base training. */
class FineTuneTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        std::vector<scenario::ScenarioResult> results;
        for (std::uint64_t seed : {910, 911, 912, 913, 914, 915}) {
            scenario::ScenarioConfig config;
            config.durationSec = 1800;
            config.spawnMinSec = 5;
            config.spawnMaxSec = 25;
            config.seed = seed;
            scenario::ScenarioEngine engine(config);
            scenario::RandomPlacement policy(seed + 5);
            results.push_back(engine.run(policy));
        }
        scenario::SignatureStore signatures;
        scenario::collectAllSignatures(signatures);
        auto all = scenario::DatasetBuilder::performance(
            results, signatures, WorkloadClass::BestEffort);

        base = new std::vector<PerformanceSample>;
        held_out = new std::vector<PerformanceSample>;
        for (auto &sample : all)
            (sample.name == "nweight" ? *held_out : *base)
                .push_back(std::move(sample));

        config = new ModelConfig;
        config->epochs = 25;
        config->hidden = 16;
        config->headWidth = 24;
    }

    static void
    TearDownTestSuite()
    {
        delete base;
        delete held_out;
        delete config;
    }

    static std::vector<PerformanceSample> *base;
    static std::vector<PerformanceSample> *held_out;
    static ModelConfig *config;
};

std::vector<PerformanceSample> *FineTuneTest::base = nullptr;
std::vector<PerformanceSample> *FineTuneTest::held_out = nullptr;
ModelConfig *FineTuneTest::config = nullptr;

TEST_F(FineTuneTest, RequiresTrainedModelAndSamples)
{
    PerformanceModel model(FutureKind::ActualWindow, *config);
    EXPECT_THROW(model.fineTune(*held_out, nullptr, 5),
                 std::runtime_error);
    model.train(*base);
    EXPECT_THROW(model.fineTune({}, nullptr, 5), std::runtime_error);
}

TEST_F(FineTuneTest, ImprovesHeldOutApp)
{
    if (held_out->size() < 8)
        GTEST_SKIP() << "not enough nweight completions in fixture";

    PerformanceModel model(FutureKind::ActualWindow, *config);
    model.train(*base);

    // Split the held-out app into fine-tune and evaluation halves.
    const std::size_t cut = held_out->size() / 2;
    std::vector<PerformanceSample> tune(held_out->begin(),
                                        held_out->begin() +
                                            static_cast<std::ptrdiff_t>(
                                                cut));
    std::vector<PerformanceSample> eval(held_out->begin() +
                                            static_cast<std::ptrdiff_t>(
                                                cut),
                                        held_out->end());

    const double before = model.evaluate(eval).mae;
    model.fineTune(tune, nullptr, 15);
    const double after = model.evaluate(eval).mae;
    EXPECT_LT(after, before);
}

TEST_F(FineTuneTest, ReplayMixPreservesBaseApps)
{
    if (held_out->size() < 4)
        GTEST_SKIP() << "not enough nweight completions in fixture";

    PerformanceModel model(FutureKind::ActualWindow, *config);
    model.train(*base);
    const double base_r2_before = model.evaluate(*base).r2;

    // Recommended recipe: mix the new app's samples with a replay
    // slice of the base set so the update does not forget old apps.
    std::vector<PerformanceSample> tune = *held_out;
    for (std::size_t i = 0; i < base->size(); i += 4)
        tune.push_back((*base)[i]);
    model.fineTune(tune, nullptr, 10);

    const double base_r2_after = model.evaluate(*base).r2;
    EXPECT_GT(base_r2_after, base_r2_before - 0.15);
}

} // namespace
} // namespace adrias::models
