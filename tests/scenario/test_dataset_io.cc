/** @file Round-trip tests for dataset CSV persistence. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/rng.hh"
#include "scenario/dataset_io.hh"

namespace adrias::scenario
{
namespace
{

using testbed::kNumPerfEvents;

constexpr std::size_t kBins = ScenarioEngine::kWindowBins;

std::vector<ml::Matrix>
randomSequence(Rng &rng)
{
    std::vector<ml::Matrix> sequence;
    for (std::size_t b = 0; b < kBins; ++b) {
        ml::Matrix step(1, kNumPerfEvents);
        for (double &v : step.raw())
            v = rng.uniform(0.0, 1000.0);
        sequence.push_back(std::move(step));
    }
    return sequence;
}

ml::Matrix
randomVector(Rng &rng)
{
    ml::Matrix vec(1, kNumPerfEvents);
    for (double &v : vec.raw())
        v = rng.uniform(0.0, 1000.0);
    return vec;
}

void
expectSequencesEqual(const std::vector<ml::Matrix> &a,
                     const std::vector<ml::Matrix> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t)
        EXPECT_LT((a[t] - b[t]).maxAbs(), 1e-6);
}

TEST(SystemStateCsv, RoundTrip)
{
    Rng rng(1);
    std::vector<SystemStateSample> samples;
    for (int i = 0; i < 5; ++i) {
        SystemStateSample sample;
        sample.history = randomSequence(rng);
        sample.target = randomVector(rng);
        samples.push_back(std::move(sample));
    }
    const std::string path = ::testing::TempDir() + "adrias_ss.csv";
    saveSystemStateCsv(path, samples);
    const auto loaded = loadSystemStateCsv(path);

    ASSERT_EQ(loaded.size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        expectSequencesEqual(loaded[i].history, samples[i].history);
        EXPECT_LT((loaded[i].target - samples[i].target).maxAbs(), 1e-6);
    }
    std::remove(path.c_str());
}

TEST(SystemStateCsv, RejectsMissingAndMalformed)
{
    EXPECT_THROW(loadSystemStateCsv("/no/such/file.csv"),
                 std::runtime_error);
    const std::string path = ::testing::TempDir() + "adrias_bad.csv";
    {
        std::ofstream out(path);
        out << "not-a-dataset\n1,2,3\n";
    }
    EXPECT_THROW(loadSystemStateCsv(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(SystemStateCsv, TypedErrorsDiagnoseCorruption)
{
    // Build one valid file, then corrupt it in targeted ways and check
    // the typed diagnosis of each corruption.
    Rng rng(3);
    SystemStateSample sample;
    sample.history = randomSequence(rng);
    sample.target = randomVector(rng);
    const std::string good = ::testing::TempDir() + "adrias_ss_good.csv";
    saveSystemStateCsv(good, {sample});
    std::ifstream in(good);
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    in.close();

    const std::string bad = ::testing::TempDir() + "adrias_ss_bad.csv";
    auto write_and_load = [&](const std::string &content) {
        std::ofstream out(bad);
        out << content;
        out.close();
        return tryLoadSystemStateCsv(bad);
    };

    auto missing = tryLoadSystemStateCsv("/no/such/file.csv");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, ErrorCode::Io);

    auto bad_header = write_and_load("not-a-dataset\n" + row + "\n");
    ASSERT_FALSE(bad_header.ok());
    EXPECT_EQ(bad_header.error().code, ErrorCode::BadHeader);

    auto geometry = write_and_load("# adrias-system-state-v1,3,7\n" +
                                   row + "\n");
    ASSERT_FALSE(geometry.ok());
    EXPECT_EQ(geometry.error().code, ErrorCode::Geometry);

    auto truncated = write_and_load(
        header + "\n" + row.substr(0, row.size() / 2) + "\n");
    ASSERT_FALSE(truncated.ok());
    EXPECT_TRUE(truncated.error().code == ErrorCode::Truncated ||
                truncated.error().code == ErrorCode::BadNumber);

    auto junk_number = write_and_load(
        header + "\n" + "12abc" + row.substr(row.find(',')) + "\n");
    ASSERT_FALSE(junk_number.ok());
    EXPECT_EQ(junk_number.error().code, ErrorCode::BadNumber);

    auto trailing = write_and_load(header + "\n" + row + ",999\n");
    ASSERT_FALSE(trailing.ok());
    EXPECT_EQ(trailing.error().code, ErrorCode::TrailingData);

    // The pristine file still loads through the typed API.
    auto ok = tryLoadSystemStateCsv(good);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().size(), 1u);

    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(PerformanceCsv, TypedErrorsDiagnoseCorruption)
{
    Rng rng(4);
    PerformanceSample sample;
    sample.name = "sort";
    sample.cls = WorkloadClass::BestEffort;
    sample.mode = MemoryMode::Remote;
    sample.history = randomSequence(rng);
    sample.signature = randomSequence(rng);
    sample.futureWindow = randomVector(rng);
    sample.futureExec = randomVector(rng);
    sample.target = 120.0;
    const std::string good =
        ::testing::TempDir() + "adrias_perf_good.csv";
    savePerformanceCsv(good, {sample});
    std::ifstream in(good);
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    in.close();

    const std::string bad = ::testing::TempDir() + "adrias_perf_bad.csv";
    auto write_and_load = [&](std::string mutated_row) {
        std::ofstream out(bad);
        out << header << "\n" << mutated_row << "\n";
        out.close();
        return tryLoadPerformanceCsv(bad);
    };

    // Row starts "sort,be,remote,<target>,...".
    auto bad_class = write_and_load("sort,xx" + row.substr(7));
    ASSERT_FALSE(bad_class.ok());
    EXPECT_EQ(bad_class.error().code, ErrorCode::BadToken);

    auto bad_mode = write_and_load("sort,be,martian" + row.substr(14));
    ASSERT_FALSE(bad_mode.ok());
    EXPECT_EQ(bad_mode.error().code, ErrorCode::BadToken);

    auto short_row = write_and_load("sort,be,remote");
    ASSERT_FALSE(short_row.ok());
    EXPECT_EQ(short_row.error().code, ErrorCode::Truncated);

    auto bad_target = write_and_load("sort,be,remote,NOPE" +
                                     row.substr(row.find(',', 15)));
    ASSERT_FALSE(bad_target.ok());
    EXPECT_EQ(bad_target.error().code, ErrorCode::BadNumber);

    auto ok = tryLoadPerformanceCsv(good);
    ASSERT_TRUE(ok.ok());
    ASSERT_EQ(ok.value().size(), 1u);
    EXPECT_EQ(ok.value()[0].name, "sort");

    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(PerformanceCsv, RoundTrip)
{
    Rng rng(2);
    std::vector<PerformanceSample> samples;
    for (int i = 0; i < 4; ++i) {
        PerformanceSample sample;
        sample.name = i % 2 ? "nweight" : "redis";
        sample.cls = i % 2 ? WorkloadClass::BestEffort
                           : WorkloadClass::LatencyCritical;
        sample.mode =
            i % 3 ? MemoryMode::Remote : MemoryMode::Local;
        sample.history = randomSequence(rng);
        sample.signature = randomSequence(rng);
        sample.futureWindow = randomVector(rng);
        sample.futureExec = randomVector(rng);
        sample.target = rng.uniform(1.0, 500.0);
        samples.push_back(std::move(sample));
    }
    const std::string path = ::testing::TempDir() + "adrias_perf.csv";
    savePerformanceCsv(path, samples);
    const auto loaded = loadPerformanceCsv(path);

    ASSERT_EQ(loaded.size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(loaded[i].name, samples[i].name);
        EXPECT_EQ(loaded[i].cls, samples[i].cls);
        EXPECT_EQ(loaded[i].mode, samples[i].mode);
        EXPECT_NEAR(loaded[i].target, samples[i].target, 1e-6);
        expectSequencesEqual(loaded[i].history, samples[i].history);
        expectSequencesEqual(loaded[i].signature, samples[i].signature);
        EXPECT_LT(
            (loaded[i].futureWindow - samples[i].futureWindow).maxAbs(),
            1e-6);
        EXPECT_LT(
            (loaded[i].futureExec - samples[i].futureExec).maxAbs(),
            1e-6);
    }
    std::remove(path.c_str());
}

TEST(PerformanceCsv, LoadedDataTrainsAModel)
{
    // The persisted dataset must be usable exactly like the original:
    // real end-to-end check through a scenario + training.
    ScenarioConfig config;
    config.durationSec = 1200;
    config.spawnMinSec = 5;
    config.spawnMaxSec = 20;
    config.seed = 77;
    ScenarioEngine engine(config);
    RandomPlacement policy(78);
    std::vector<ScenarioResult> results{engine.run(policy)};
    SignatureStore signatures;
    collectAllSignatures(signatures);

    const auto original = DatasetBuilder::performance(
        results, signatures, WorkloadClass::BestEffort);
    ASSERT_GE(original.size(), 8u);

    const std::string path = ::testing::TempDir() + "adrias_e2e.csv";
    savePerformanceCsv(path, original);
    const auto loaded = loadPerformanceCsv(path);
    EXPECT_EQ(loaded.size(), original.size());
    std::remove(path.c_str());
}

} // namespace
} // namespace adrias::scenario
