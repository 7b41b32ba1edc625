/**
 * @file
 * Paper-pair equivalence: the RackTestbed instantiated on the
 * "paper-pair" topology reproduces the legacy two-node Testbed.  The
 * two implementations apply the same shares in a different
 * multiplication order, so outcomes agree to ~1e-9 relative tolerance
 * (the figure-level bitwise guarantee is carried by the scenario layer
 * short-circuiting "paper-pair" onto the legacy Testbed, covered by
 * the engine test below and the golden scenario suite).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "scenario/engine.hh"
#include "testbed/rack.hh"
#include "testbed/testbed.hh"
#include "testbed/topology.hh"

namespace adrias::testbed
{
namespace
{

void
expectNear(double a, double b)
{
    EXPECT_NEAR(a, b, 1e-9 * std::max({std::fabs(a), std::fabs(b), 1.0}));
}

/** A representative mixed tick: local + remote, CPU + LLC pressure. */
std::vector<LoadDescriptor>
mixedLoads(double remote_demand)
{
    std::vector<LoadDescriptor> loads;
    LoadDescriptor local;
    local.id = 1;
    local.mode = MemoryMode::Local;
    local.cpuCores = 40.0;
    local.cpuFraction = 0.6;
    local.memDemandGBps = 9.0;
    local.cacheFootprintMb = 14.0;
    local.llcAccessGBps = 3.0;
    loads.push_back(local);

    LoadDescriptor remote;
    remote.id = 2;
    remote.mode = MemoryMode::Remote;
    remote.cpuCores = 30.0;
    remote.cpuFraction = 0.3;
    remote.memDemandGBps = remote_demand;
    remote.latencyBoundFraction = 0.4;
    remote.cacheFootprintMb = 10.0;
    remote.llcAccessGBps = 2.0;
    loads.push_back(remote);
    return loads;
}

class PaperEquivalence : public ::testing::TestWithParam<double>
{
};

TEST_P(PaperEquivalence, RackMatchesLegacyTestbed)
{
    const double remote_demand = GetParam();
    const TestbedParams params;

    Testbed legacy(params, 1);
    legacy.setNoise(0.0);
    RackTestbed rack(Topology::paperPair(params), 1);
    rack.setNoise(0.0);

    const auto loads = mixedLoads(remote_demand);
    const TickResult expected = legacy.tick(loads);
    const RackTickResult actual = rack.tick(loads);

    ASSERT_EQ(actual.outcomes.size(), expected.outcomes.size());
    for (std::size_t i = 0; i < loads.size(); ++i) {
        expectNear(actual.outcomes[i].achievedGBps,
                   expected.outcomes[i].achievedGBps);
        expectNear(actual.outcomes[i].slowdown,
                   expected.outcomes[i].slowdown);
        expectNear(actual.outcomes[i].latencyNs,
                   expected.outcomes[i].latencyNs);
        expectNear(actual.outcomes[i].hitRate,
                   expected.outcomes[i].hitRate);
    }
    expectNear(actual.links[0].pressure, expected.channelPressure);
    expectNear(actual.links[0].latencyCycles,
               expected.channelLatencyCycles);
    expectNear(actual.nodes[0].remoteTrafficGBps,
               expected.remoteTrafficGBps);
    expectNear(actual.nodes[0].localTrafficGBps,
               expected.localTrafficGBps);
    for (std::size_t e = 0; e < kNumPerfEvents; ++e)
        expectNear(actual.nodes[0].counters[e], expected.counters[e]);
}

// Quiet channel, below ramp, mid-ramp, past saturation.
INSTANTIATE_TEST_SUITE_P(Pressures, PaperEquivalence,
                         ::testing::Values(0.05, 0.45, 0.9, 2.0));

TEST(PaperEquivalenceFault, ChannelFaultMatchesLinkFault)
{
    const TestbedParams params;
    Testbed legacy(params, 1);
    legacy.setNoise(0.0);
    legacy.setChannelFault(0.5, 1.8);
    RackTestbed rack(Topology::paperPair(params), 1);
    rack.setNoise(0.0);
    rack.setLinkFault(0, 0.5, 1.8);

    const auto loads = mixedLoads(0.4);
    const TickResult expected = legacy.tick(loads);
    const RackTickResult actual = rack.tick(loads);
    for (std::size_t i = 0; i < loads.size(); ++i) {
        expectNear(actual.outcomes[i].achievedGBps,
                   expected.outcomes[i].achievedGBps);
        expectNear(actual.outcomes[i].slowdown,
                   expected.outcomes[i].slowdown);
    }
    expectNear(actual.links[0].latencyCycles,
               expected.channelLatencyCycles);
}

TEST(PaperEquivalenceEngine, PaperPairConfigIsBitwiseDefault)
{
    // The scenario engine runs "paper-pair" through the legacy Testbed
    // untouched: a config naming the topology explicitly produces a
    // bitwise-identical run to the historical default — this is the
    // mechanism behind the fig02-fig17 reproduction guarantee.
    scenario::ScenarioConfig base;
    base.durationSec = 120;
    base.seed = 99;

    scenario::ScenarioConfig named = base;
    named.topology = "paper-pair";

    auto run = [](const scenario::ScenarioConfig &config) {
        scenario::ScenarioEngine engine(config);
        scenario::RandomPlacement policy(7);
        while (!engine.finished())
            engine.stepTick(policy);
        return engine.finish();
    };
    const scenario::ScenarioResult a = run(base);
    const scenario::ScenarioResult b = run(named);

    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t t = 0; t < a.trace.size(); ++t)
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            EXPECT_EQ(a.trace[t][e], b.trace[t][e]);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t r = 0; r < a.records.size(); ++r) {
        EXPECT_EQ(a.records[r].id, b.records[r].id);
        EXPECT_EQ(a.records[r].mode, b.records[r].mode);
        EXPECT_EQ(a.records[r].execTimeSec, b.records[r].execTimeSec);
        EXPECT_EQ(a.records[r].meanSlowdown, b.records[r].meanSlowdown);
    }
    EXPECT_EQ(a.totalRemoteTrafficGB, b.totalRemoteTrafficGB);
}

TEST(PaperEquivalenceCluster, IndependentPairsMatchLegacyClusterShape)
{
    // The rack model on "pairs-N" keeps nodes fully isolated, like the
    // legacy N-pair cluster: traffic on one pair never queues another.
    const Topology topo = Topology::independentPairs(2);
    RackTestbed rack(topo, 3);
    rack.setNoise(0.0);

    std::vector<LoadDescriptor> loads;
    LoadDescriptor heavy;
    heavy.id = 1;
    heavy.mode = MemoryMode::Remote;
    heavy.node = 0;
    heavy.server = 0;
    heavy.link = static_cast<std::size_t>(topo.linkBetween(0, 0));
    heavy.memDemandGBps = 2.0;
    heavy.latencyBoundFraction = 0.0;
    loads.push_back(heavy);
    LoadDescriptor quiet = heavy;
    quiet.id = 2;
    quiet.node = 1;
    quiet.server = 1;
    quiet.link = static_cast<std::size_t>(topo.linkBetween(1, 1));
    quiet.memDemandGBps = 0.05;
    loads.push_back(quiet);

    const auto result = rack.tick(loads);
    // Pair 0 saturates its ThymesisFlow link; pair 1 is untouched.
    EXPECT_GT(result.links[loads[0].link].queuedGBps, 0.0);
    EXPECT_DOUBLE_EQ(result.outcomes[1].achievedGBps, 0.05);
    EXPECT_DOUBLE_EQ(result.links[loads[1].link].queuedGBps, 0.0);
    EXPECT_DOUBLE_EQ(result.links[loads[1].link].latencyCycles,
                     kThymesisFlowProfile.latencyBaseCycles);
}

} // namespace
} // namespace adrias::testbed
