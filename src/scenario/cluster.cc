#include "scenario/cluster.hh"

#include <utility>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "scenario/engine.hh"
#include "telemetry/watcher.hh"

namespace adrias::scenario
{

using workloads::WorkloadInstance;
using workloads::WorkloadSpec;

std::vector<ClusterResult::NodeRecord>
ClusterResult::allRecords() const
{
    std::vector<NodeRecord> all;
    for (std::size_t n = 0; n < nodes.size(); ++n)
        for (const DeploymentRecord &record : nodes[n].records)
            all.push_back({n, &record});
    return all;
}

ClusterPlacement
routeOnRack(ClusterPlacement placement, const WorkloadSpec &spec,
            const RackView &rack)
{
    if (placement.mode != MemoryMode::Remote)
        return placement;
    if (rack.topology == nullptr)
        panic("routeOnRack: RackView carries no topology");
    const testbed::Topology &topo = *rack.topology;
    std::int64_t best_link = -1;
    double best_avail = -1.0;
    for (std::size_t l : topo.linksFrom(placement.node)) {
        if (!rack.links[l].healthy())
            continue;
        const std::size_t s = topo.link(l).server;
        const double avail = rack.servers[s].availableGb;
        if (avail < spec.memoryFootprintGb)
            continue;
        // linksFrom is ascending, so a strict improvement test breaks
        // availability ties toward the lowest link index.
        if (avail > best_avail) {
            best_avail = avail;
            best_link = static_cast<std::int64_t>(l);
        }
    }
    if (best_link < 0) {
        // No healthy link reaches a server with room: degrade to the
        // node's local pool rather than refuse the deployment.
        placement.mode = MemoryMode::Local;
        placement.server = 0;
        placement.link = 0;
        return placement;
    }
    placement.link = static_cast<std::size_t>(best_link);
    placement.server = topo.link(placement.link).server;
    return placement;
}

namespace
{

/** A deployment running on one node.  A remote rack placement also
 *  holds the capacity it reserved on its lending server. */
struct RunningApp
{
    std::unique_ptr<WorkloadInstance> instance;
    std::size_t server = 0;
    std::size_t link = 0;
    double reservedGb = 0.0;
};

/** One node's telemetry and running deployments. */
struct Node
{
    std::unique_ptr<telemetry::Watcher> watcher;
    std::vector<RunningApp> running;
};

/**
 * What both cluster models share: the arrival stream, placement
 * checks, drop accounting, per-node traces and completion records.  A
 * model supplies the placement of each arrival and the tick that
 * advances its deployments.  The rack model also hands over its
 * testbed, so remote placements reserve capacity on their server.
 */
class ClusterDriver
{
  public:
    /**
     * @param rng the scenario stream, after the model drew its testbed
     *        seeds from it; the first arrival time is drawn here.
     * @param rack the shared rack, or null for the legacy model.
     */
    ClusterDriver(const ScenarioConfig &config_, std::size_t node_count,
                  Rng &rng_, ClusterPolicy &policy_,
                  testbed::RackTestbed *rack_)
        : nodes(node_count), config(config_), rng(rng_), policy(policy_),
          rack(rack_)
    {
        result.nodes.resize(node_count);
        for (Node &node : nodes)
            node.watcher = std::make_unique<telemetry::Watcher>(
                ScenarioEngine::kWindowSec * 4);
        nextArrival =
            rng.uniformInt(config.spawnMinSec, config.spawnMaxSec);
    }

    std::vector<Node> nodes;

    /** What the policy sees of every node. */
    std::vector<NodeView>
    views() const
    {
        std::vector<NodeView> out(nodes.size());
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            out[n].watcher = nodes[n].watcher.get();
            out[n].running = nodes[n].running.size();
        }
        return out;
    }

    /** Background interference lands on any node, in either mode. */
    ClusterPlacement
    trasherPlacement()
    {
        ClusterPlacement placement;
        placement.node = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(nodes.size()) - 1));
        placement.mode =
            rng.bernoulli(0.5) ? MemoryMode::Remote : MemoryMode::Local;
        return placement;
    }

    /**
     * Deploy every arrival due at `now`.  `place(spec)` is the model's
     * placement; an arrival whose node is full is dropped, and a remote
     * rack placement whose server has no room left runs locally.
     */
    template <typename Place>
    void
    admitArrivals(SimTime now, Place &&place)
    {
        while (now >= nextArrival) {
            nextArrival +=
                rng.uniformInt(config.spawnMinSec, config.spawnMaxSec);
            const WorkloadSpec &spec = drawArrival(rng, config);
            ClusterPlacement placement = place(spec);
            checkPlacement(placement);

            std::vector<RunningApp> &running = nodes[placement.node].running;
            if (running.size() >= config.maxConcurrent) {
                ++result.droppedArrivals;
                continue; // node full: drop
            }

            RunningApp app;
            if (rack != nullptr && placement.mode == MemoryMode::Remote) {
                // Reserve the footprint on the lending server for the
                // deployment's lifetime; a full server demotes the
                // placement to the node's local pool.
                if (rack->allocate(placement.server,
                                   spec.memoryFootprintGb)) {
                    app.server = placement.server;
                    app.link = placement.link;
                    app.reservedGb = spec.memoryFootprintGb;
                } else {
                    placement.mode = MemoryMode::Local;
                    ++result.remoteFallbacks;
                }
            }
            app.instance = std::make_unique<WorkloadInstance>(
                nextId++, spec, placement.mode, now, rng.nextU64());
            running.push_back(std::move(app));
        }
    }

    /**
     * Close node `n`'s second: record its counters and traffic, then
     * turn its finished deployments into completion records.
     */
    void
    completeSecond(std::size_t n, SimTime now,
                   const testbed::CounterSample &counters,
                   double remote_traffic_gbps)
    {
        std::vector<RunningApp> &running = nodes[n].running;
        ScenarioResult &node_result = result.nodes[n];
        node_result.trace.push_back(counters);
        node_result.concurrency.push_back(static_cast<int>(running.size()));
        node_result.totalRemoteTrafficGB += remote_traffic_gbps;
        result.totalRemoteTrafficGB += remote_traffic_gbps;

        for (std::size_t i = running.size(); i-- > 0;) {
            const RunningApp &app = running[i];
            if (!app.instance->finished())
                continue;
            DeploymentRecord record =
                completionRecord(*app.instance, now + 1, node_result.trace);
            if (app.reservedGb > 0.0)
                rack->release(app.server, app.reservedGb);
            policy.onCompletion(n, record);
            node_result.records.push_back(std::move(record));
            running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        }
    }

    /** Stamp per-node watcher health and move the result out. */
    ClusterResult
    finish()
    {
        for (std::size_t n = 0; n < nodes.size(); ++n)
            result.nodes[n].watcherHealth = nodes[n].watcher->health();
        return std::move(result);
    }

  private:
    const ScenarioConfig &config;
    Rng &rng;
    ClusterPolicy &policy;
    testbed::RackTestbed *rack;
    ClusterResult result;
    DeploymentId nextId = 1;
    SimTime nextArrival = 0;

    /** Refuse to simulate a placement that names a missing node, or a
     *  remote rack triple whose link does not join its node and
     *  server. */
    void
    checkPlacement(const ClusterPlacement &placement) const
    {
        if (placement.node >= nodes.size())
            panic("ClusterPolicy returned an invalid node");
        if (rack == nullptr || placement.mode != MemoryMode::Remote)
            return;
        const testbed::Topology &topo = rack->topology();
        if (placement.link >= topo.linkCount())
            panic("ClusterPolicy returned an invalid link");
        const testbed::LinkDesc &link = topo.link(placement.link);
        if (link.node != placement.node || link.server != placement.server)
            panic("ClusterPolicy placement link does not connect its "
                  "node to its server");
    }
};

} // namespace

ClusterScenarioRunner::ClusterScenarioRunner(std::size_t nodes,
                                             ScenarioConfig config_,
                                             testbed::TestbedParams params)
    : nodeCount(nodes), config(std::move(config_)), testbedParams(params)
{
    if (nodes == 0)
        fatal("ClusterScenarioRunner: need at least one node");
    checkScenarioConfig(config, "ClusterScenarioRunner",
                        /*injectsFaults=*/false);
}

ClusterScenarioRunner::ClusterScenarioRunner(testbed::Topology topology,
                                             ScenarioConfig config_)
    : nodeCount(topology.nodeCount()), config(std::move(config_)),
      rackTopology(std::move(topology))
{
    checkScenarioConfig(config, "ClusterScenarioRunner",
                        /*injectsFaults=*/true);
}

ClusterResult
ClusterScenarioRunner::run(ClusterPolicy &policy)
{
    return rackTopology.has_value() ? runRack(policy)
                                    : runLegacy(policy);
}

ClusterResult
ClusterScenarioRunner::runLegacy(ClusterPolicy &policy)
{
    Rng rng(config.seed);
    std::vector<std::unique_ptr<testbed::Testbed>> beds;
    for (std::size_t n = 0; n < nodeCount; ++n) {
        beds.push_back(std::make_unique<testbed::Testbed>(testbedParams,
                                                          rng.nextU64()));
        beds.back()->setNoise(config.counterNoise);
    }
    ClusterDriver driver(config, nodeCount, rng, policy, nullptr);

    for (SimTime now = 0; now < config.durationSec; ++now) {
        driver.admitArrivals(now, [&](const WorkloadSpec &spec) {
            if (spec.cls == WorkloadClass::Interference)
                return driver.trasherPlacement();
            return policy.place(spec, driver.views(), now);
        });

        // One second on every independent pair.
        for (std::size_t n = 0; n < nodeCount; ++n) {
            std::vector<RunningApp> &running = driver.nodes[n].running;
            std::vector<testbed::LoadDescriptor> loads;
            loads.reserve(running.size());
            for (const RunningApp &app : running)
                loads.push_back(app.instance->load());
            const testbed::TickResult tick = beds[n]->tick(loads);
            driver.nodes[n].watcher->record(tick.counters, now);
            for (std::size_t i = 0; i < running.size(); ++i)
                running[i].instance->advance(tick.outcomes[i], now + 1);
            driver.completeSecond(n, now, tick.counters,
                                  tick.remoteTrafficGBps);
        }
    }
    return driver.finish();
}

ClusterResult
ClusterScenarioRunner::runRack(ClusterPolicy &policy)
{
    const testbed::Topology &topo = *rackTopology;
    Rng rng(config.seed);
    testbed::RackTestbed rack(topo, rng.nextU64());
    rack.setNoise(config.counterNoise);
    fault::FaultInjector injector(config.faults);
    ClusterDriver driver(config, nodeCount, rng, policy, &rack);
    for (std::size_t n = 0; n < nodeCount; ++n)
        driver.nodes[n].watcher->configureLinks(topo.linksFrom(n).size());

    // Per-link fault derating applied this tick (rebuilt every second).
    std::vector<double> link_bw(topo.linkCount(), 1.0);
    std::vector<double> link_lat(topo.linkCount(), 1.0);

    const auto rackView = [&]() {
        RackView view;
        view.topology = &topo;
        view.servers.resize(topo.serverCount());
        for (std::size_t s = 0; s < topo.serverCount(); ++s) {
            view.servers[s].capacityGb = topo.server(s).capacityGb;
            view.servers[s].availableGb = rack.availableGb(s);
        }
        view.links.resize(topo.linkCount());
        for (std::size_t l = 0; l < topo.linkCount(); ++l) {
            view.links[l].node = topo.link(l).node;
            view.links[l].server = topo.link(l).server;
            view.links[l].bwScale = link_bw[l];
            view.links[l].latencyScale = link_lat[l];
        }
        return view;
    };

    for (SimTime now = 0; now < config.durationSec; ++now) {
        for (std::size_t l = 0; l < topo.linkCount(); ++l) {
            const fault::LinkState state =
                injector.linkStateAt(now, topo.link(l).name);
            link_bw[l] = state.bwScale;
            link_lat[l] = state.latencyScale;
            rack.setLinkFault(l, state.bwScale, state.latencyScale);
        }

        driver.admitArrivals(now, [&](const WorkloadSpec &spec) {
            // Remote trashers still need a real route.
            if (spec.cls == WorkloadClass::Interference)
                return routeOnRack(driver.trasherPlacement(), spec,
                                   rackView());
            return policy.placeRack(spec, driver.views(), rackView(), now);
        });

        // One shared rack second.
        std::vector<testbed::LoadDescriptor> loads;
        std::vector<std::pair<std::size_t, std::size_t>> owner;
        for (std::size_t n = 0; n < nodeCount; ++n) {
            for (std::size_t i = 0; i < driver.nodes[n].running.size(); ++i) {
                const RunningApp &app = driver.nodes[n].running[i];
                testbed::LoadDescriptor load = app.instance->load();
                load.node = n;
                load.server = app.server;
                load.link = app.link;
                loads.push_back(load);
                owner.emplace_back(n, i);
            }
        }
        const testbed::RackTickResult tick = rack.tick(loads);
        for (std::size_t k = 0; k < loads.size(); ++k)
            driver.nodes[owner[k].first]
                .running[owner[k].second]
                .instance->advance(tick.outcomes[k], now + 1);

        for (std::size_t n = 0; n < nodeCount; ++n) {
            telemetry::Watcher &watcher = *driver.nodes[n].watcher;
            watcher.record(tick.nodes[n].counters, now);
            std::vector<testbed::LinkCounterSample> link_samples;
            link_samples.reserve(topo.linksFrom(n).size());
            for (std::size_t l : topo.linksFrom(n))
                link_samples.push_back(tick.links[l].counters);
            if (!link_samples.empty())
                watcher.recordLinks(link_samples);
            driver.completeSecond(n, now, tick.nodes[n].counters,
                                  tick.nodes[n].remoteTrafficGBps);
        }
    }

    ClusterResult result = driver.finish();
    result.topologyName = topo.name();
    result.linkTotals.reserve(topo.linkCount());
    for (std::size_t l = 0; l < topo.linkCount(); ++l)
        result.linkTotals.push_back(rack.linkTotals(l));
    for (ScenarioResult &node_result : result.nodes)
        node_result.faultSummary = injector.stats();
    return result;
}

} // namespace adrias::scenario
