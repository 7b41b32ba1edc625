#include "probes.hh"

namespace perfbench
{

using namespace adrias;

SpanIds::SpanIds(SpanTracer &tracer)
    : tick(tracer.intern("scenario.tick")),
      clusterRun(tracer.intern("scenario.cluster_run")),
      place(tracer.intern("core.place")),
      completion(tracer.intern("core.on_completion")),
      stateForecast(tracer.intern("models.state_forecast")),
      perf(tracer.intern("models.perf")),
      perfBatch(tracer.intern("models.perf_batch")),
      submit(tracer.intern("serving.submit")),
      pump(tracer.intern("serving.pump")),
      beginEpoch(tracer.intern("serving.begin_epoch")),
      generate(tracer.intern("loadgen.generate"))
{
}

ml::Matrix
TracedPredictor::predictSystemState(const telemetry::Watcher &watcher) const
{
    ScopedSpan span(tracer, ids->stateForecast);
    return inner->predictSystemState(watcher);
}

double
TracedPredictor::predictPerformance(
    WorkloadClass cls, const std::vector<ml::Matrix> &history,
    const std::vector<ml::Matrix> &signature, MemoryMode mode) const
{
    ScopedSpan span(tracer, ids->perf);
    return inner->predictPerformance(cls, history, signature, mode);
}

std::vector<double>
TracedPredictor::predictPerformanceBatch(
    WorkloadClass cls, const std::vector<PerfQuery> &queries) const
{
    ScopedSpan span(tracer, ids->perfBatch);
    rows += queries.size();
    return inner->predictPerformanceBatch(cls, queries);
}

MemoryMode
MeasuredPlacement::place(const workloads::WorkloadSpec &spec,
                         const telemetry::Watcher &watcher, SimTime now)
{
    MemoryMode mode;
    const std::int64_t start = nowNs();
    {
        ScopedSpan span(tracer, ids->place);
        mode = inner->place(spec, watcher, now);
    }
    latencyUs->push_back(static_cast<double>(nowNs() - start) * 1e-3);
    digest->add(static_cast<std::uint64_t>(now));
    digest->add(spec.name);
    digest->add(static_cast<std::uint64_t>(mode));
    return mode;
}

void
MeasuredPlacement::onCompletion(const scenario::DeploymentRecord &record)
{
    ScopedSpan span(tracer, ids->completion);
    inner->onCompletion(record);
}

scenario::ClusterPlacement
MeasuredClusterPolicy::placeRack(
    const workloads::WorkloadSpec &spec,
    const std::vector<scenario::NodeView> &nodes,
    const scenario::RackView &rack, SimTime now)
{
    scenario::ClusterPlacement placement;
    const std::int64_t start = nowNs();
    {
        ScopedSpan span(tracer, ids->place);
        placement = inner->placeRack(spec, nodes, rack, now);
    }
    latencyUs->push_back(static_cast<double>(nowNs() - start) * 1e-3);
    digest->add(static_cast<std::uint64_t>(now));
    digest->add(spec.name);
    digest->add(static_cast<std::uint64_t>(placement.mode));
    digest->add(placement.node);
    digest->add(placement.server);
    digest->add(placement.link);
    remoteAsked += placement.mode == MemoryMode::Remote;
    const bool full = placement.node < nodes.size() &&
                      nodes[placement.node].running >= maxConcurrent;
    seen.push_back({now, spec.name, placement.node, full});
    return placement;
}

void
MeasuredClusterPolicy::onCompletion(std::size_t node,
                                    const scenario::DeploymentRecord &record)
{
    ScopedSpan span(tracer, ids->completion);
    inner->onCompletion(node, record);
}

} // namespace perfbench
