/**
 * @file
 * Wrappers the benchmark puts around the library's public extension
 * points: a forwarding PredictorBase, a PlacementPolicy and a
 * ClusterPolicy.  Each records the wall time of every decision (the
 * end-to-end latency sample, taken in both runs) and, when a tracer
 * is attached, a span per call so the traced run can split time by
 * layer.  None of them changes an argument or a result.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "arith.hh"
#include "core/adrias.hh"

namespace perfbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Opens a span on construction and closes it on destruction; inert
 *  without a tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanTracer *tracer, int name) : tracer(tracer)
    {
        if (tracer != nullptr)
            tracer->open(name, nowNs());
    }
    ~ScopedSpan()
    {
        if (tracer != nullptr)
            tracer->close(nowNs());
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanTracer *tracer;
};

/** Span names shared by every workload. */
struct SpanIds
{
    int tick, clusterRun, place, completion, stateForecast, perf,
        perfBatch, submit, pump, beginEpoch, generate;

    explicit SpanIds(SpanTracer &tracer);
};

/** Forwarding predictor that spans and counts every model call. */
class TracedPredictor : public adrias::models::PredictorBase
{
  public:
    TracedPredictor(const adrias::models::PredictorBase &inner,
                    SpanTracer &tracer, const SpanIds &ids)
        : inner(&inner), tracer(&tracer), ids(&ids)
    {
    }

    adrias::ml::Matrix
    predictSystemState(const adrias::telemetry::Watcher &watcher)
        const override;

    double predictPerformance(
        adrias::WorkloadClass cls,
        const std::vector<adrias::ml::Matrix> &history,
        const std::vector<adrias::ml::Matrix> &signature,
        adrias::MemoryMode mode) const override;

    std::vector<double>
    predictPerformanceBatch(adrias::WorkloadClass cls,
                            const std::vector<PerfQuery> &queries)
        const override;

    bool trained() const override { return inner->trained(); }

    /** Rows passed to predictPerformanceBatch, padding included. */
    std::uint64_t batchRows() const { return rows; }

  private:
    const adrias::models::PredictorBase *inner;
    SpanTracer *tracer;
    const SpanIds *ids;
    mutable std::uint64_t rows = 0;
};

/** Single-node policy wrapper: latency samples, digest, spans. */
class MeasuredPlacement : public adrias::scenario::PlacementPolicy
{
  public:
    MeasuredPlacement(adrias::scenario::PlacementPolicy &inner,
                      SpanTracer *tracer, const SpanIds &ids,
                      std::vector<double> &latency_us, Digest &digest)
        : inner(&inner), tracer(tracer), ids(&ids),
          latencyUs(&latency_us), digest(&digest)
    {
    }

    std::string name() const override { return inner->name(); }

    adrias::MemoryMode
    place(const adrias::workloads::WorkloadSpec &spec,
          const adrias::telemetry::Watcher &watcher,
          adrias::SimTime now) override;

    void
    onCompletion(const adrias::scenario::DeploymentRecord &record)
        override;

  private:
    adrias::scenario::PlacementPolicy *inner;
    SpanTracer *tracer;
    const SpanIds *ids;
    std::vector<double> *latencyUs;
    Digest *digest;
};

/**
 * Rack policy wrapper.  Besides timing, it predicts from the views the
 * runner hands it which policy arrivals the runner must drop (chosen
 * node already at the concurrency cap), so arrivals can be reconciled
 * against placements and drops afterwards.
 */
class MeasuredClusterPolicy : public adrias::scenario::ClusterPolicy
{
  public:
    /** One BE/LC arrival as the policy saw it. */
    struct Arrival
    {
        adrias::SimTime now;
        std::string app;
        std::size_t node;
        bool dropped;
    };

    MeasuredClusterPolicy(adrias::scenario::ClusterPolicy &inner,
                          std::size_t max_concurrent, SpanTracer *tracer,
                          const SpanIds &ids,
                          std::vector<double> &latency_us, Digest &digest)
        : inner(&inner), maxConcurrent(max_concurrent), tracer(tracer),
          ids(&ids), latencyUs(&latency_us), digest(&digest)
    {
    }

    std::string name() const override { return inner->name(); }

    adrias::scenario::ClusterPlacement
    place(const adrias::workloads::WorkloadSpec &spec,
          const std::vector<adrias::scenario::NodeView> &nodes,
          adrias::SimTime now) override
    {
        return inner->place(spec, nodes, now);
    }

    adrias::scenario::ClusterPlacement
    placeRack(const adrias::workloads::WorkloadSpec &spec,
              const std::vector<adrias::scenario::NodeView> &nodes,
              const adrias::scenario::RackView &rack,
              adrias::SimTime now) override;

    void
    onCompletion(std::size_t node,
                 const adrias::scenario::DeploymentRecord &record)
        override;

    const std::vector<Arrival> &arrivals() const { return seen; }

    /** Policy decisions that asked for remote memory. */
    std::size_t remoteDecisions() const { return remoteAsked; }

  private:
    adrias::scenario::ClusterPolicy *inner;
    std::size_t maxConcurrent;
    SpanTracer *tracer;
    const SpanIds *ids;
    std::vector<double> *latencyUs;
    Digest *digest;
    std::vector<Arrival> seen;
    std::size_t remoteAsked = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
