/**
 * @file
 * The benchmark's own arithmetic, kept free of library types so the
 * self-test binary can pin it down exactly: percentile selection,
 * nested-span self time, the offered-rate search and backlog-growth
 * detection.
 */

#ifndef PERFBENCH_ARITH_HH
#define PERFBENCH_ARITH_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** Linear-interpolation quantile of an unsorted sample (NaN if empty). */
double quantile(std::vector<double> values, double q);

/** A percentile chosen for a sample, and its value. */
struct TailPick
{
    /** Percentile, e.g. 99.0; 0 when the sample is too small. */
    double percentile = 0.0;
    double value = 0.0;
};

/**
 * The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at
 * least `min_beyond` samples strictly above its rank, so a reported
 * tail always rests on that many observations.
 */
TailPick highestSupportedPercentile(const std::vector<double> &values,
                                    std::size_t min_beyond = 10);

/**
 * Median over consecutive blocks of `block` samples (in arrival order)
 * of each block's q-quantile; a trailing partial block is ignored.
 * With block = 1000 and q = 0.99 every block's p99 has 10 samples
 * beyond it, and the median across blocks shrugs off a burst of host
 * noise that lands in one block.  NaN when there is no full block.
 */
double blockMedianQuantile(const std::vector<double> &values, double q,
                           std::size_t block);

/**
 * Nested-span recorder.  open()/close() take explicit timestamps (ns)
 * so tests can drive it; the benchmark feeds it steady_clock readings.
 * A span's self time is its duration minus the time its direct
 * children cover.  Totals aggregate per name; the first `keep` raw
 * spans are retained for the trace file.
 */
class SpanTracer
{
  public:
    struct Totals
    {
        std::uint64_t count = 0;
        double totalNs = 0.0;
        double selfNs = 0.0;
    };

    struct Span
    {
        int name = 0;
        int parent = -1; ///< index into spans(), -1 for a root
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    explicit SpanTracer(std::size_t keep = 0) : keepLimit(keep) {}

    /** Stable id for a span name. */
    int intern(const std::string &name);

    void open(int name, std::int64_t now_ns);
    void close(std::int64_t now_ns);

    /** Number of spans currently open. */
    std::size_t depth() const { return stack.size(); }

    /** Aggregates for one name (zeros if never seen). */
    Totals totals(const std::string &name) const;

    /** Sum of self time over every closed span. */
    double selfSumNs() const;

    const std::vector<std::string> &names() const { return nameTable; }
    const std::vector<Span> &spans() const { return kept; }

  private:
    struct Open
    {
        int name;
        std::int64_t startNs;
        double childNs;
        int keptIndex;
    };

    std::size_t keepLimit;
    std::vector<std::string> nameTable;
    std::vector<Totals> perName;
    std::vector<Open> stack;
    std::vector<Span> kept;
};

/**
 * Highest offered rate that passes: a geometric ladder (start, 2×start,
 * … up to `max_rate`) until the first failing rung, then `bisect_steps`
 * bisections between the last pass and the first fail.  The caller
 * runs each proposed trial and reports its outcome.
 */
class RateSearch
{
  public:
    RateSearch(double start, double max_rate, int bisect_steps);

    /** Next rate to try, or nullopt when the search is over. */
    std::optional<double> next() const;

    /** Outcome of the trial at the rate next() returned. */
    void report(double rate, bool pass);

    /** Highest passing rate seen (0 if none passed). */
    double best() const { return lastPass; }

    std::size_t trials() const { return trialCount; }

  private:
    double maxRate;
    int bisectLeft;
    double lastPass = 0.0;
    std::optional<double> firstFail;
    double pending;
    bool bisecting = false;
    bool done = false;
    std::size_t trialCount = 0;
};

/**
 * A backlog series (one sample per tick) grows when, over its second
 * half, a least-squares line rises by more than `slack` requests.
 * Short oscillations of size up to one batch are normal in a batching
 * server and stay below a slack of a couple of batches.
 */
bool backlogGrowing(const std::vector<double> &backlog, double slack);

/** FNV-1a over bytes, for placement digests. */
class Digest
{
  public:
    void add(std::uint64_t value);
    void add(const std::string &text);
    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ULL;
};

} // namespace perfbench

#endif // PERFBENCH_ARITH_HH
