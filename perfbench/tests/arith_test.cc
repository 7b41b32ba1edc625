/**
 * @file
 * Self-tests for the benchmark's arithmetic.  run.py runs this binary
 * before every measurement and refuses to measure if it fails.
 */

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith.hh"

namespace
{

int failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "arith_test:%d: %s\n", line, what);
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> values;
    for (std::size_t i = 1; i <= n; ++i)
        values.push_back(static_cast<double>(i));
    return values;
}

void
testPercentileChoice()
{
    // 1000 samples: exactly 10 lie beyond p99, only 1 beyond p99.9.
    EXPECT(highestSupportedPercentile(ramp(1000)).percentile == 99.0);
    EXPECT(highestSupportedPercentile(ramp(999)).percentile == 95.0);
    EXPECT(highestSupportedPercentile(ramp(10000)).percentile == 99.9);
    EXPECT(highestSupportedPercentile(ramp(20)).percentile == 50.0);
    EXPECT(highestSupportedPercentile(ramp(19)).percentile == 0.0);
    EXPECT(highestSupportedPercentile({}).percentile == 0.0);
    // Value is the interpolated quantile of the chosen percentile.
    const TailPick pick = highestSupportedPercentile(ramp(1001));
    EXPECT(pick.percentile == 99.0);
    EXPECT(std::fabs(pick.value - 991.0) < 1e-9);
    EXPECT(quantile({3.0, 1.0, 2.0}, 0.5) == 2.0);
    EXPECT(quantile({1.0, 2.0}, 0.25) == 1.25);
    EXPECT(std::isnan(quantile({}, 0.5)));
    // A larger min_beyond demands a lower percentile.
    EXPECT(highestSupportedPercentile(ramp(1000), 50).percentile == 95.0);
}

void
testBlockMedian()
{
    // Three blocks of 1..100 (p99 99.01 each); the middle block
    // carries a burst of huge values that the median shrugs off.
    std::vector<double> values;
    for (int b = 0; b < 3; ++b)
        for (int i = 1; i <= 100; ++i)
            values.push_back(b == 1 && i > 90 ? 1e9 : i);
    const double median = blockMedianQuantile(values, 0.99, 100);
    EXPECT(std::fabs(median - 99.01) < 1e-9);
    // The trailing partial block is ignored.
    values.push_back(5e9);
    EXPECT(blockMedianQuantile(values, 0.99, 100) == median);
    EXPECT(std::isnan(blockMedianQuantile(ramp(99), 0.99, 100)));
    EXPECT(blockMedianQuantile(ramp(100), 0.5, 100) == 50.5);
}

void
testSelfTime()
{
    SpanTracer tracer(16);
    const int root = tracer.intern("root");
    const int a = tracer.intern("a");
    const int leaf = tracer.intern("leaf");
    const int b = tracer.intern("b");
    EXPECT(tracer.intern("a") == a);
    tracer.open(root, 0);
    tracer.open(a, 10);
    tracer.open(leaf, 15);
    tracer.close(25);
    tracer.close(40);
    tracer.open(b, 50);
    tracer.close(60);
    tracer.close(100);
    EXPECT(tracer.depth() == 0);
    EXPECT(tracer.totals("root").selfNs == 60.0);
    EXPECT(tracer.totals("root").totalNs == 100.0);
    EXPECT(tracer.totals("a").selfNs == 20.0);
    EXPECT(tracer.totals("leaf").selfNs == 10.0);
    EXPECT(tracer.totals("b").selfNs == 10.0);
    EXPECT(tracer.totals("missing").count == 0);
    // Self times of a closed tree add up to the root's duration.
    EXPECT(tracer.selfSumNs() == 100.0);

    // Repeated calls aggregate; kept spans record their parents.
    tracer.open(a, 200);
    tracer.close(203);
    EXPECT(tracer.totals("a").count == 2);
    EXPECT(tracer.totals("a").selfNs == 23.0);
    const auto &spans = tracer.spans();
    EXPECT(spans.size() == 5);
    EXPECT(spans[0].parent == -1 && spans[1].parent == 0);
    EXPECT(spans[2].parent == 1 && spans[3].parent == 0);
    EXPECT(spans[2].startNs == 15 && spans[2].endNs == 25);

    // The keep limit bounds raw spans, never the totals.
    SpanTracer bounded(1);
    const int x = bounded.intern("x");
    for (int i = 0; i < 3; ++i) {
        bounded.open(x, i * 10);
        bounded.close(i * 10 + 4);
    }
    EXPECT(bounded.spans().size() == 1);
    EXPECT(bounded.totals("x").count == 3);
    EXPECT(bounded.totals("x").selfNs == 12.0);

    bool threw = false;
    try {
        bounded.close(0);
    } catch (const std::logic_error &) {
        threw = true;
    }
    EXPECT(threw);
}

/** Drive a search against a server whose capacity is `capacity`. */
RateSearch
search(double start, double max_rate, int bisect, double capacity)
{
    RateSearch s(start, max_rate, bisect);
    while (const auto rate = s.next())
        s.report(*rate, *rate <= capacity);
    return s;
}

void
testRateSearch()
{
    // Ladder 1000, 2000, 4000 pass, 8000 fails; bisect 6000 (fail),
    // 5000 (pass), 5500 (fail).
    const RateSearch found = search(1000, 64000, 3, 5000);
    EXPECT(found.best() == 5000.0);
    EXPECT(found.trials() == 7);

    // Capacity above the ceiling: the last rung is the ceiling itself.
    const RateSearch capped = search(1000, 3000, 3, 1e9);
    EXPECT(capped.best() == 3000.0);
    EXPECT(capped.trials() == 3);

    // First rung fails: bisect down from it.
    const RateSearch low = search(1000, 64000, 2, 600);
    EXPECT(low.best() == 500.0);
    EXPECT(low.trials() == 3);

    // Nothing passes.
    const RateSearch none = search(1000, 64000, 2, 0);
    EXPECT(none.best() == 0.0);

    // Resolution: the answer is within (first fail - last pass) / 2^k.
    const RateSearch fine = search(1000, 64000, 6, 4321);
    EXPECT(fine.best() <= 4321.0 && fine.best() > 4321.0 - 4000.0 / 64.0);

    bool threw = false;
    try {
        RateSearch bad(0.0, 10.0, 1);
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    EXPECT(threw);
}

void
testBacklogGrowth()
{
    // A batching server's sawtooth: fills to 32, drains, repeats.
    std::vector<double> sawtooth;
    for (int i = 0; i < 2000; ++i)
        sawtooth.push_back(static_cast<double>(i % 33));
    EXPECT(!backlogGrowing(sawtooth, 64.0));

    // Overload: backlog climbs 0.5 requests per tick.
    std::vector<double> climbing;
    for (int i = 0; i < 2000; ++i)
        climbing.push_back(0.5 * i + static_cast<double>(i % 33));
    EXPECT(backlogGrowing(climbing, 64.0));

    // A start-up transient that settles does not count.
    std::vector<double> settling;
    for (int i = 0; i < 2000; ++i)
        settling.push_back(i < 900 ? 0.2 * i : 180.0);
    EXPECT(!backlogGrowing(settling, 64.0));

    // Growth below the slack is tolerated; above it is not.
    std::vector<double> slow;
    for (int i = 0; i < 1000; ++i)
        slow.push_back(0.1 * i);
    EXPECT(!backlogGrowing(slow, 64.0));
    EXPECT(backlogGrowing(slow, 30.0));

    EXPECT(!backlogGrowing({}, 1.0));
    EXPECT(!backlogGrowing({1, 2, 3}, 0.0));
}

void
testDigest()
{
    Digest a, b, c;
    a.add(std::uint64_t{1});
    a.add(std::string("x"));
    b.add(std::uint64_t{1});
    b.add(std::string("x"));
    c.add(std::string("x"));
    c.add(std::uint64_t{1});
    EXPECT(a.value() == b.value());
    EXPECT(a.value() != c.value());
}

} // namespace

int
main()
{
    testPercentileChoice();
    testBlockMedian();
    testSelfTime();
    testRateSearch();
    testBacklogGrowth();
    testDigest();
    if (failures) {
        std::fprintf(stderr, "arith_test: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("arith_test: ok\n");
    return 0;
}
