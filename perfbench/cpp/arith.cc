#include "arith.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace perfbench
{

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

TailPick
highestSupportedPercentile(const std::vector<double> &values,
                           std::size_t min_beyond)
{
    static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    const double n = static_cast<double>(values.size());
    for (double p : kLadder) {
        // Samples strictly beyond the p-th percentile rank.
        const double beyond = std::floor(n * (100.0 - p) / 100.0 + 1e-9);
        if (beyond >= static_cast<double>(min_beyond))
            return {p, quantile(values, p / 100.0)};
    }
    return {};
}

double
blockMedianQuantile(const std::vector<double> &values, double q,
                    std::size_t block)
{
    if (block == 0)
        throw std::invalid_argument("blockMedianQuantile: empty block");
    std::vector<double> per_block;
    for (std::size_t begin = 0; begin + block <= values.size();
         begin += block)
        per_block.push_back(quantile(
            std::vector<double>(values.begin() +
                                    static_cast<std::ptrdiff_t>(begin),
                                values.begin() +
                                    static_cast<std::ptrdiff_t>(begin +
                                                                block)),
            q));
    return quantile(per_block, 0.5);
}

int
SpanTracer::intern(const std::string &name)
{
    for (std::size_t i = 0; i < nameTable.size(); ++i)
        if (nameTable[i] == name)
            return static_cast<int>(i);
    nameTable.push_back(name);
    perName.emplace_back();
    return static_cast<int>(nameTable.size() - 1);
}

void
SpanTracer::open(int name, std::int64_t now_ns)
{
    if (name < 0 || static_cast<std::size_t>(name) >= nameTable.size())
        throw std::logic_error("SpanTracer: unknown span name");
    int kept_index = -1;
    if (kept.size() < keepLimit) {
        const int parent = stack.empty() ? -1 : stack.back().keptIndex;
        kept.push_back({name, parent, now_ns, now_ns});
        kept_index = static_cast<int>(kept.size() - 1);
    }
    stack.push_back({name, now_ns, 0.0, kept_index});
}

void
SpanTracer::close(std::int64_t now_ns)
{
    if (stack.empty())
        throw std::logic_error("SpanTracer: close without open");
    const Open top = stack.back();
    stack.pop_back();
    const double duration = static_cast<double>(now_ns - top.startNs);
    Totals &totals = perName[static_cast<std::size_t>(top.name)];
    ++totals.count;
    totals.totalNs += duration;
    totals.selfNs += duration - top.childNs;
    if (!stack.empty())
        stack.back().childNs += duration;
    if (top.keptIndex >= 0)
        kept[static_cast<std::size_t>(top.keptIndex)].endNs = now_ns;
}

SpanTracer::Totals
SpanTracer::totals(const std::string &name) const
{
    for (std::size_t i = 0; i < nameTable.size(); ++i)
        if (nameTable[i] == name)
            return perName[i];
    return {};
}

double
SpanTracer::selfSumNs() const
{
    double sum = 0.0;
    for (const Totals &totals : perName)
        sum += totals.selfNs;
    return sum;
}

RateSearch::RateSearch(double start, double max_rate, int bisect_steps)
    : maxRate(max_rate), bisectLeft(bisect_steps), pending(start)
{
    if (!(start > 0.0) || max_rate < start || bisect_steps < 0)
        throw std::invalid_argument("RateSearch: bad parameters");
}

std::optional<double>
RateSearch::next() const
{
    if (done || (firstFail && bisectLeft <= 0))
        return std::nullopt;
    return pending;
}

void
RateSearch::report(double rate, bool pass)
{
    ++trialCount;
    if (pass)
        lastPass = std::max(lastPass, rate);
    else if (!firstFail || rate < *firstFail)
        firstFail = rate;

    if (bisecting)
        --bisectLeft;
    if (!firstFail) {
        // Still climbing the ladder; the last rung is max_rate itself.
        if (rate >= maxRate)
            done = true;
        pending = std::min(rate * 2.0, maxRate);
        return;
    }
    bisecting = true;
    pending = 0.5 * (lastPass + *firstFail);
}

bool
backlogGrowing(const std::vector<double> &backlog, double slack)
{
    const std::size_t n = backlog.size();
    if (n < 8)
        return false;
    const std::size_t begin = n / 2;
    const double m = static_cast<double>(n - begin);
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = begin; i < n; ++i) {
        const double x = static_cast<double>(i - begin);
        sx += x;
        sy += backlog[i];
        sxx += x * x;
        sxy += x * backlog[i];
    }
    const double denom = m * sxx - sx * sx;
    if (denom <= 0.0)
        return false;
    const double slope = (m * sxy - sx * sy) / denom;
    return slope * (m - 1.0) > slack;
}

void
Digest::add(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        state ^= (value >> (8 * i)) & 0xffu;
        state *= 0x100000001b3ULL;
    }
}

void
Digest::add(const std::string &text)
{
    add(static_cast<std::uint64_t>(text.size()));
    for (unsigned char c : text) {
        state ^= c;
        state *= 0x100000001b3ULL;
    }
}

} // namespace perfbench
