#include "scenario/dataset_io.hh"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/csv.hh"
#include "common/table.hh"
#include "common/logging.hh"
#include "testbed/counters.hh"

namespace adrias::scenario
{

using testbed::kNumPerfEvents;

namespace
{

constexpr std::size_t kBins = ScenarioEngine::kWindowBins;

/** Append a time-major sequence's cells to a flat row. */
void
appendSequence(std::vector<double> &row,
               const std::vector<ml::Matrix> &sequence)
{
    if (sequence.size() != kBins)
        fatal("dataset_io: sequence length mismatch");
    for (const ml::Matrix &step : sequence)
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            row.push_back(step.at(0, e));
}

/** Strictly parse the cell at `cursor`, advancing it on success. */
[[nodiscard]] Result<double>
readCell(const std::vector<std::string> &cells, std::size_t &cursor,
         const std::string &context)
{
    if (cursor >= cells.size())
        return makeError(ErrorCode::Truncated,
                         context + ": truncated row (cell " +
                             std::to_string(cursor) + ")");
    Result<double> value = parseDouble(cells[cursor]);
    if (!value.ok())
        return makeError(ErrorCode::BadNumber,
                         context + ": " + value.error().message +
                             " (cell " + std::to_string(cursor) + ")");
    ++cursor;
    return value;
}

/** Read a sequence back from a flat cell span. */
[[nodiscard]] Result<std::vector<ml::Matrix>>
readSequence(const std::vector<std::string> &cells, std::size_t &cursor,
             const std::string &context)
{
    std::vector<ml::Matrix> sequence;
    sequence.reserve(kBins);
    for (std::size_t b = 0; b < kBins; ++b) {
        ml::Matrix step(1, kNumPerfEvents);
        for (std::size_t e = 0; e < kNumPerfEvents; ++e) {
            Result<double> value = readCell(cells, cursor, context);
            if (!value.ok())
                return value.error();
            step.at(0, e) = value.value();
        }
        sequence.push_back(std::move(step));
    }
    return sequence;
}

[[nodiscard]] Result<ml::Matrix>
readRowVector(const std::vector<std::string> &cells, std::size_t &cursor,
              const std::string &context)
{
    ml::Matrix vec(1, kNumPerfEvents);
    for (std::size_t e = 0; e < kNumPerfEvents; ++e) {
        Result<double> value = readCell(cells, cursor, context);
        if (!value.ok())
            return value.error();
        vec.at(0, e) = value.value();
    }
    return vec;
}

/** Split one CSV line (fields are numbers/identifiers, no quoting). */
std::vector<std::string>
splitLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream in(line);
    while (std::getline(in, cell, ','))
        cells.push_back(cell);
    return cells;
}

std::string
classToken(WorkloadClass cls)
{
    switch (cls) {
      case WorkloadClass::BestEffort:
        return "be";
      case WorkloadClass::LatencyCritical:
        return "lc";
      case WorkloadClass::Interference:
        return "ib";
    }
    panic("unknown WorkloadClass");
}

[[nodiscard]] Result<WorkloadClass>
classFromToken(const std::string &token, const std::string &context)
{
    if (token == "be")
        return WorkloadClass::BestEffort;
    if (token == "lc")
        return WorkloadClass::LatencyCritical;
    if (token == "ib")
        return WorkloadClass::Interference;
    return makeError(ErrorCode::BadToken,
                     context + ": unknown class token '" + token + "'");
}

/**
 * Open `path` and validate the "# <magic>,<bins>,<events>" header.
 * On success the stream is positioned at the first data row.
 */
[[nodiscard]] Result<void>
openWithHeader(std::ifstream &in, const std::string &path,
               const std::string &magic, const std::string &context)
{
    in.open(path);
    if (!in)
        return makeError(ErrorCode::Io,
                         context + ": cannot open '" + path + "'");
    std::string line;
    if (!std::getline(in, line) || line.find(magic) != 0)
        return makeError(ErrorCode::BadHeader, context + ": bad header");
    const auto header = splitLine(line);
    if (header.size() != 3)
        return makeError(ErrorCode::BadHeader,
                         context + ": malformed header row");
    const Result<std::size_t> bins = parseSize(header[1]);
    const Result<std::size_t> events = parseSize(header[2]);
    if (!bins.ok() || !events.ok())
        return makeError(ErrorCode::BadHeader,
                         context + ": non-numeric header geometry");
    if (bins.value() != kBins || events.value() != kNumPerfEvents)
        return makeError(ErrorCode::Geometry,
                         context + ": geometry mismatch (file " +
                             header[1] + "x" + header[2] + ", expected " +
                             std::to_string(kBins) + "x" +
                             std::to_string(kNumPerfEvents) + ")");
    return {};
}

} // namespace

void
saveSystemStateCsv(const std::string &path,
                   const std::vector<SystemStateSample> &samples)
{
    CsvWriter csv(path);
    csv.writeRow({"# adrias-system-state-v1",
                  std::to_string(kBins),
                  std::to_string(kNumPerfEvents)});
    for (const SystemStateSample &sample : samples) {
        std::vector<double> row;
        row.reserve(kBins * kNumPerfEvents + kNumPerfEvents);
        appendSequence(row, sample.history);
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            row.push_back(sample.target.at(0, e));
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (double v : row)
            cells.push_back(formatDouble(v, 9));
        csv.writeRow(cells);
    }
}

Result<std::vector<SystemStateSample>>
tryLoadSystemStateCsv(const std::string &path)
{
    const std::string context = "loadSystemStateCsv";
    std::ifstream in;
    if (Result<void> header = openWithHeader(
            in, path, "# adrias-system-state-v1", context);
        !header.ok())
        return header.error();

    std::vector<SystemStateSample> samples;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto cells = splitLine(line);
        std::size_t cursor = 0;
        SystemStateSample sample;
        Result<std::vector<ml::Matrix>> history =
            readSequence(cells, cursor, context);
        if (!history.ok())
            return history.error();
        sample.history = std::move(history.value());
        Result<ml::Matrix> target = readRowVector(cells, cursor, context);
        if (!target.ok())
            return target.error();
        sample.target = std::move(target.value());
        if (cursor != cells.size())
            return makeError(ErrorCode::TrailingData,
                             context + ": trailing cells");
        samples.push_back(std::move(sample));
    }
    return samples;
}

std::vector<SystemStateSample>
loadSystemStateCsv(const std::string &path)
{
    Result<std::vector<SystemStateSample>> result =
        tryLoadSystemStateCsv(path);
    if (!result.ok())
        fatal(result.error().toString());
    return std::move(result.value());
}

void
savePerformanceCsv(const std::string &path,
                   const std::vector<PerformanceSample> &samples)
{
    CsvWriter csv(path);
    csv.writeRow({"# adrias-performance-v1",
                  std::to_string(kBins),
                  std::to_string(kNumPerfEvents)});
    for (const PerformanceSample &sample : samples) {
        std::vector<std::string> cells;
        cells.push_back(sample.name);
        cells.push_back(classToken(sample.cls));
        cells.push_back(toString(sample.mode));
        cells.push_back(formatDouble(sample.target, 9));
        std::vector<double> row;
        appendSequence(row, sample.history);
        appendSequence(row, sample.signature);
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            row.push_back(sample.futureWindow.at(0, e));
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            row.push_back(sample.futureExec.at(0, e));
        for (double v : row)
            cells.push_back(formatDouble(v, 9));
        csv.writeRow(cells);
    }
}

Result<std::vector<PerformanceSample>>
tryLoadPerformanceCsv(const std::string &path)
{
    const std::string context = "loadPerformanceCsv";
    std::ifstream in;
    if (Result<void> header = openWithHeader(
            in, path, "# adrias-performance-v1", context);
        !header.ok())
        return header.error();

    std::vector<PerformanceSample> samples;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto cells = splitLine(line);
        if (cells.size() < 4)
            return makeError(ErrorCode::Truncated,
                             context + ": short row");
        PerformanceSample sample;
        sample.name = cells[0];
        Result<WorkloadClass> cls = classFromToken(cells[1], context);
        if (!cls.ok())
            return cls.error();
        sample.cls = cls.value();
        if (cells[2] == "local") {
            sample.mode = MemoryMode::Local;
        } else if (cells[2] == "remote") {
            sample.mode = MemoryMode::Remote;
        } else {
            return makeError(ErrorCode::BadToken,
                             context + ": unknown memory mode '" +
                                 cells[2] + "'");
        }
        Result<double> target = parseDouble(cells[3]);
        if (!target.ok())
            return makeError(ErrorCode::BadNumber,
                             context + ": " + target.error().message +
                                 " (target)");
        sample.target = target.value();
        std::size_t cursor = 4;
        Result<std::vector<ml::Matrix>> history =
            readSequence(cells, cursor, context);
        if (!history.ok())
            return history.error();
        sample.history = std::move(history.value());
        Result<std::vector<ml::Matrix>> signature =
            readSequence(cells, cursor, context);
        if (!signature.ok())
            return signature.error();
        sample.signature = std::move(signature.value());
        Result<ml::Matrix> future_window =
            readRowVector(cells, cursor, context);
        if (!future_window.ok())
            return future_window.error();
        sample.futureWindow = std::move(future_window.value());
        Result<ml::Matrix> future_exec =
            readRowVector(cells, cursor, context);
        if (!future_exec.ok())
            return future_exec.error();
        sample.futureExec = std::move(future_exec.value());
        if (cursor != cells.size())
            return makeError(ErrorCode::TrailingData,
                             context + ": trailing cells");
        samples.push_back(std::move(sample));
    }
    return samples;
}

std::vector<PerformanceSample>
loadPerformanceCsv(const std::string &path)
{
    Result<std::vector<PerformanceSample>> result =
        tryLoadPerformanceCsv(path);
    if (!result.ok())
        fatal(result.error().toString());
    return std::move(result.value());
}

} // namespace adrias::scenario
