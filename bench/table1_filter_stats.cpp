/**
 * Table 1 reproduction: empirical filter frequencies of the Dynamic block
 * finder on random data. The paper tests 10^12 positions; we test a scaled
 * sample (default 2^31 ≈ 2·10^9, RAPIDGZIP_BENCH_SCALE multiplies) and print
 * counts normalized *per 10^12 positions* next to the paper's numbers.
 *
 * The tallies come from DynamicBlockFinderRapid::find(), the word-parallel
 * scan the chunk fetcher runs, and are cross-checked against a per-position
 * testCandidate loop over the same positions: the bench exits non-zero when
 * any counter differs, so its smoke run gates exact Table 1 tallies.
 */

#include <cinttypes>
#include <cstdio>

#include "blockfinder/DynamicBlockFinderRapid.hpp"
#include "workloads/DataGenerators.hpp"

#include "BenchmarkHelpers.hpp"

using namespace rapidgzip;
using blockfinder::DynamicBlockFinderRapid;
using blockfinder::FilterStatistics;

namespace {

struct StatRow
{
    const char* label;
    std::uint64_t FilterStatistics::*counter;
    const char* paper;
};

constexpr StatRow STAT_ROWS[] = {
    {"Invalid final block", &FilterStatistics::invalidFinalBlock, "500000.1e6"},
    {"Invalid compression type", &FilterStatistics::invalidCompressionType, "375000.0e6"},
    {"Invalid Precode size", &FilterStatistics::invalidPrecodeSize, "7812.47e6"},
    {"Invalid Precode code", &FilterStatistics::invalidPrecodeCode, "77451.6e6"},
    {"Non-optimal Precode code", &FilterStatistics::nonOptimalPrecodeCode, "39256.9e6"},
    {"Invalid Precode-encoded data", &FilterStatistics::invalidPrecodeEncodedData, "386.66e6"},
    {"Invalid distance code", &FilterStatistics::invalidDistanceCode, "14.291e6"},
    {"Non-optimal distance code", &FilterStatistics::nonOptimalDistanceCode, "77.126e6"},
    {"Invalid literal code", &FilterStatistics::invalidLiteralCode, "340.6e3"},
    {"Non-optimal literal code", &FilterStatistics::nonOptimalLiteralCode, "517.2e3"},
    {"Valid Deflate headers", &FilterStatistics::validHeaders, "202"},
};

}  // namespace

int
main()
{
    bench::printHeader("Table 1: Dynamic block finder filter frequencies (per 1e12 positions)");

    const auto sampleBytes = bench::scaledSize(96 * MiB);
    const auto data = workloads::randomData(sampleBytes + 4096, 0x7AB1E1);
    const BufferView view(data.data(), data.size());
    const auto positions = sampleBytes * 8;

    /* Each valid header ends one find(); the next resumes one past it. */
    DynamicBlockFinderRapid finder;
    Stopwatch findTime;
    for (std::size_t position = 0; position < positions;) {
        const auto found = finder.find(view, position, positions);
        if (found == blockfinder::NOT_FOUND) {
            break;
        }
        position = found + 1;
    }
    const auto findSeconds = findTime.elapsed();
    const auto& statistics = finder.statistics();

    FilterStatistics reference;
    Stopwatch referenceTime;
    for (std::size_t position = 0; position < positions; ++position) {
        (void)DynamicBlockFinderRapid::testCandidate(view, position, &reference);
    }
    const auto referenceSeconds = referenceTime.elapsed();

    std::printf("  positions tested: %" PRIu64 " (find(): %.2f Mpos/s, per-position testCandidate: "
                "%.2f Mpos/s)\n\n",
                statistics.positionsTested, static_cast<double>(positions) / findSeconds / 1e6,
                static_cast<double>(positions) / referenceSeconds / 1e6);

    const auto total = static_cast<double>(statistics.positionsTested);
    for (const auto& row : STAT_ROWS) {
        std::printf("  %-32s %14.4g   [paper: %s]\n", row.label,
                    static_cast<double>(statistics.*row.counter) / total * 1e12, row.paper);
    }

    std::printf("\n  Expected shape (paper Table 1): each stage filters a sharply smaller\n"
                "  absolute count; the small-sample tail rows are noisy by nature.\n");

    if (statistics != reference) {
        std::fprintf(stderr, "\n  MISMATCH: find() tallies differ from the per-position cascade\n"
                             "  %-32s %" PRIu64 " vs %" PRIu64 "\n",
                     "Positions tested", statistics.positionsTested, reference.positionsTested);
        for (const auto& row : STAT_ROWS) {
            std::fprintf(stderr, "  %-32s %" PRIu64 " vs %" PRIu64 "\n", row.label,
                         statistics.*row.counter, reference.*row.counter);
        }
        return 1;
    }
    std::printf("  find() tallies match the per-position cascade exactly.\n");
    return 0;
}
