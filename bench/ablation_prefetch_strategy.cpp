/**
 * Ablation: prefetching strategy and cache behaviour (paper §3.2).
 *
 * Compares FetchNextFixed, FetchNextAdaptive (the paper's default), and
 * FetchNextMultiStream on (a) one sequential reader and (b) two interleaved
 * sequential readers over the same file — the concurrent-access pattern of
 * a ratarmount-style FUSE mount. Reports bandwidth and prefetch cache
 * efficiency. Both read after the first size(), whose footer-verified sweep
 * is an ordered pass that prefetches alike under every strategy, so the
 * statistics count only the reads, where the strategy must guess.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "core/ParallelGzipReader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "workloads/DataGenerators.hpp"

#include "BenchmarkHelpers.hpp"

using namespace rapidgzip;

namespace {

const char*
name(ChunkFetcherConfiguration::Strategy strategy)
{
    switch (strategy) {
    case ChunkFetcherConfiguration::Strategy::FIXED:        return "FetchNextFixed";
    case ChunkFetcherConfiguration::Strategy::ADAPTIVE:     return "FetchNextAdaptive";
    case ChunkFetcherConfiguration::Strategy::MULTI_STREAM: return "FetchNextMultiStream";
    }
    return "?";
}

ChunkFetcherConfiguration
config(ChunkFetcherConfiguration::Strategy strategy)
{
    ChunkFetcherConfiguration result;
    result.parallelism = 4;
    result.chunkSizeBytes = 512 * KiB;
    result.strategy = strategy;
    return result;
}

/** What @p after counted since @p before. */
FetcherStatistics
since(const FetcherStatistics& before, const FetcherStatistics& after)
{
    FetcherStatistics result;
    result.prefetchDispatched = after.prefetchDispatched - before.prefetchDispatched;
    result.prefetchHits = after.prefetchHits - before.prefetchHits;
    result.onDemandDecodes = after.onDemandDecodes - before.onDemandDecodes;
    result.cacheHits = after.cacheHits - before.cacheHits;
    result.evictions = after.evictions - before.evictions;
    result.prefetchWasted = after.prefetchWasted - before.prefetchWasted;
    return result;
}

/* Consumed / issued: how much speculative work a strategy turns into served
 * accesses. "wasted" counts evicted-unconsumed decodes plus the decodes that
 * never found a consumer by the end of the run (dispatched - consumed). */
void
printRow(const char* strategyName, const bench::Measurement& bandwidth, const FetcherStatistics& stats)
{
    const auto wasted = stats.prefetchDispatched - stats.prefetchHits;
    const auto efficiency = stats.prefetchDispatched > 0
                            ? 100.0 * static_cast<double>(stats.prefetchHits)
                              / static_cast<double>(stats.prefetchDispatched)
                            : 0.0;
    std::printf("  %-22s %10.2f ± %-8.2f MB/s   issued %zu, consumed %zu, wasted %zu"
                " (%.1f%% efficient), on-demand %zu\n",
                strategyName, bandwidth.mean / 1e6, bandwidth.stddev / 1e6,
                stats.prefetchDispatched, stats.prefetchHits, wasted, efficiency,
                stats.onDemandDecodes);
    std::fflush(stdout);
}

}  // namespace

int
main()
{
    bench::printHeader("Ablation: prefetch strategy (paper 3.2)");

    const auto data = workloads::base64Data(bench::scaledSize(32 * MiB), 0xAB6);
    const auto compressed = compressPigzLike({ data.data(), data.size() }, 6, 256 * 1024);
    const auto repeats = bench::benchRepeats(3);

    const ChunkFetcherConfiguration::Strategy strategies[] = {
        ChunkFetcherConfiguration::Strategy::FIXED,
        ChunkFetcherConfiguration::Strategy::ADAPTIVE,
        ChunkFetcherConfiguration::Strategy::MULTI_STREAM,
    };

    std::printf("  --- one sequential reader; statistics exclude the size() sweep\n"
                "      that precedes the reads ---\n");
    for (const auto strategy : strategies) {
        FetcherStatistics stats;
        const auto bandwidth = bench::measureBandwidth(data.size(), repeats, [&]() {
            ParallelGzipReader reader(std::make_unique<MemoryFileReader>(compressed),
                                      config(strategy));
            (void)reader.size();
            const auto afterSweep = reader.fetcherStatistics();
            std::vector<std::uint8_t> buffer(256 * KiB);
            while (reader.read(buffer.data(), buffer.size()) > 0) {
            }
            stats = since(afterSweep, reader.fetcherStatistics());
        });
        printRow(name(strategy), bandwidth, stats);
    }

    std::printf("\n  --- two interleaved sequential readers (ratarmount pattern);\n"
                "      statistics exclude the size() sweep that precedes the reads ---\n");
    for (const auto strategy : strategies) {
        FetcherStatistics stats;
        const auto bandwidth = bench::measureBandwidth(data.size(), repeats, [&]() {
            ParallelGzipReader reader(std::make_unique<MemoryFileReader>(compressed),
                                      config(strategy));
            /* The first size() runs the footer-verified sweep through the
             * same fetcher; count only what the interleaved reads add. */
            (void)reader.size();
            const auto afterSweep = reader.fetcherStatistics();

            /* Alternate 256 KiB reads from the halves of the stream. */
            std::vector<std::uint8_t> buffer(256 * KiB);
            std::size_t positionA = 0;
            std::size_t positionB = data.size() / 2;
            bool moreA = true;
            bool moreB = true;
            while (moreA || moreB) {
                if (moreA) {
                    reader.seek(positionA);
                    const auto n = reader.read(buffer.data(),
                                               std::min(buffer.size(), data.size() / 2 - positionA));
                    positionA += n;
                    moreA = (n > 0) && (positionA < data.size() / 2);
                }
                if (moreB) {
                    reader.seek(positionB);
                    const auto n = reader.read(buffer.data(),
                                               std::min(buffer.size(), data.size() - positionB));
                    positionB += n;
                    moreB = (n > 0) && (positionB < data.size());
                }
            }
            stats = since(afterSweep, reader.fetcherStatistics());
        });
        printRow(name(strategy), bandwidth, stats);
    }

    std::printf("\n  Expected shape: all strategies tie on sequential reads; the\n"
                "  multi-stream strategy wins prefetch efficiency on interleaved access\n"
                "  (FIXED keeps issuing down both halves' dead ends, so its wasted\n"
                "  column prices the speculation the wall clock alone hides).\n");
    return 0;
}
