/**
 * Ablation: the two-stage → conventional fallback (paper §3.3/§4.4).
 *
 * When the trailing 32 KiB of a chunk contain no markers, the decoder
 * materializes a window and continues with plain 8-bit decoding, skipping
 * the 16-bit intermediate format. The paper credits this for base64-style
 * data where backward pointers die out quickly. Here the silesia-like
 * chunks fall back early too; FASTQ chunks, whose record headers keep
 * copying pre-chunk history, never do.
 *
 * This benchmark quantifies: (a) what fraction of chunk output is decoded in
 * 16-bit mode per workload, and (b) the marker replacement cost that the
 * fallback avoids.
 */

#include <cstdio>
#include <memory>

#include "core/GzipChunkFetcher.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "workloads/DataGenerators.hpp"

#include "BenchmarkHelpers.hpp"

using namespace rapidgzip;

namespace {

void
analyzeWorkload(const char* name, const std::vector<std::uint8_t>& data)
{
    const auto compressed = compressGzipLike({ data.data(), data.size() }, 6);
    MemoryFileReader reader(compressed);

    /* Scale the chunk grid with the workload so RAPIDGZIP_BENCH_SCALE keeps
     * producing mid-file chunks (a fixed 1 MiB grid yields zero chunks on
     * small CI runs). Keep >= 128 KiB so the fallback has room to trigger. */
    const std::size_t PARTITION = std::max<std::size_t>(bench::scaledSize(1 * MiB), 128 * KiB);
    std::size_t markedBytes = 0;
    std::size_t plainBytes = 0;
    std::size_t chunks = 0;

    /* Decode mid-file chunks the way the prefetcher would. */
    for (std::size_t partition = 1; (partition + 1) * PARTITION < compressed.size();
         ++partition) {
        const auto chunk = GzipChunkFetcher::decodeChunkFromGuess(
            reader, partition * PARTITION * 8, (partition + 1) * PARTITION * 8,
            GzipChunkFetcher::NO_LIMIT);
        if (chunk.guess->error != Error::NONE) {
            continue;
        }
        /* The first segment is stage-one output; members after it in the
         * chunk decode with a known (empty) window, in 8-bit mode. */
        const auto& firstSegment = chunk.guess->firstSegment;
        markedBytes += firstSegment.marked.size();
        plainBytes += chunk.data.size();
        for (const auto& segment : firstSegment.plain) {
            plainBytes += segment.decodedSize();
        }
        ++chunks;
    }

    const auto total = markedBytes + plainBytes;
    std::printf("  %-14s chunks: %3zu   16-bit portion: %5.1f %%   8-bit portion: %5.1f %%\n",
                name, chunks,
                total > 0 ? 100.0 * static_cast<double>(markedBytes) / static_cast<double>(total) : 0.0,
                total > 0 ? 100.0 * static_cast<double>(plainBytes) / static_cast<double>(total) : 0.0);
    std::fflush(stdout);
}

}  // namespace

int
main()
{
    bench::printHeader("Ablation: two-stage -> conventional fallback (paper 3.3)");

    const auto size = bench::scaledSize(24 * MiB);
    analyzeWorkload("base64", workloads::base64Data(size, 0xAB1));
    analyzeWorkload("fastq", workloads::fastqData(size, 0xAB2));
    analyzeWorkload("silesia-like", workloads::silesiaLikeData(size, 0xAB3));
    analyzeWorkload("random", workloads::randomData(size, 0xAB4));

    /* Marker replacement cost avoided by the fallback. */
    const auto repeats = bench::benchRepeats(3);
    const auto symbolCount = bench::scaledSize(24 * MiB);
    std::vector<std::uint16_t> symbols(symbolCount);
    for (std::size_t i = 0; i < symbols.size(); ++i) {
        symbols[i] = static_cast<std::uint16_t>(i & 0x7FU);
    }
    const auto window = workloads::randomData(32768, 0xAB5);
    std::vector<std::uint8_t> output(symbols.size());
    const auto replaceBandwidth = bench::measureBandwidth(symbols.size(), repeats, [&]() {
        deflate::replaceMarkers({ symbols.data(), symbols.size() },
                                { window.data(), window.size() }, output.data());
    });
    std::printf("\n");
    bench::printRow("Marker replacement avoided by fallback", replaceBandwidth, "1254 MB/s");

    std::printf("\n  Expected shape: base64, silesia-like and random chunks fall back early\n"
                "  (a small 16-bit share); FASTQ chunks stay 16-bit to their end (about\n"
                "  100%%), because record headers keep copying history from before the\n"
                "  chunk, so their whole output goes through marker replacement.\n");
    return 0;
}
