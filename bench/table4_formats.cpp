/**
 * Table 4 reproduction: cross-format decompression comparison at fixed
 * parallelization. Paper (Silesia, per-core-scaled sizes): at P=1 zstd/lz4
 * beat gzip decoders; at P=128 rapidgzip(index) reaches 16.4 GB/s, twice
 * pzstd's 8.8 GB/s, because pzstd parallelizes poorly.
 *
 * The formerly-dropped zstd/lz4/bzip2 rows are restored through the
 * format-dispatch layer (src/formats/): each backend generates its own
 * input with its writer (zstd seekable frames, lz4 independent blocks,
 * bzip2 blocks at level 1) and decompresses through
 * formats::makeDecompressor — frame/block-parallel where the container
 * permits. Every multi-backend row also reports a cold random-access seek
 * latency, the paper's seekability axis. gzip rows keep exercising
 * index::serializeIndex round trips, i.e. the reuse-from-disk workflow.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/ParallelGzipReader.hpp"
#include "formats/Formats.hpp"
#include "gzip/BgzfWriter.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "index/IndexSerializer.hpp"
#include "io/MemoryFileReader.hpp"
#include "workloads/DataGenerators.hpp"

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
#include "formats/ZstdWriter.hpp"
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
#include "formats/Bzip2Writer.hpp"
#endif
#include "formats/Lz4Writer.hpp"

#include "BenchmarkHelpers.hpp"

using namespace rapidgzip;

namespace {

void
printFormatRow(const char* format, const char* tool, std::size_t parallelism, double ratio,
               const bench::Measurement& bandwidth, const char* paper)
{
    std::printf("  %-8s %-24s P=%-4zu ratio %-6.2f %10.2f ± %-8.2f MB/s   [paper: %s]\n",
                format, tool, parallelism, ratio,
                bandwidth.mean / 1e6, bandwidth.stddev / 1e6, paper);
    std::fflush(stdout);
}

[[nodiscard]] ChunkFetcherConfiguration
config(std::size_t parallelism)
{
    ChunkFetcherConfiguration result;
    result.parallelism = parallelism;
    result.chunkSizeBytes = 1 * MiB;
    return result;
}

}  // namespace

int
main()
{
    bench::printHeader("Table 4: cross-format decompression comparison");

    const auto data = workloads::silesiaLikeData(bench::scaledSize(32 * MiB), 0x7AB1E7);
    const BufferView span{ data.data(), data.size() };
    const auto repeats = bench::benchRepeats(3);

    const auto gzipFile = compressGzipLike(span, 6);
    const auto bgzfFile = writeBgzf(span, 6);

    const auto ratioOf = [&](const auto& file) {
        return static_cast<double>(data.size()) / static_cast<double>(file.size());
    };

    /* --- P = 1 --- */
    printFormatRow("gzip", "rapidgzip", 1, ratioOf(gzipFile),
                   bench::measureBandwidth(data.size(), repeats, [&]() {
                       ParallelGzipReader reader(std::make_unique<MemoryFileReader>(gzipFile),
                                                 config(1));
                       (void)reader.decompressAll();
                   }),
                   "0.153 GB/s");
    printFormatRow("gzip", "sequential decoder", 1, ratioOf(gzipFile),
                   bench::measureBandwidth(data.size(), repeats, [&]() {
                       (void)GzipChunkFetcher::decompressSerially(MemoryFileReader(gzipFile),
                                                                  config(1).chunkSizeBytes);
                   }),
                   "0.153 GB/s");
    printFormatRow("gzip", "zlib (igzip stand-in)", 1, ratioOf(gzipFile),
                   bench::measureBandwidth(data.size(), repeats, [&]() {
                       (void)decompressWithZlib({ gzipFile.data(), gzipFile.size() });
                   }),
                   "0.656 GB/s (igzip)");
    printFormatRow("bgzip", "zlib sequential", 1, ratioOf(bgzfFile),
                   bench::measureBandwidth(data.size(), repeats, [&]() {
                       (void)decompressWithZlib({ bgzfFile.data(), bgzfFile.size() });
                   }),
                   "0.298 GB/s (bgzip)");

    /* --- P = 4 (stand-in for the paper's 16/128-core columns) --- */
    constexpr std::size_t P = 4;
    printFormatRow("gzip", "rapidgzip", P, ratioOf(gzipFile),
                   bench::measureBandwidth(data.size(), repeats, [&]() {
                       ParallelGzipReader reader(std::make_unique<MemoryFileReader>(gzipFile),
                                                 config(P));
                       (void)reader.decompressAll();
                   }),
                   "1.86 GB/s (P=16)");

    /* Index reuse: one sweep builds the bit-granular index; serialize and
     * reload it (the on-disk workflow) and measure decompression with the
     * prebuilt index — the paper's headline 'second read' number. */
    std::vector<std::uint8_t> serializedIndex;
    {
        ParallelGzipReader builder(std::make_unique<MemoryFileReader>(gzipFile), config(P));
        serializedIndex = index::serializeIndex(builder.exportIndex());
    }
    std::printf("  [index: %s on disk for %s of gzip]\n",
                formatBytes(serializedIndex.size()).c_str(),
                formatBytes(gzipFile.size()).c_str());
    printFormatRow("gzip", "rapidgzip (index)", P, ratioOf(gzipFile),
                   bench::measureBandwidth(data.size(), repeats, [&]() {
                       ParallelGzipReader reader(std::make_unique<MemoryFileReader>(gzipFile),
                                                 config(P));
                       reader.importIndex(index::deserializeIndex(
                           { serializedIndex.data(), serializedIndex.size() }));
                       (void)reader.decompressAll();
                   }),
                   "4.25 GB/s (P=16)");
    printFormatRow("bgzip", "rapidgzip (BC index)", P, ratioOf(bgzfFile),
                   bench::measureBandwidth(data.size(), repeats, [&]() {
                       ParallelGzipReader reader(std::make_unique<MemoryFileReader>(bgzfFile),
                                                 config(P));
                       (void)reader.decompressAll();
                   }),
                   "2.82 GB/s (P=16)");

    /* Checkpoint-spacing trade-off: the index keeps a checkpoint at every
     * chunk boundary, so larger chunks shrink the serialized index — fewer
     * compressed 32 KiB windows — but every random access must decode from
     * a checkpoint further away. Sweep three chunk sizes and measure index
     * size plus cold-cache seek+read latency at scattered offsets. */
    {
        std::printf("\n  Index checkpoint spacing (chunk size) vs size and seek latency:\n");
        Xorshift64 random(0x5EEC5);
        for (const std::size_t chunkMiB : { std::size_t(1), std::size_t(4), std::size_t(16) }) {
            auto configuration = config(P);
            configuration.chunkSizeBytes = chunkMiB * MiB;

            ParallelGzipReader builder(std::make_unique<MemoryFileReader>(gzipFile),
                                       configuration);
            const auto index = builder.exportIndex();
            const auto serialized = index::serializeIndex(index);

            /* Fresh reader per seek: cold chunk cache, so the latency is the
             * true decode-from-checkpoint cost, not a cache hit. */
            constexpr std::size_t SEEKS = 8;
            std::uint8_t probe[4096];
            Stopwatch stopwatch;
            for (std::size_t i = 0; i < SEEKS; ++i) {
                ParallelGzipReader reader(std::make_unique<MemoryFileReader>(gzipFile),
                                          configuration);
                reader.importIndex(index::deserializeIndex(
                    { serialized.data(), serialized.size() }));
                reader.seek(random.below(std::max<std::size_t>(1, data.size() - sizeof(probe))));
                (void)reader.read(probe, sizeof(probe));
            }
            const auto seekLatency = stopwatch.elapsed() / SEEKS;

            std::printf("    chunk %4zu MiB: %zu checkpoints, index %-10s"
                        " %8.2f ms/seek(4 KiB, cold)\n",
                        chunkMiB, index.checkpoints.size(),
                        formatBytes(serialized.size()).c_str(), seekLatency * 1e3);
            std::fflush(stdout);
        }
    }

    /* --- multi-backend rows (restored Table 4 formats) ----------------
     * Each backend writes its own parallel-friendly container, then
     * decompresses through the dispatch layer at P=1 and P=4 plus 8 cold
     * 4 KiB seeks at scattered offsets on a fresh reader each. */
    {
        struct BackendRow
        {
            std::string format;
            std::string tool;
            std::function<std::vector<std::uint8_t>()> write;
            std::string paperP1;
            std::string paperP;
        };

        std::vector<BackendRow> rows;
        rows.push_back(
            { "lz4", "formats (indep blocks)",
              [&]() { return formats::writeLz4(span, formats::Lz4Writer::BlockMaxSize::KIB256); },
              "3.56 GB/s", "n/a (lz4 has no parallel tool row)" });
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
        rows.push_back(
            { "zstd", "formats (seekable)",
              [&]() { return formats::writeZstdSeekable(span, 3, 1 * MiB); },
              "1.05 GB/s", "8.8 GB/s (pzstd, P=128)" });
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
        rows.push_back(
            { "bzip2", "formats (block scan)",
              [&]() { return formats::writeBzip2(span, 1); },
              "0.048 GB/s", "1.3 GB/s (pbzip2, P=16)" });
#endif

        std::printf("\n  Restored multi-backend rows (decompress + cold seek):\n");
        Xorshift64 random(0xBEEF5);
        for (const auto& row : rows) {
            const auto file = row.write();

            const auto bandwidth1 = bench::measureBandwidth(data.size(), repeats, [&]() {
                auto decompressor = formats::makeDecompressor(
                    std::make_unique<MemoryFileReader>(file), config(1));
                (void)decompressor->decompress({});
            });
            printFormatRow(row.format.c_str(), row.tool.c_str(), 1, ratioOf(file),
                           bandwidth1, row.paperP1.c_str());

            const auto bandwidthP = bench::measureBandwidth(data.size(), repeats, [&]() {
                auto decompressor = formats::makeDecompressor(
                    std::make_unique<MemoryFileReader>(file), config(P));
                (void)decompressor->decompress({});
            });
            printFormatRow(row.format.c_str(), row.tool.c_str(), P, ratioOf(file),
                           bandwidthP, row.paperP.c_str());

            constexpr std::size_t SEEKS = 8;
            std::uint8_t probe[4096];
            Stopwatch stopwatch;
            std::size_t seekPointCount = 0;
            for (std::size_t i = 0; i < SEEKS; ++i) {
                auto decompressor = formats::makeDecompressor(
                    std::make_unique<MemoryFileReader>(file), config(P));
                seekPointCount = decompressor->seekPoints().size();
                (void)decompressor->readAt(
                    random.below(std::max<std::size_t>(1, data.size() - sizeof(probe))),
                    probe, sizeof(probe));
            }
            const auto seekLatency = stopwatch.elapsed() / SEEKS;
            std::printf("  %-8s %-24s %zu seek points, %8.2f ms/seek(4 KiB, cold)\n",
                        row.format.c_str(), "", seekPointCount, seekLatency * 1e3);
            std::fflush(stdout);
        }
    }

    std::printf("\n  Expected shape (paper Table 4): single-threaded rapidgzip ≈ the\n"
                "  sequential decoder (our decoder's serial walk) and below igzip;\n"
                "  with parallelism rapidgzip overtakes every single-threaded row,\n"
                "  the prebuilt index beats the index-building first read, and BGZF\n"
                "  parallelizes for free.\n"
                "  zstd and lz4 beat every gzip row at P=1 (cheaper entropy stage);\n"
                "  bzip2 is slowest serially but its independent blocks scale near-\n"
                "  linearly; zstd's seek table gives the cheapest cold seeks.\n");
    return 0;
}
