/**
 * Figure 11 reproduction: decompression scaling on a FASTQ file (synthetic;
 * see DESIGN.md). Paper: rapidgzip without an index stops scaling around 48
 * cores at 4.9 GB/s; pugz (sync) peaks at 1.4 GB/s at 16 cores; with an index
 * rapidgzip scales to 128 cores.
 *
 * Two files of the same FASTQ data. The index and pugz-like rows read a
 * pigz-like file: the pugz-like baseline shares restart-point discovery, so
 * a file without restart points would reach it as one serial chunk. The
 * no-index row reads a plain gzip file, as the paper's does: without restart
 * points it runs two-stage decoding, and FASTQ chunks stay in 16-bit output
 * to their end.
 */

#include <memory>

#include "core/ParallelGzipReader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "workloads/DataGenerators.hpp"

#include "ScalingHarness.hpp"

using namespace rapidgzip;

int
main()
{
    const auto data = workloads::fastqData(bench::scaledSize(48 * MiB), 0xF1B);
    const auto compressed = compressPigzLike({ data.data(), data.size() }, 6, 512 * 1024);

    auto index = std::make_shared<GzipIndex>();
    {
        ParallelGzipReader builder(std::make_unique<MemoryFileReader>(compressed),
                                   bench::scalingConfig(4));
        *index = builder.exportIndex();
    }

    bench::runScaling(
        "Figure 11: parallel decompression of a FASTQ file (pigz-like, restart points)",
        data, compressed,
        {
            bench::rapidgzipIndexTool(index),
            bench::pugzLikeTool(true),
            bench::sequentialGzipTool(),
            bench::zlibTool(),
        });

    const auto plain = compressGzipLike({ data.data(), data.size() }, 6);
    bench::runScaling(
        "Figure 11: parallel decompression of a FASTQ file (plain gzip, no index)",
        data, plain,
        {
            bench::rapidgzipNoIndexTool(),
            bench::zlibTool(),
        });

    std::printf("\n  Expected shape (paper Fig. 11): like Fig. 10, with pugz working on\n"
                "  this ASCII-only data but trailing rapidgzip at every thread count, and\n"
                "  the no-index row, whose chunks stay in 16-bit output to their end,\n"
                "  below the index row.\n");
    return 0;
}
