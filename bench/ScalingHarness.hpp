#pragma once

/**
 * Shared machinery for the scaling figures (paper Figs. 9-11): runs a set of
 * decompressors over a thread-count sweep against one compressed file and
 * prints bandwidth rows in decompressed bytes per second, like the paper.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/PugzLikeDecompressor.hpp"
#include "core/ParallelGzipReader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"

#include "BenchmarkHelpers.hpp"

namespace rapidgzip::bench {

struct ScalingTool
{
    std::string name;
    bool sweepsThreads{ true };
    /** Returns decompressed bytes. */
    std::function<std::size_t(const std::vector<std::uint8_t>& file, std::size_t threads)> run;
};

[[nodiscard]] inline ChunkFetcherConfiguration
scalingConfig(std::size_t threads)
{
    ChunkFetcherConfiguration config;
    config.parallelism = threads;
    config.chunkSizeBytes = 1 * MiB;  // scaled-down default for laptop-size inputs
    return config;
}

[[nodiscard]] inline ScalingTool
rapidgzipNoIndexTool()
{
    return { "rapidgzip (no index)", true,
             [](const std::vector<std::uint8_t>& file, std::size_t threads) {
                 ParallelGzipReader reader(std::make_unique<MemoryFileReader>(file),
                                           scalingConfig(threads));
                 return reader.decompressAll();
             } };
}

[[nodiscard]] inline ScalingTool
rapidgzipIndexTool(std::shared_ptr<GzipIndex> index)
{
    return { "rapidgzip (index)", true,
             [index = std::move(index)](const std::vector<std::uint8_t>& file,
                                        std::size_t threads) {
                 ParallelGzipReader reader(std::make_unique<MemoryFileReader>(file),
                                           scalingConfig(threads));
                 reader.importIndex(*index);
                 return reader.decompressAll();
             } };
}

[[nodiscard]] inline ScalingTool
pugzLikeTool(bool enforceAscii = true)
{
    return { "pugz-like (sync)", true,
             [enforceAscii](const std::vector<std::uint8_t>& file, std::size_t threads) {
                 PugzLikeDecompressor::Options options;
                 options.threadCount = threads;
                 options.enforceAsciiRange = enforceAscii;
                 options.chunkSizeBytes = 1 * MiB;
                 PugzLikeDecompressor decompressor(std::make_unique<MemoryFileReader>(file),
                                                   options);
                 return decompressor.decompressAllSize();
             } };
}

[[nodiscard]] inline ScalingTool
sequentialGzipTool()
{
    return { "rapidgzip sequential decoder (1 thread)", false,
             [](const std::vector<std::uint8_t>& file, std::size_t) {
                 return GzipChunkFetcher::decompressSerially(MemoryFileReader(file),
                                                             scalingConfig(1).chunkSizeBytes);
             } };
}

[[nodiscard]] inline ScalingTool
zlibTool()
{
    return { "zlib single-threaded (gzip stand-in)", false,
             [](const std::vector<std::uint8_t>& file, std::size_t) {
                 return decompressWithZlib({ file.data(), file.size() }).size();
             } };
}

inline void
runScaling(const std::string& title,
           const std::vector<std::uint8_t>& data,
           const std::vector<std::uint8_t>& compressed,
           const std::vector<ScalingTool>& tools)
{
    printHeader(title);
    std::printf("  uncompressed: %s, compressed: %s, ratio %.3f\n\n",
                formatBytes(data.size()).c_str(),
                formatBytes(compressed.size()).c_str(),
                static_cast<double>(data.size()) / static_cast<double>(compressed.size()));

    const auto repeats = benchRepeats(3);
    const auto sweep = threadSweep();

    for (const auto& tool : tools) {
        if (!tool.sweepsThreads) {
            const auto bandwidth = measureBandwidth(data.size(), repeats, [&]() {
                (void)tool.run(compressed, 1);
            });
            printRow(tool.name + " [P=1]", bandwidth);
            continue;
        }
        for (const auto threads : sweep) {
            const auto bandwidth = measureBandwidth(data.size(), repeats, [&]() {
                (void)tool.run(compressed, threads);
            });
            printRow(tool.name + " [P=" + std::to_string(threads) + "]", bandwidth);
        }
    }
}

}  // namespace rapidgzip::bench
