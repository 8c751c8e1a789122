#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../index/Checkpoint.hpp"
#include "../io/FileReader.hpp"
#include "ChunkFetcher.hpp"
#include "DeflateChunks.hpp"

namespace rapidgzip {

/**
 * A compressed unit that decodes INDEPENDENTLY of everything around it:
 * a zstd frame, an lz4 independent block, a bzip2 block, a BGZF member.
 * Offsets are bit-granular because bzip2 blocks start at arbitrary bit
 * positions; byte-aligned formats use multiples of 8.
 */
struct CompressedFrame
{
    std::size_t compressedBeginBits{ 0 };
    std::size_t compressedEndBits{ 0 };
    /** Uncompressed size when the container records it (zstd seek table /
     * frame headers); 0 = unknown until decoded. */
    std::size_t uncompressedSize{ 0 };
};

/**
 * Format-agnostic chunked parallel decompression over a table of
 * independent frames — the piece that makes ChunkFetcher's cache/prefetch
 * machinery serve EVERY backend, not just gzip. The gzip-specific
 * ParallelGzipReader keeps its own pipeline (block finding, marker decode,
 * window stitching: gzip frames are NOT independent); backends whose
 * container gives real independence (zstd seekable frames, lz4 independent
 * blocks, bzip2 blocks) hand this class their frame table plus a per-frame
 * decoder, and get the same strategy-driven prefetching, bounded cache,
 * and O(1)-per-chunk random access the paper builds for gzip.
 *
 * Frames are grouped into chunks of up to the configured chunk size (a
 * single larger frame becomes its own chunk) so per-task overhead stays
 * amortized for small-frame formats (a bzip2 -1 block is ~100 KiB
 * compressed). Thread model matches ChunkFetcher: one consumer thread;
 * decoding parallelizes underneath.
 */
class FrameParallelReader
{
public:
    /** Decode ONE frame, appending its uncompressed bytes to @p output.
     * @p frameIndex is the frame's position in the table, which is how
     * backends look up per-frame metadata beyond the generic offsets
     * (lz4 uncompressed-block flags, bzip2 block CRCs). Runs concurrently
     * on pool workers — must be const-thread-safe. */
    using FrameDecoder =
        std::function<void( const FileReader&, const CompressedFrame&, std::size_t frameIndex,
                            std::vector<std::uint8_t>& output )>;

    FrameParallelReader( std::shared_ptr<const FileReader> file,
                         std::vector<CompressedFrame> frames,
                         FrameDecoder frameDecoder,
                         const ChunkFetcherConfiguration& configuration ) :
        m_frames( std::make_shared<const std::vector<CompressedFrame> >( std::move( frames ) ) ),
        m_chunkToFrames( groupFramesIntoChunks( *m_frames, configuration.chunkSizeBytes ) ),
        m_configuration( configuration )
    {
        auto decoder = [frames = m_frames, chunks = m_chunkToFrames,
                        decodeFrame = std::move( frameDecoder )]
                       ( const FileReader& reader, std::size_t chunkIndex ) -> DecodedChunk {
            DecodedChunk chunk;
            const auto [firstFrame, frameEnd] = chunks[chunkIndex];
            {
                telemetry::Span decodeSpan{ "pipeline", "frame.decode" };
                for ( auto i = firstFrame; i < frameEnd; ++i ) {
                    decodeFrame( reader, ( *frames )[i], i, chunk.data );
                }
                RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_frames_decoded_total",
                                           "Compressed frames decoded by frame-parallel readers.",
                                           frameEnd - firstFrame );
            }
            chunk.reachedStreamEnd = frameEnd == frames->size();
            return chunk;
        };
        m_fetcher = std::make_unique<ChunkFetcher>(
            std::move( file ), m_chunkToFrames.size(), std::move( decoder ), configuration );
    }

    [[nodiscard]] std::size_t
    frameCount() const noexcept
    {
        return m_frames->size();
    }

    [[nodiscard]] const std::vector<CompressedFrame>&
    frames() const noexcept
    {
        return *m_frames;
    }

    /**
     * Decompress everything in order, streaming each chunk through @p sink.
     * Returns the total uncompressed size. The traversal populates the
     * chunk offset table as a byproduct, so later readAt() calls are
     * chunk-granular random access.
     */
    [[nodiscard]] std::size_t
    decompress( const std::function<void( BufferView )>& sink )
    {
        std::vector<std::size_t> sizes( m_chunkToFrames.size() );
        std::size_t total = 0;
        for ( std::size_t i = 0; i < m_chunkToFrames.size(); ++i ) {
            const auto chunk = m_fetcher->get( i );
            sizes[i] = chunk->data.size();
            total += chunk->data.size();
            if ( sink ) {
                sink( { chunk->data.data(), chunk->data.size() } );
            }
        }
        recordChunkSizes( sizes );
        return total;
    }

    /** Total uncompressed size; uses recorded frame sizes when the whole
     * table has them, otherwise decodes once (cached) to measure. */
    [[nodiscard]] std::size_t
    size()
    {
        ensureOffsetsKnown();
        return m_uncompressedOffsets.back();
    }

    /** Random access read of up to @p size bytes at @p offset; decodes only
     * the chunks the range touches. Returns bytes read (short at EOF). */
    [[nodiscard]] std::size_t
    readAt( std::size_t offset, std::uint8_t* buffer, std::size_t size )
    {
        ensureOffsetsKnown();
        const auto totalSize = m_uncompressedOffsets.back();
        std::size_t produced = 0;
        while ( ( produced < size ) && ( offset < totalSize ) ) {
            const auto next = std::upper_bound( m_uncompressedOffsets.begin(),
                                                m_uncompressedOffsets.end(), offset );
            const auto chunkIndex = static_cast<std::size_t>(
                std::distance( m_uncompressedOffsets.begin(), next ) ) - 1U;
            const auto chunk = m_fetcher->get( chunkIndex );
            const auto offsetInChunk = offset - m_uncompressedOffsets[chunkIndex];
            if ( offsetInChunk >= chunk->data.size() ) {
                throw RapidgzipError( "Chunk size disagrees with the frame table — "
                                      "corrupt stream or stale offsets" );
            }
            const auto toCopy = std::min( size - produced, chunk->data.size() - offsetInChunk );
            std::memcpy( buffer + produced, chunk->data.data() + offsetInChunk, toCopy );
            produced += toCopy;
            offset += toCopy;
        }
        return produced;
    }

    /** Zero-copy variant of readAt: lends refcounted spans straight out of
     * the decoded chunks instead of copying. Each span holds a reference to
     * its whole chunk, so the bytes outlive any cache eviction for as long
     * as the caller keeps the span. Returns bytes appended (short at EOF). */
    [[nodiscard]] std::size_t
    readSpansAt( std::size_t offset, std::size_t size, std::vector<OwnedSpan>& spans )
    {
        ensureOffsetsKnown();
        const auto totalSize = m_uncompressedOffsets.back();
        std::size_t produced = 0;
        while ( ( produced < size ) && ( offset < totalSize ) ) {
            const auto next = std::upper_bound( m_uncompressedOffsets.begin(),
                                                m_uncompressedOffsets.end(), offset );
            const auto chunkIndex = static_cast<std::size_t>(
                std::distance( m_uncompressedOffsets.begin(), next ) ) - 1U;
            const auto chunk = m_fetcher->get( chunkIndex );
            const auto offsetInChunk = offset - m_uncompressedOffsets[chunkIndex];
            if ( offsetInChunk >= chunk->data.size() ) {
                throw RapidgzipError( "Chunk size disagrees with the frame table — "
                                      "corrupt stream or stale offsets" );
            }
            const auto take = std::min( size - produced, chunk->data.size() - offsetInChunk );
            spans.push_back( lendChunkSpan( chunk, offsetInChunk, take ) );
            produced += take;
            offset += take;
        }
        return produced;
    }

    /** Chunk-granular seek points: the compressed bit offset and
     * uncompressed offset of every chunk start. */
    [[nodiscard]] std::vector<index::Checkpoint>
    chunkSeekPoints()
    {
        ensureOffsetsKnown();
        std::vector<index::Checkpoint> result;
        result.reserve( m_chunkToFrames.size() );
        for ( std::size_t i = 0; i < m_chunkToFrames.size(); ++i ) {
            const auto firstFrame = m_chunkToFrames[i].first;
            result.push_back( { ( *m_frames )[firstFrame].compressedBeginBits,
                                m_uncompressedOffsets[i] } );
        }
        return result;
    }

    [[nodiscard]] const FetcherStatistics&
    statistics() const noexcept
    {
        return m_fetcher->statistics();
    }

    /**
     * Adopt chunk offsets from a previously exported index (the sidecar
     * fast path): @p seekPoints must be exactly what chunkSeekPoints()
     * returned when the index was built — one per chunk. Every compressed
     * offset is validated
     * against the freshly scanned frame table (the geometry scan is pure
     * header arithmetic and always runs; what adoption skips is the
     * MEASURING decode sweep unsized formats pay in ensureOffsetsKnown).
     * Returns false — leaving the reader untouched — when the geometry
     * disagrees: stale sidecar, different chunking configuration.
     */
    [[nodiscard]] bool
    adoptChunkOffsets( const std::vector<index::Checkpoint>& seekPoints,
                       std::size_t uncompressedSize )
    {
        if ( m_offsetsKnown ) {
            return true;  /* nothing left to save */
        }
        if ( seekPoints.size() != m_chunkToFrames.size() ) {
            return false;
        }
        for ( std::size_t i = 0; i < seekPoints.size(); ++i ) {
            const auto firstFrame = m_chunkToFrames[i].first;
            if ( seekPoints[i].compressedOffsetBits != ( *m_frames )[firstFrame].compressedBeginBits ) {
                return false;
            }
            if ( ( i > 0 ) && ( seekPoints[i].uncompressedOffset < seekPoints[i - 1].uncompressedOffset ) ) {
                return false;
            }
        }
        if ( !seekPoints.empty() && ( uncompressedSize < seekPoints.back().uncompressedOffset ) ) {
            return false;
        }
        std::vector<std::size_t> sizes( seekPoints.size() );
        for ( std::size_t i = 0; i < seekPoints.size(); ++i ) {
            const auto next = i + 1 < seekPoints.size() ? seekPoints[i + 1].uncompressedOffset
                                                        : uncompressedSize;
            sizes[i] = next - seekPoints[i].uncompressedOffset;
        }
        recordChunkSizes( sizes );
        return true;
    }

private:
    /** [first, end) frame range per chunk. Greedy: frames are admitted
     * while the chunk stays within chunkSizeBytes, so chunks span at MOST
     * that much compressed input — except a single frame larger than the
     * budget, which becomes its own chunk. */
    [[nodiscard]] static std::vector<std::pair<std::size_t, std::size_t> >
    groupFramesIntoChunks( const std::vector<CompressedFrame>& frames,
                           std::size_t chunkSizeBytes )
    {
        std::vector<std::pair<std::size_t, std::size_t> > result;
        const auto chunkBits = std::max<std::size_t>( chunkSizeBytes, 64 * KiB ) * 8;
        std::size_t begin = 0;
        while ( begin < frames.size() ) {
            auto end = begin;
            const auto chunkStartBits = frames[begin].compressedBeginBits;
            while ( ( end < frames.size() )
                    && ( ( end == begin )
                         || ( frames[end].compressedEndBits - chunkStartBits <= chunkBits ) ) ) {
                ++end;
            }
            result.emplace_back( begin, end );
            begin = end;
        }
        return result;
    }

    void
    ensureOffsetsKnown()
    {
        if ( m_offsetsKnown ) {
            return;
        }
        /* A fully-sized frame table (zstd seek table / frame headers) gives
         * the offsets for free — no decoding for pure random access. */
        const bool allSized = !m_frames->empty()
                              && std::all_of( m_frames->begin(), m_frames->end(),
                                              [] ( const CompressedFrame& frame ) {
                                                  return frame.uncompressedSize > 0;
                                              } );
        if ( allSized ) {
            std::vector<std::size_t> sizes( m_chunkToFrames.size(), 0 );
            for ( std::size_t i = 0; i < m_chunkToFrames.size(); ++i ) {
                for ( auto f = m_chunkToFrames[i].first; f < m_chunkToFrames[i].second; ++f ) {
                    sizes[i] += ( *m_frames )[f].uncompressedSize;
                }
            }
            recordChunkSizes( sizes );
            return;
        }
        /* Unknown sizes (lz4 blocks, bzip2 blocks): one measuring sweep.
         * Decodes go through the fetcher's cache, so the work feeds any
         * subsequent reads instead of being thrown away. */
        (void)decompress( {} );
    }

    void
    recordChunkSizes( const std::vector<std::size_t>& sizes )
    {
        m_uncompressedOffsets.assign( 1, 0 );
        m_uncompressedOffsets.reserve( sizes.size() + 1 );
        for ( const auto size : sizes ) {
            m_uncompressedOffsets.push_back( m_uncompressedOffsets.back() + size );
        }
        m_offsetsKnown = true;
    }

    std::shared_ptr<const std::vector<CompressedFrame> > m_frames;
    std::vector<std::pair<std::size_t, std::size_t> > m_chunkToFrames;
    ChunkFetcherConfiguration m_configuration;
    std::unique_ptr<ChunkFetcher> m_fetcher;

    std::vector<std::size_t> m_uncompressedOffsets;  /**< chunks + 1 once known */
    bool m_offsetsKnown{ false };
};

}  // namespace rapidgzip
