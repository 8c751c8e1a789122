#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "../common/Util.hpp"
#include "../core/ChunkCache.hpp"
#include "../index/Checkpoint.hpp"
#include "Format.hpp"

namespace rapidgzip::formats {

/**
 * The format-dispatch layer's one consumer-facing interface. Each backend
 * (gzip via ParallelGzipReader, zstd, lz4, bzip2) implements streaming
 * whole-file decompression plus random access; the chunked parallel path
 * is used wherever the container provides independently decodable units
 * (zstd seekable/sized frames, lz4 independent blocks, bzip2 blocks, gzip
 * chunks via the two-stage pipeline), with a verified serial fallback
 * otherwise. Obtain instances through makeDecompressor() (Formats.hpp),
 * which probes the magic bytes and routes.
 *
 * Thread model matches the rest of the core: ONE consumer thread drives a
 * Decompressor; the parallelism lives in the chunk decoding underneath.
 */
class Decompressor
{
public:
    /** Receives consecutive uncompressed spans in stream order. The view is
     * only valid during the call. */
    using Sink = std::function<void( BufferView )>;

    virtual ~Decompressor() = default;

    [[nodiscard]] virtual Format
    format() const noexcept = 0;

    /**
     * Decompress the whole stream through @p sink (which may be empty to
     * just verify/measure); returns the uncompressed size. Integrity is
     * checked with whatever the format provides (gzip CRC32 footers, lz4
     * block/content xxhash, bzip2 block + combined stream CRCs, zstd frame
     * checksums inside the vendor decoder); failures throw RapidgzipError.
     */
    virtual std::size_t
    decompress( const Sink& sink ) = 0;

    /** Total uncompressed size. May cost a measuring sweep for containers
     * that do not record sizes (the sweep's chunks stay cached). */
    [[nodiscard]] virtual std::size_t
    size() = 0;

    /** Random access: read up to @p size bytes at @p uncompressedOffset.
     * Returns bytes read (short only at end of stream). */
    [[nodiscard]] virtual std::size_t
    readAt( std::size_t uncompressedOffset, std::uint8_t* buffer, std::size_t size ) = 0;

    /**
     * Zero-copy random access: append up to @p size bytes at
     * @p uncompressedOffset to @p spans as refcounted views. Backends with a
     * chunked parallel reader lend spans straight out of cached decoded
     * chunks (span.borrowed == true, no byte is copied; the span's owner
     * reference keeps the chunk alive past LRU eviction for as long as the
     * caller holds it). This default is the copying fallback: one readAt()
     * into a private buffer wrapped as a single owned span
     * (span.borrowed == false), so every backend supports the interface.
     * Returns bytes appended (short only at end of stream).
     */
    [[nodiscard]] virtual std::size_t
    readSpansAt( std::size_t uncompressedOffset,
                 std::size_t size,
                 std::vector<OwnedSpan>& spans )
    {
        auto buffer = std::make_shared<std::vector<std::uint8_t> >( size );
        const auto got = readAt( uncompressedOffset, buffer->data(), size );
        if ( got == 0 ) {
            return 0;
        }
        OwnedSpan span;
        span.data = buffer->data();
        span.size = got;
        span.borrowed = false;
        span.owner = std::move( buffer );
        spans.push_back( std::move( span ) );
        return got;
    }

    /** Positions decoding can resume from without any prior state — frame,
     * block, or checkpoint starts; empty when the format exposes none
     * (single-frame streams). Bit-granular (bzip2 blocks, gzip Deflate
     * boundaries); byte-aligned formats use multiples of 8. */
    [[nodiscard]] virtual std::vector<index::Checkpoint>
    seekPoints()
    {
        return {};
    }

    /** True when decompress() decodes independent units on a thread pool
     * (as opposed to the verified serial fallback). */
    [[nodiscard]] virtual bool
    parallelizable() const noexcept
    {
        return false;
    }

    /**
     * Adopt seek points previously exported from the SAME archive (a fresh
     * RGZIDX02 sidecar) so size()/readAt() skip the measuring decode sweep
     * that backends without recorded sizes (lz4 blocks, bzip2 blocks)
     * otherwise pay on first access. Offsets are validated against the
     * freshly scanned container geometry; returns false — leaving the
     * reader untouched — when the backend cannot use them or the geometry
     * disagrees (stale index). Gzip resumption needs the checkpoint
     * WINDOWS too and therefore imports the full index via
     * ParallelGzipReader::importIndex instead of this entry point (see
     * Sidecar.hpp for the dispatch).
     */
    [[nodiscard]] virtual bool
    importSeekPoints( const std::vector<index::Checkpoint>& /* seekPoints */,
                      std::size_t /* uncompressedSizeBytes */ )
    {
        return false;
    }
};

namespace detail {

/** Control-flow token for readRangeViaStreaming's early termination; never
 * escapes the helper. */
struct StreamingReadComplete {};

}  // namespace detail

/**
 * Shared serial-fallback readAt: run @p decompress (any callable taking a
 * Sink) and copy the [offset, offset + size) window of its output stream
 * into @p buffer. Aborts the traversal as soon as the window is filled —
 * backends that stream in frame/chunk-sized pieces stop decoding there
 * instead of draining the whole file. Returns bytes copied (short at end
 * of stream).
 */
template<typename DecompressFn>
[[nodiscard]] inline std::size_t
readRangeViaStreaming( DecompressFn&& decompress,
                       std::size_t offset,
                       std::uint8_t* buffer,
                       std::size_t size )
{
    std::size_t produced = 0;
    std::size_t position = 0;
    try {
        decompress( [&] ( BufferView span ) {
            if ( ( produced < size ) && ( position + span.size() > offset ) ) {
                const auto skip = offset > position ? offset - position : 0;
                const auto take = std::min( size - produced, span.size() - skip );
                std::memcpy( buffer + produced, span.data() + skip, take );
                produced += take;
            }
            position += span.size();
            if ( produced >= size ) {
                throw detail::StreamingReadComplete{};
            }
        } );
    } catch ( const detail::StreamingReadComplete& ) {
        /* window filled before the stream ended */
    }
    return produced;
}

}  // namespace rapidgzip::formats
