#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../core/ChunkCache.hpp"
#include "../core/ChunkedReader.hpp"
#include "../index/Checkpoint.hpp"
#include "../index/GzipIndex.hpp"
#include "../io/SharedFileReader.hpp"
#include "../telemetry/Registry.hpp"
#include "../telemetry/Trace.hpp"
#include "Format.hpp"

namespace rapidgzip::formats {

/**
 * The format-dispatch layer's one reader type. It owns the archive's file
 * and the one ChunkedReader over it; each backend (gzip's
 * ParallelGzipReader, zstd, lz4, bzip2) builds that reader's chunk table,
 * whose chunks decode in parallel wherever the container provides
 * independently decodable units (zstd seekable/sized frames, lz4
 * independent blocks, bzip2 blocks, gzip chunks via the two-stage
 * pipeline), and carries its index through exportIndex() and
 * importIndex(). Obtain instances through makeDecompressor() (Formats.hpp),
 * which probes the magic bytes and routes.
 *
 * Thread model: every method may be called from many threads. A backend
 * establishes its chunk table once, under its chunked reader's lock; after
 * that, size(), readAt() and readSpansAt() take no lock of the backend's
 * own, so concurrent range reads of one archive proceed in parallel.
 */
class Decompressor
{
public:
    /** Receives consecutive uncompressed spans in stream order. The view is
     * only valid during the call. */
    using Sink = std::function<void( BufferView )>;

    virtual ~Decompressor() = default;

    /* The chunked reader's table builder holds this object's address. */
    Decompressor( const Decompressor& ) = delete;
    Decompressor& operator=( const Decompressor& ) = delete;

    [[nodiscard]] virtual Format
    format() const noexcept = 0;

    /**
     * Decompress the whole stream through @p sink (which may be empty to
     * just verify/measure); returns the uncompressed size. Integrity is
     * checked with whatever the format provides (gzip CRC32 footers, lz4
     * block/content xxhash, bzip2 block + combined stream CRCs, zstd frame
     * checksums inside the vendor decoder); failures throw RapidgzipError.
     * The frame backends call @p sink under their table lock, so it must
     * not call back into this decompressor.
     */
    virtual std::size_t
    decompress( const Sink& sink ) = 0;

    /** Total uncompressed size. May cost a measuring sweep for containers
     * that do not record sizes (the sweep's chunks stay cached). */
    [[nodiscard]] std::size_t
    size()
    {
        return m_chunks.size();
    }

    /** size(); with Wait::NEVER, std::nullopt instead of a sweep or of a
     * wait for the sweep another thread runs. */
    [[nodiscard]] std::optional<std::size_t>
    size( Wait wait )
    {
        return m_chunks.size( wait );
    }

    /** Random access: read up to @p size bytes at @p uncompressedOffset.
     * Returns bytes read (short only at end of stream). */
    [[nodiscard]] std::size_t
    readAt( std::size_t uncompressedOffset, std::uint8_t* buffer, std::size_t size )
    {
        return m_chunks.readAt( uncompressedOffset, buffer, size );
    }

    /**
     * Zero-copy random access: append up to @p size bytes at
     * @p uncompressedOffset to @p spans as refcounted views lent straight out
     * of cached decoded chunks (span.borrowed == true, no byte is copied; the
     * span's owner reference keeps the chunk alive past LRU eviction for as
     * long as the caller holds it). Returns bytes appended: short at the end
     * of the stream, and with Wait::NEVER also before the first chunk that
     * is not decoded yet, or when size( Wait::NEVER ) is unknown.
     */
    [[nodiscard]] std::size_t
    readSpansAt( std::size_t uncompressedOffset,
                 std::size_t size,
                 std::vector<OwnedSpan>& spans,
                 Wait wait = Wait::ALLOWED )
    {
        return m_chunks.readSpansAt( uncompressedOffset, size, spans, wait );
    }

    /** True when decompress() decodes independent units on a thread pool
     * (as opposed to whole streams or frames, one unit each). */
    [[nodiscard]] virtual bool
    parallelizable() const noexcept = 0;

    /**
     * The archive's index: its format tag, this file's size, the total
     * uncompressed size, and the positions decoding can resume from (frame,
     * block, or checkpoint starts, with gzip's windows where a checkpoint
     * needs its history). Bit-granular (bzip2 blocks, gzip Deflate
     * boundaries); byte-aligned formats use multiples of 8. May cost the
     * discovery sweep. Serialize with index::serializeIndex().
     */
    [[nodiscard]] virtual GzipIndex
    exportIndex() = 0;

    /**
     * Adopt @p index, exported earlier from the SAME archive (a sidecar), so
     * size()/readAt() skip the discovery or measuring sweep. Throws
     * RapidgzipError, leaving the reader untouched, when the index names
     * another format or another compressed size, or when its checkpoints
     * disagree with the container (a stale index). A misstated size the
     * container does not record makes the read of that chunk throw.
     */
    virtual void
    importIndex( const GzipIndex& index ) = 0;

protected:
    Decompressor( std::unique_ptr<FileReader> file, const ChunkFetcherConfiguration& configuration ) :
        m_file( ensureSharedFileReader( std::move( file ) ) ),
        m_chunkSizeBytes( configuration.chunkSizeBytes ),
        m_chunks( std::shared_ptr<const FileReader>( m_file->clone().release() ), configuration,
                  [this] () { buildTable(); } )
    {}

    /** Publishes a sized chunk table, or throws. Runs under the chunked
     * reader's lock when a read finds no sized table. */
    virtual void
    buildTable() = 0;

    /** The checks every importIndex() makes first: @p index names this
     * backend's format and this file's size, where 0 means unknown
     * (gztool-format indexes do not record it). */
    void
    checkIndex( const GzipIndex& index ) const
    {
        if ( index.formatTag != static_cast<std::uint8_t>( format() ) ) {
            throw RapidgzipError( "The index was exported from an archive of another format" );
        }
        if ( ( index.compressedSizeBytes != 0 ) && ( index.compressedSizeBytes != m_file->size() ) ) {
            throw RapidgzipError( "The index does not match this file's size" );
        }
    }

    std::unique_ptr<SharedFileReader> m_file;
    const std::size_t m_chunkSizeBytes;
    ChunkedReader m_chunks;
};

/**
 * The frame backends' shared half (zstd, lz4, bzip2): the container's units
 * — frames or blocks, each decodable on its own — grouped into the chunks of
 * the chunked reader. A backend scans its container and hands the units and
 * a unit decoder to publishUnits(). Its index is the chunk table, and
 * decompress() is the chunked reader's ordered sweep, which also measures
 * unknown sizes for the first read. A container without independent inner
 * units hands over the units it can only decode whole (an lz4 frame, a
 * whole zstd or bzip2 stream); such a unit is decoded once and then cached
 * like any chunk.
 */
class FrameDecompressor : public Decompressor
{
public:
    std::size_t
    decompress( const Sink& sink ) override
    {
        const auto lock = m_chunks.lock();
        return sweep( sink );
    }

    [[nodiscard]] bool
    parallelizable() const noexcept override
    {
        return m_independentUnits;
    }

    /** The sized chunk table, its checkpoints only when the container has
     * more than one unit. Frames are self-contained: no windows. */
    [[nodiscard]] GzipIndex
    exportIndex() override
    {
        auto table = m_chunks.table();
        GzipIndex index;
        index.formatTag = static_cast<std::uint8_t>( format() );
        index.compressedSizeBytes = m_file->size();
        index.uncompressedSizeBytes = table.size;
        if ( m_unitCount > 1 ) {
            index.checkpoints = std::move( table.checkpoints );
        }
        return index;
    }

    /** Adopts the index's uncompressed offsets when its compressed offsets
     * are the freshly scanned table's (see ChunkedReader::adopt). */
    void
    importIndex( const GzipIndex& index ) override
    {
        checkIndex( index );
        const auto lock = m_chunks.lock();
        if ( !m_chunks.adopt( index.checkpoints, index.uncompressedSizeBytes ) ) {
            throw RapidgzipError( "The index does not match this archive's frames or blocks" );
        }
    }

protected:
    /** One unit at a bit-granular compressed range: bzip2 blocks start at
     * arbitrary bits, byte-aligned formats use multiples of 8. */
    struct Unit
    {
        std::size_t beginBits{ 0 };
        std::size_t endBits{ 0 };
        /** When the container records it (zstd frame headers or seek table);
         * 0 = unknown until decoded. */
        std::size_t uncompressedSize{ 0 };
    };

    /** Appends unit @p unit's uncompressed bytes to @p out. Runs concurrently
     * on pool workers, so it must be const-thread-safe. */
    using UnitDecoder =
        std::function<void( const FileReader&, std::size_t unit, std::vector<std::uint8_t>& out )>;

    using Decompressor::Decompressor;

    void
    buildTable() override
    {
        (void)sweep( {} );
    }

    /**
     * The ordered sweep behind decompress() and the first read of a table
     * without sizes: every chunk in order through @p sink, which may be
     * empty. Backends add their verification here. The caller holds the
     * chunked reader's lock.
     */
    virtual std::size_t
    sweep( const Sink& sink )
    {
        return m_chunks.sweep( [&sink] ( std::size_t, const DecodedChunk& chunk ) {
            if ( sink ) {
                sink( { chunk.data.data(), chunk.data.size() } );
            }
            return true;
        } );
    }

    /**
     * Make @p units the chunk table, grouped greedily: units join a chunk
     * while it spans at most the configured chunk size of compressed input,
     * so per-task overhead stays amortized for small units (a bzip2 -1 block
     * is ~100 KiB compressed); a larger unit is a chunk of its own. The table
     * is sized when every unit records its size. Only independent inner
     * units make the backend parallelizable().
     */
    void
    publishUnits( const std::vector<Unit>& units, UnitDecoder decodeUnit, bool independent )
    {
        const auto chunkBits = std::max<std::size_t>( m_chunkSizeBytes, 64 * KiB ) * 8;
        auto firstUnits = std::make_shared<std::vector<std::size_t> >();
        std::vector<index::Checkpoint> checkpoints;
        std::size_t offset = 0;
        bool sized = true;
        for ( std::size_t i = 0; i < units.size(); ++i ) {
            if ( checkpoints.empty()
                 || ( units[i].endBits - checkpoints.back().compressedOffsetBits > chunkBits ) ) {
                firstUnits->push_back( i );
                checkpoints.push_back( { units[i].beginBits, offset } );
            }
            offset += units[i].uncompressedSize;
            sized = sized && ( units[i].uncompressedSize > 0 );
        }
        firstUnits->push_back( units.size() );
        m_unitCount = units.size();
        m_independentUnits = independent;
        m_chunks.publish(
            std::move( checkpoints ), sized ? std::optional<std::size_t>( offset ) : std::nullopt,
            [firstUnits, decodeUnit = std::move( decodeUnit )] ( const FileReader& file,
                                                                std::size_t chunk ) {
                const auto begin = ( *firstUnits )[chunk];
                const auto end = ( *firstUnits )[chunk + 1];
                DecodedChunk result;
                telemetry::Span decodeSpan{ "pipeline", "frame.decode" };
                for ( auto unit = begin; unit < end; ++unit ) {
                    decodeUnit( file, unit, result.data );
                }
                RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_frames_decoded_total",
                                           "Compressed frames and blocks decoded by the frame backends.",
                                           end - begin );
                result.reachedStreamEnd = end == firstUnits->back();
                return result;
            } );
    }

private:
    /* Atomic: bzip2 replaces its table inside a sweep. */
    std::atomic<std::size_t> m_unitCount{ 0 };
    std::atomic<bool> m_independentUnits{ false };
};

}  // namespace rapidgzip::formats
