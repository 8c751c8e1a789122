#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../index/BgzfIndex.hpp"
#include "../index/GzipIndex.hpp"
#include "../index/IndexBuilder.hpp"
#include "../io/SharedFileReader.hpp"
#include "ChunkedReader.hpp"
#include "DeflateChunks.hpp"
#include "GzipChunkFetcher.hpp"

namespace rapidgzip {

/**
 * Parallel gzip decompressor (paper §3): a SharedFileReader feeds per-chunk
 * decodes on a thread pool; a prefetcher that ramps up with sequential
 * access keeps the pool busy ahead of the consumer; decoded chunks land in a
 * bounded cache serving random access reads.
 *
 * One chunk table drives all of it, the checkpoints of a GzipIndex (the
 * paper's §3.5 seek index) with chunk i spanning checkpoint i to checkpoint
 * i + 1, on one ChunkedReader. The table is an imported index, the BGZF
 * BC-field scan, or rows that a pass checks. Restart points, found at
 * `00 00 FF FF` sync markers by a search that jumps from one chunk to the
 * next (discoverRestartPoints), are exact rows: each decodes with an empty
 * window, or, when that fails (a sync flush keeps the window, and a false
 * restart point may not decode), from a guess at the same offset. A stream
 * without a restart point within two chunk sizes of its first Deflate byte
 * — a plain `gzip` stream, concatenated members included — gets the guess
 * grid instead: an exact row at that byte, then rows of guessed bit
 * offsets, decoded into stage-one output.
 *
 * Every table gets the same ordered pass, which keeps max(2P, 4) decodes
 * ahead of the consumer from its first chunk on (ChunkedReader::pass), with
 * one GzipChunkFetcher::Stitcher as its hook: it accepts a row that starts
 * where the previous row ended and re-decodes any other from there with the
 * window. A pass that stitched every row exactly as decoded fills in the
 * table's uncompressed offsets; any other makes the bit-granular index it
 * harvested the table.
 *
 * Correctness is layered: every pass checks every member against its own
 * footer, and a row that does not start where its predecessor ended is
 * re-decoded; whatever a pass cannot verify falls back to the serial walk
 * (GzipChunkFetcher::decompressSerially), which is the authority and
 * harvests an index while it verifies, or throws for a broken file. A chunk
 * decode checks every member it decodes whole, so reads from a BGZF table,
 * which no pass sizes, return no byte a footer has not checked. One
 * Deflate decoder serves all of it: chunks, the restart-point probe and the
 * serial walk.
 *
 * The table, its fetcher and the walk from offsets to chunks are a
 * ChunkedReader's. Thread model: the table is established under the chunked
 * reader's lock, by import, the BGZF scan or a pass; once a sized table is
 * published, size(), readAt() and readSpansAt() take no lock of their own
 * and may be called from many threads. seek(), tell() and read() are a
 * cursor over readAt() for one thread.
 */
class ParallelGzipReader
{
public:
    explicit ParallelGzipReader( std::unique_ptr<FileReader> fileReader,
                                 ChunkFetcherConfiguration configuration = {} ) :
        m_file( ensureSharedFileReader( std::move( fileReader ) ) ),
        m_configuration( configuration ),
        m_chunks( std::shared_ptr<const FileReader>( m_file->clone().release() ), configuration,
                  [this] () { (void)sweep(); } )
    {}

    /* --- whole-stream interface ------------------------------------- */

    /**
     * Decompress the whole stream in parallel with the footer-verified pass
     * and return the number of uncompressed bytes. The bytes are discarded;
     * use read() to obtain them. Throws when the file is broken: when no
     * pass verifies the stream, the serial walk decides.
     */
    [[nodiscard]] std::size_t
    decompressAll()
    {
        const auto lock = m_chunks.lock();
        return sweep();
    }

    /**
     * Verified streaming decompression: run the footer-verified pass first
     * (throwing on real corruption exactly like the sink-less overload),
     * THEN stream the bytes through @p sink from the table the pass or the
     * serial walk verified. A pass that fills in the offsets of exact rows
     * leaves its last chunks in the fetcher cache, so the streaming pass
     * partly re-reads instead of re-decoding.
     */
    [[nodiscard]] std::size_t
    decompressAll( const std::function<void( BufferView )>& sink )
    {
        const auto total = decompressAll();
        if ( !sink ) {
            return total;
        }
        std::size_t emitted = 0;
        std::vector<std::uint8_t> buffer( 4 * MiB );
        while ( const auto got = readAt( emitted, buffer.data(), buffer.size() ) ) {
            sink( { buffer.data(), got } );
            emitted += got;
        }
        return emitted;
    }

    /* --- random access interface ------------------------------------ */

    /** Total uncompressed size. On rows a pass checks, the first call runs
     * the footer-verified pass. */
    [[nodiscard]] std::size_t
    size()
    {
        return m_chunks.size();
    }

    /** See ChunkedReader::size( Wait ). */
    [[nodiscard]] std::optional<std::size_t>
    size( Wait wait )
    {
        return m_chunks.size( wait );
    }

    /** Read up to @p size bytes at @p offset. Returns bytes read. */
    [[nodiscard]] std::size_t
    readAt( std::size_t offset, std::uint8_t* buffer, std::size_t size )
    {
        return m_chunks.readAt( offset, buffer, size );
    }

    /** Zero-copy variant of readAt() (see ChunkedReader::readSpansAt()). */
    [[nodiscard]] std::size_t
    readSpansAt( std::size_t offset, std::size_t size, std::vector<OwnedSpan>& spans,
                 Wait wait = Wait::ALLOWED )
    {
        return m_chunks.readSpansAt( offset, size, spans, wait );
    }

    void
    seek( std::size_t uncompressedOffset )
    {
        m_position = uncompressedOffset;
    }

    [[nodiscard]] std::size_t
    tell() const noexcept
    {
        return m_position;
    }

    /** Read up to @p size bytes at the cursor and advance it. */
    [[nodiscard]] std::size_t
    read( std::uint8_t* buffer, std::size_t size )
    {
        const auto got = readAt( m_position, buffer, size );
        m_position += got;
        return got;
    }

    /* --- index interface --------------------------------------------- */

    /**
     * The seek index for this stream, which is the reader's chunk table.
     * Rows a pass checks are first replaced: by the same windowless
     * checkpoints with the uncompressed offsets the pass measured when it
     * stitched every row exactly as decoded, else by the bit-granular
     * checkpoints with compressed windows that the pass, or the serial
     * walk, harvests.
     * Serialize with index::serializeIndex() / index::exportGztoolIndex().
     */
    [[nodiscard]] GzipIndex
    exportIndex()
    {
        auto table = m_chunks.table();
        const auto lock = m_chunks.lock();
        auto index = *m_index;
        index.checkpoints = std::move( table.checkpoints );
        index.uncompressedSizeBytes = table.size;
        return index;
    }

    /** Adopt checkpoints, windows, and offsets from @p index, skipping
     * discovery: seek()/read() decode from the nearest checkpoint. */
    void
    importIndex( const GzipIndex& index )
    {
        if ( index.empty() ) {
            throw RapidgzipError( "Cannot import an empty gzip index" );
        }
        /* gztool-format imports do not record the compressed size (0 =
         * unknown); the per-chunk decode still catches a wrong file. */
        if ( ( index.compressedSizeBytes != 0 )
             && ( index.compressedSizeBytes != m_file->size() ) ) {
            throw RapidgzipError( "Gzip index does not match this file's size" );
        }
        if ( index.checkpoints.front().uncompressedOffset != 0 ) {
            throw RapidgzipError( "Gzip index must start at uncompressed offset 0" );
        }
        const auto fileBits = m_file->size() * 8;
        for ( std::size_t i = 0; i < index.checkpoints.size(); ++i ) {
            const auto& checkpoint = index.checkpoints[i];
            if ( ( checkpoint.compressedOffsetBits >= fileBits )
                 || ( ( i > 0 )
                      && ( ( checkpoint.compressedOffsetBits
                             <= index.checkpoints[i - 1].compressedOffsetBits )
                           || ( checkpoint.uncompressedOffset
                                < index.checkpoints[i - 1].uncompressedOffset ) ) )
                 || ( checkpoint.uncompressedOffset > index.uncompressedSizeBytes ) ) {
                throw RapidgzipError( "Gzip index checkpoints are inconsistent" );
            }
            /* Mid-stream checkpoints need their 32 KiB history. Byte-aligned
             * ones may be restart points (empty window); a bit-granular one
             * can never be, so a missing window there is corruption. */
            if ( ( checkpoint.compressedOffsetBits % 8 != 0 )
                 && ( checkpoint.uncompressedOffset > 0 )
                 && !index.windows.contains( checkpoint.compressedOffsetBits ) ) {
                throw RapidgzipError( "Gzip index is missing the window for a "
                                      "bit-granular checkpoint" );
            }
        }

        auto adopted = std::make_shared<GzipIndex>( index );
        adopted->compressedSizeBytes = m_file->size();
        const auto lock = m_chunks.lock();
        adoptIndex( std::move( adopted ) );
    }

    /* --- introspection ----------------------------------------------- */

    /** Chunks in the current table; runs chunk-table discovery if needed. */
    [[nodiscard]] std::size_t
    chunkCount()
    {
        const auto lock = m_chunks.lock();
        ensureChunkTable();
        return m_chunks.current().checkpoints.size();
    }

private:
    /**
     * The footer-verified pass behind decompressAll() and the first
     * size()/readAt(); the caller holds the chunked reader's lock. Every
     * table gets one ordered pass through the chunked reader, with a
     * Stitcher as its hook: it re-decodes every row that does not start
     * where the previous one ended, checks every member against its own
     * footer, and harvests an index from the rows it checks. The pass
     * publishes nothing until the stream is verified, as readers take no
     * lock once a sized table exists. Then, when it stitched every row
     * exactly as decoded, the measured row sizes fill in the table's
     * uncompressed offsets; otherwise the harvested index becomes the table.
     * When the pass cannot verify the stream, the serial walk decodes it,
     * checks every member and harvests the index that becomes the table.
     * Throws when the file is broken, when it ends before the stream's final
     * block, and for a transient failure.
     */
    [[nodiscard]] std::size_t
    sweep()
    {
        ensureChunkTable();
        const auto table = m_index;
        try {
            index::IndexBuilder builder;
            GzipChunkFetcher::Stitcher stitcher( *m_file, table->checkpoints.front().compressedOffsetBits, &builder );
            std::vector<std::size_t> sizes;
            (void)m_chunks.pass( [&] ( std::size_t i, const DecodedChunk& chunk ) {
                stitcher.stitch( chunk, chunkEnd( table->checkpoints, i ) );
                sizes.push_back( chunk.data.size() );
                return !stitcher.reachedStreamEnd();
            } );
            if ( !stitcher.reachedStreamEnd() ) {
                throw TruncatedStreamError( "Gzip stream ended before the final Deflate block — truncated file" );
            }
            if ( stitcher.rowsExact() ) {
                return m_chunks.publishSizes( sizes );
            }
            adoptIndex( std::make_shared<const GzipIndex>( builder.build( m_file->size(), stitcher.size() ) ) );
            return stitcher.size();
        } catch ( const TruncatedStreamError& ) {
            throw;  /* no decode can make the file longer */
        } catch ( const InvalidGzipStreamError& ) {
        } catch ( const ChecksumError& ) {
        } catch ( ... ) {
            /* A transient failure (I/O, allocation, injected fault) leaves
             * failed prefetches in the cache: let the next pass start on a
             * fresh fetcher. */
            m_chunks.reset();
            throw;
        }
        RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_serial_fallbacks_total",
                                   "Passes that could not verify the stream and left it to the serial walk.", 1 );
        index::IndexBuilder builder;
        const auto total = GzipChunkFetcher::decompressSerially( *m_file, m_configuration.chunkSizeBytes, &builder );
        adoptIndex( std::make_shared<const GzipIndex>( builder.build( m_file->size(), total ) ) );
        return total;
    }

    /** The end bit of chunk @p i of @p checkpoints: where chunk i + 1
     * starts, unlimited for the last. */
    [[nodiscard]] static std::size_t
    chunkEnd( const std::vector<index::Checkpoint>& checkpoints, std::size_t i )
    {
        return i + 1 < checkpoints.size() ? checkpoints[i + 1].compressedOffsetBits
                                          : GzipChunkFetcher::NO_LIMIT;
    }

    /**
     * Make @p index the sized chunk table. Its checkpoints decode with
     * GzipChunkFetcher::decodeChunkFromCheckpoint from their windows; every
     * @p bgzf row starts a member, which its decode checks against its
     * footer.
     */
    void
    adoptIndex( std::shared_ptr<const GzipIndex> index, bool bgzf = false )
    {
        m_index = std::move( index );
        /* The decoder runs on pool workers: it captures the immutable index
         * by shared_ptr and only uses const accessors. */
        m_chunks.publish(
            m_index->checkpoints, m_index->uncompressedSizeBytes,
            [index = m_index, bgzf] ( const FileReader& reader, std::size_t i ) {
                const auto startBits = index->checkpoints[i].compressedOffsetBits;
                const auto window = index->windows.get( startBits );
                return GzipChunkFetcher::decodeChunkFromCheckpoint(
                    reader, startBits, chunkEnd( index->checkpoints, i ), { window.data(), window.size() }, bgzf );
            } );
    }

    /**
     * Establish the chunk table: the BGZF index when the BC fields describe
     * every member, else rows that a pass checks, unsized until then, each
     * decoded by GzipChunkFetcher::decodeRow. Two or more restart points
     * from discovery are exact rows; a single start S gets the guess grid
     * instead, an exact row at S and rows guessed at S + i * C' up to the
     * end of the file, C' = max(C, 128 KiB).
     */
    void
    ensureChunkTable()
    {
        if ( m_index ) {
            return;
        }
        /* BGZF is an index special case: the BC extra fields describe every
         * block, so the full random-access index is a header scan away — no
         * marker search, no flush markers, no decoding. */
        if ( auto bgzfIndex = index::tryBuildBgzfIndex( *m_file,
                                                        m_configuration.chunkSizeBytes ) ) {
            adoptIndex( std::make_shared<const GzipIndex>( std::move( *bgzfIndex ) ), /* bgzf */ true );
            return;
        }
        auto table = std::make_shared<GzipIndex>();
        table->compressedSizeBytes = m_file->size();
        auto& rows = table->checkpoints;
        for ( const auto start : discoverRestartPoints( *m_file, m_configuration.chunkSizeBytes ) ) {
            rows.push_back( { start * 8, 0 } );
        }
        const auto grid = rows.size() == 1;
        const auto rowBytes = std::max<std::size_t>( m_configuration.chunkSizeBytes, 128 * KiB );
        for ( auto bits = rows.front().compressedOffsetBits + rowBytes * 8; grid && ( bits < m_file->size() * 8 );
              bits += rowBytes * 8 ) {
            rows.push_back( { bits, 0 } );
        }
        std::vector<bool> exact( rows.size(), !grid );
        exact.front() = true;
        m_index = std::move( table );

        /* Speculative output budget per guessed row. Deflate can expand up
         * to ~1032x, but budgeting for that would let the look-ahead's
         * 16-bit row buffers occupy hundreds of row sizes of memory; ratios
         * beyond this cap (sparse files and the like) fall back to the
         * stitch's sequential re-decode, whose single uncapped chunk matches
         * the serial walk's memory profile. */
        const auto rowOutputCap = rowBytes * 64 + 16 * MiB;
        m_chunks.publish(
            m_index->checkpoints, std::nullopt,
            [index = m_index, exact = std::move( exact ), rowOutputCap] ( const FileReader& reader, std::size_t i ) {
                return GzipChunkFetcher::decodeRow( reader, index->checkpoints[i].compressedOffsetBits,
                                                    chunkEnd( index->checkpoints, i ), exact[i], rowOutputCap );
            },
            /* unverified */ true );
    }

    std::unique_ptr<SharedFileReader> m_file;
    ChunkFetcherConfiguration m_configuration;

    /* Under m_chunks' lock: the index behind the chunk table, whose windows
     * and metadata the table's checkpoints pair with. */
    std::shared_ptr<const GzipIndex> m_index;

    ChunkedReader m_chunks;
    std::size_t m_position{ 0 };
};

}  // namespace rapidgzip
