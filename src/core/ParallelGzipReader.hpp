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
 * decodes on a thread pool; a strategy-driven prefetcher keeps the pool busy
 * ahead of the consumer; decoded chunks land in a bounded cache serving
 * random access reads.
 *
 * One chunk table drives all of it, the checkpoints of a GzipIndex (the
 * paper's §3.5 seek index) with chunk i spanning checkpoint i to checkpoint
 * i + 1, on one ChunkedReader. The table is an imported index, the BGZF
 * BC-field scan, restart points, or the guess grid. Restart points are
 * *marker-derived* checkpoints: byte-aligned, windowless, found at
 * `00 00 FF FF` sync markers by a search that jumps from one chunk to the
 * next (discoverRestartPoints), and unsized until the footer-verified sweep
 * measures them. A stream without a restart point within two chunk sizes of
 * its first Deflate byte — a plain `gzip` stream, concatenated members
 * included — gets the guess grid instead: rows of guessed bit offsets,
 * decoded on the same fetcher into stage-one output and stitched in order
 * (GzipChunkFetcher::Stitcher); the bit-granular index that pass harvests
 * becomes the table. Every ordered pass keeps max(2P, 4) decodes ahead of
 * the consumer from its first chunk on (ChunkedReader::pass).
 *
 * Correctness is layered: every pass checks every member against its own
 * footer; a chunk that fails to decode at a marker-derived checkpoint, or
 * whose decode stops past the next one, had a false boundary that is merged
 * away; whatever a pass cannot verify falls back to the serial walk
 * (GzipChunkFetcher::decompressSerially), which is the authority and
 * harvests an index while it verifies, or throws for a broken file. A chunk
 * decode checks every member it decodes whole, so reads from a BGZF table,
 * which no sweep sizes, return no byte a footer has not checked. One
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
     * Decompress the whole stream in parallel with the footer-verified sweep
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
     * Verified streaming decompression: run the footer-verified sweep
     * first (throwing on real corruption exactly like the sink-less
     * overload), THEN stream the bytes through @p sink from the table the
     * sweep or the serial walk verified. A sweep over restart points
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

    /** Total uncompressed size. On restart points or the guess grid the
     * first call runs the footer-verified sweep. */
    [[nodiscard]] std::size_t
    size()
    {
        return m_chunks.size();
    }

    /** Read up to @p size bytes at @p offset. Returns bytes read. */
    [[nodiscard]] std::size_t
    readAt( std::size_t offset, std::uint8_t* buffer, std::size_t size )
    {
        return m_chunks.readAt( offset, buffer, size );
    }

    /** Zero-copy variant of readAt() (see ChunkedReader::readSpansAt()). */
    [[nodiscard]] std::size_t
    readSpansAt( std::size_t offset, std::size_t size, std::vector<OwnedSpan>& spans )
    {
        return m_chunks.readSpansAt( offset, size, spans );
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
     * Marker-derived checkpoints get their uncompressed offsets from the
     * footer-verified sweep first; the guess grid is replaced by the
     * bit-granular checkpoints with compressed windows that its stitched
     * pass, or the serial walk, harvests.
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

    /** A snapshot of the chunk fetcher's statistics. */
    [[nodiscard]] FetcherStatistics
    fetcherStatistics() const
    {
        return m_chunks.statistics();
    }

    /** Chunks in the current table; runs chunk-table discovery if needed. */
    [[nodiscard]] std::size_t
    chunkCount()
    {
        const auto lock = m_chunks.lock();
        ensureChunkTable();
        return m_chunks.current().checkpoints.size();
    }

private:
    /** What the chunk table's checkpoints are. */
    enum class Table
    {
        INDEX,           /**< an imported index, or one a pass sized or harvested */
        BGZF,            /**< BC-field member starts, sized by their footers */
        RESTART_POINTS,  /**< marker-derived checkpoints awaiting the sweep's sizes */
        GUESS_GRID,      /**< guessed rows of stage-one output, read only by the stitched pass */
    };

    /**
     * The footer-verified sweep behind decompressAll() and the first
     * size()/readAt(); the caller holds the chunked reader's lock. The guess
     * grid takes the stitched pass (sweepGuessGrid()); every other table is
     * swept in order through the chunked reader, each member checked against
     * its own footer, and the measured chunk sizes fill in the checkpoints'
     * uncompressed offsets.
     *
     * A chunk that fails to decode at a marker-derived checkpoint had a
     * false boundary — its start, or its end when that cuts a block, a
     * footer or a member header — which is merged away before the sweep
     * restarts; a merge that leaves one checkpoint publishes the guess grid.
     * When no pass can verify the stream, the serial walk decodes it,
     * checks every member and harvests the index that becomes the table.
     * Throws when the file is broken, when it ends before the stream's final
     * block, and for a transient failure.
     */
    [[nodiscard]] std::size_t
    sweep()
    {
        ensureChunkTable();
        while ( true ) {
            /* The hook sees the chunks in order, so a failing decode is
             * chunk number `verified`. */
            std::size_t verified = 0;
            std::size_t falseBoundary = 0;
            try {
                if ( m_table == Table::GUESS_GRID ) {
                    return sweepGuessGrid();
                }
                MemberVerifier verifier( *m_file );
                const auto chunkCount = m_chunks.current().checkpoints.size();
                const auto total = m_chunks.sweep( [&] ( std::size_t i, const DecodedChunk& chunk ) {
                    if ( !verifier.consume( chunk ) ) {
                        throw ChecksumError( "Gzip member does not match its footer" );
                    }
                    ++verified;
                    if ( chunk.reachedStreamEnd ) {
                        /* Later marker-derived checkpoints lie in trailing padding. */
                        return m_table != Table::RESTART_POINTS;
                    }
                    if ( i + 1 == chunkCount ) {
                        throw TruncatedStreamError(
                            "Gzip stream ended before the final Deflate block — truncated file" );
                    }
                    return true;
                } );
                if ( m_table == Table::RESTART_POINTS ) {
                    m_table = Table::INDEX;
                }
                return total;
            } catch ( const ChecksumError& ) {
                break;
            } catch ( const FalseChunkEndError& ) {
                falseBoundary = verified + 1;
            } catch ( const TruncatedStreamError& ) {
                throw;  /* no merge can make the file longer */
            } catch ( const InvalidGzipStreamError& ) {
                /* A bad chunk start; chunk 0 starts at the member's first
                 * Deflate byte, so there the end is the suspect. */
                falseBoundary = std::max<std::size_t>( verified, 1 );
            } catch ( ... ) {
                /* A transient failure (I/O, allocation, injected fault)
                 * leaves failed prefetches in the cache: let the next sweep
                 * start on a fresh fetcher. */
                m_chunks.reset( /* keepSizes */ true );
                throw;
            }
            if ( !mergeFalseBoundary( falseBoundary ) ) {
                break;
            }
        }
        index::IndexBuilder builder( m_configuration.checkpointSpacingBytes );
        const auto total = GzipChunkFetcher::decompressSerially( *m_file, m_configuration.chunkSizeBytes, &builder );
        adoptIndex( std::make_shared<const GzipIndex>( builder.build( m_file->size(), total ) ) );
        return total;
    }

    /**
     * The two-stage pass over the guess grid: its rows decode on the
     * chunked reader's fetcher, and the Stitcher stitches them in order,
     * re-decoding the rows whose guess missed, resolving markers, checking
     * every member against its footer and harvesting the index. The pass
     * publishes nothing; on success the harvested index becomes the table.
     */
    [[nodiscard]] std::size_t
    sweepGuessGrid()
    {
        const auto grid = m_index;
        index::IndexBuilder builder( m_configuration.checkpointSpacingBytes );
        GzipChunkFetcher::Stitcher stitcher( *m_file, grid->checkpoints.front().compressedOffsetBits, &builder );
        (void)m_chunks.pass( [&] ( std::size_t i, const DecodedChunk& chunk ) {
            stitcher.stitch( chunk, chunkEnd( grid->checkpoints, i ) );
            return !stitcher.reachedStreamEnd();
        } );
        if ( !stitcher.reachedStreamEnd() ) {
            throw TruncatedStreamError( "Gzip stream ended before the final Deflate block — truncated file" );
        }
        adoptIndex( std::make_shared<const GzipIndex>( builder.build( m_file->size(), stitcher.size() ) ) );
        return stitcher.size();
    }

    /**
     * Erase the marker-derived checkpoint @p boundary that a failing chunk
     * exposed as false, merging its chunk into the predecessor. Returns false
     * for any other table, and when @p boundary is no inner checkpoint.
     */
    [[nodiscard]] bool
    mergeFalseBoundary( std::size_t boundary )
    {
        if ( ( m_table != Table::RESTART_POINTS ) || ( boundary == 0 )
             || ( boundary >= m_index->checkpoints.size() ) ) {
            return false;
        }
        auto starts = m_index->checkpoints;
        starts.erase( starts.begin() + static_cast<std::ptrdiff_t>( boundary ) );
        adoptRestartPoints( std::move( starts ) );
        return true;
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
     * Make @p index the chunk table. Restart points and the guess grid await
     * a pass's sizes. Checkpoints decode with
     * GzipChunkFetcher::decodeChunkFromCheckpoint from their window; the
     * guess grid's row 0 decodes exactly from the stream's first Deflate
     * bit, every other row with GzipChunkFetcher::decodeChunkFromGuess.
     */
    void
    adoptIndex( std::shared_ptr<const GzipIndex> index, Table table = Table::INDEX )
    {
        m_index = std::move( index );
        m_table = table;
        /* Speculative output budget per guessed row. Deflate can expand up
         * to ~1032x, but budgeting for that would let the look-ahead's
         * 16-bit row buffers occupy hundreds of row sizes of memory; ratios
         * beyond this cap (sparse files and the like) fall back to the
         * stitch's sequential re-decode, whose single uncapped chunk matches
         * the serial walk's memory profile. */
        const auto rowOutputCap = guessRowBytes() * 64 + 16 * MiB;
        /* The decoder runs on pool workers: it captures the immutable index
         * by shared_ptr and only uses const accessors. */
        m_chunks.publish(
            m_index->checkpoints,
            ( table == Table::INDEX ) || ( table == Table::BGZF )
            ? std::optional<std::size_t>( m_index->uncompressedSizeBytes ) : std::nullopt,
            [index = m_index, table, rowOutputCap] ( const FileReader& reader, std::size_t i ) {
                const auto startBits = index->checkpoints[i].compressedOffsetBits;
                const auto untilBits = chunkEnd( index->checkpoints, i );
                if ( table == Table::GUESS_GRID ) {
                    return i == 0 ? GzipChunkFetcher::decodeMembers( reader, startBits, untilBits, {}, true )
                                  : GzipChunkFetcher::decodeChunkFromGuess( reader, startBits, untilBits,
                                                                            rowOutputCap );
                }
                const auto window = index->windows.get( startBits );
                return GzipChunkFetcher::decodeChunkFromCheckpoint(
                    reader, startBits, untilBits, { window.data(), window.size() }, table == Table::BGZF );
            },
            /* stageOne */ table == Table::GUESS_GRID );
    }

    /** Guessed rows are C' = max(C, 128 KiB) compressed bytes apart. */
    [[nodiscard]] std::size_t
    guessRowBytes() const
    {
        return std::max<std::size_t>( m_configuration.chunkSizeBytes, 128 * KiB );
    }

    /**
     * Make @p starts the table as marker-derived checkpoints; a single one,
     * the stream's first Deflate bit, becomes the guess grid instead: row i
     * starts i * C' past it, up to the end of the file.
     */
    void
    adoptRestartPoints( std::vector<index::Checkpoint> starts )
    {
        auto table = std::make_shared<GzipIndex>();
        table->compressedSizeBytes = m_file->size();
        if ( starts.size() > 1 ) {
            table->checkpoints = std::move( starts );
            adoptIndex( std::move( table ), Table::RESTART_POINTS );
            return;
        }
        const auto fileBits = m_file->size() * 8;
        auto bits = starts.front().compressedOffsetBits;
        do {
            table->checkpoints.push_back( { bits, 0 } );
            bits += guessRowBytes() * 8;
        } while ( bits < fileBits );
        adoptIndex( std::move( table ), Table::GUESS_GRID );
    }

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
            adoptIndex( std::make_shared<const GzipIndex>( std::move( *bgzfIndex ) ), Table::BGZF );
            return;
        }
        std::vector<index::Checkpoint> starts;
        for ( const auto start : discoverRestartPoints( *m_file, m_configuration.chunkSizeBytes ) ) {
            starts.push_back( { start * 8, 0 } );
        }
        adoptRestartPoints( std::move( starts ) );
    }

    std::unique_ptr<SharedFileReader> m_file;
    ChunkFetcherConfiguration m_configuration;

    /* Under m_chunks' lock: the index behind the chunk table, whose windows
     * and metadata the table's checkpoints pair with, and what they are. */
    std::shared_ptr<const GzipIndex> m_index;
    Table m_table{ Table::INDEX };

    ChunkedReader m_chunks;
    std::size_t m_position{ 0 };
};

}  // namespace rapidgzip
