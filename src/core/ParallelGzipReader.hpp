#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../gzip/GzipHeader.hpp"
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
 * One chunk table drives all of it: the checkpoints of a GzipIndex (the
 * paper's §3.5 seek index), chunk i spanning checkpoint i to checkpoint
 * i + 1, every chunk decoded by GzipChunkFetcher::decodeChunkFromCheckpoint.
 * The table is an imported index, the BGZF BC-field scan, or full-flush
 * discovery. Discovery yields *marker-derived* checkpoints: byte-aligned,
 * windowless, found at `00 00 FF FF` sync markers by a search that jumps
 * from one chunk to the next (discoverRestartPoints), and guesses until the
 * footer-verified sweep fills in their uncompressed offsets. A stream
 * without a restart point within two chunk sizes of its first Deflate byte
 * has a single such checkpoint; its sweep runs the two-stage pipeline, whose
 * harvested bit-granular index replaces the table. The sweep over a table
 * of several checkpoints keeps every pool thread decoding from its first
 * chunk on (ChunkedReader::sweep).
 *
 * Correctness is layered: the sweep checks every member against its own
 * footer; a chunk that fails to decode at a marker-derived checkpoint, or
 * whose decode stops past the next one, had a false boundary that is merged
 * away; whatever the chunked state cannot verify falls back to the serial
 * walk (GzipChunkFetcher::decompressSerially), which is the authority. One
 * Deflate decoder serves all of it: chunks, the restart-point probe and the
 * serial walk.
 *
 * The table, its fetcher and the walk from offsets to chunks are a
 * ChunkedReader's. Thread model: the table is established under the chunked
 * reader's lock, by import, the BGZF scan or the sweep; once it is
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
                  [this] () { establishOffsets(); } )
    {}

    /* --- whole-stream interface ------------------------------------- */

    /**
     * Decompress the whole stream in parallel with the footer-verified sweep
     * and return the number of uncompressed bytes. The bytes are discarded;
     * use read() to obtain them.
     *
     * When the chunked state cannot produce verified bytes — a footer
     * mismatch, or a failing chunk that is no false marker boundary — the
     * serial walk answers: it is the authority and throws if the file
     * itself is broken.
     */
    [[nodiscard]] std::size_t
    decompressAll()
    {
        {
            const auto lock = m_chunks.lock();
            if ( !m_parallelResultUntrusted ) {
                if ( const auto total = sweep() ) {
                    return *total;
                }
            }
        }
        return GzipChunkFetcher::decompressSerially( *m_file, m_configuration.chunkSizeBytes );
    }

    /**
     * Verified streaming decompression: run the footer-verified sweep
     * first (throwing on real corruption exactly like the sink-less
     * overload), THEN stream the bytes through @p sink. The sweep's chunks
     * stay in the fetcher cache, so the streaming pass mostly re-reads
     * instead of re-decoding. When the chunked state cannot serve the
     * stream the verification sweep just proved decodable (footer mismatch
     * poisoned it, or a false restart boundary could not be merged away),
     * the serial walk streams it instead — the consumer never sees
     * unverified bytes and never loses a stream the serial walk can
     * handle.
     */
    [[nodiscard]] std::size_t
    decompressAll( const std::function<void( BufferView )>& sink )
    {
        if ( !sink ) {
            return decompressAll();
        }

        static_cast<void>( decompressAll() );  /* throws on real corruption */

        std::size_t emitted = 0;
        try {
            std::vector<std::uint8_t> buffer( 4 * MiB );
            while ( const auto got = readAt( emitted, buffer.data(), buffer.size() ) ) {
                sink( { buffer.data(), got } );
                emitted += got;
            }
            return emitted;
        } catch ( const RapidgzipError& ) {
            /* The chunked state cannot replay what the verification sweep
             * answered serially; fall through to the authority. Bytes
             * already emitted came from footer-verified chunks, so the
             * serial stream below resumes AFTER them — decoding is
             * deterministic and both paths verified the same file. */
        }

        std::size_t position = 0;
        const auto total = GzipChunkFetcher::decompressSerially(
            *m_file, m_configuration.chunkSizeBytes, [&] ( BufferView bytes ) {
                if ( position + bytes.size() > emitted ) {
                    const auto skip = position < emitted ? emitted - position : 0;
                    sink( { bytes.data() + skip, bytes.size() - skip } );
                }
                position += bytes.size();
            } );
        return std::max( total, emitted );
    }

    /* --- random access interface ------------------------------------ */

    /** Total uncompressed size. On a table of marker-derived checkpoints the
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
     * footer-verified sweep first; a stream without restart points gets the
     * two-stage sweep's bit-granular checkpoints with compressed windows.
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
    /**
     * The footer-verified sweep behind decompressAll() and the first
     * size()/readAt(): decode every chunk in order through the chunked
     * reader, check each member against its own footer, and fill the chunk
     * sizes into the checkpoints' uncompressed offsets. The caller holds the
     * chunked reader's lock.
     *
     * A table of one marker-derived checkpoint (no restart point within two
     * chunk sizes of the start) tries the two-stage sweep first; when that
     * fails, the stream decodes as one chunk. A chunk that fails to decode at a marker-derived checkpoint had
     * a false boundary — its start, or its end when that cuts a block, a
     * footer or a member header — which is merged away before the sweep
     * restarts. Returns std::nullopt and poisons the chunked state when it
     * cannot produce verified bytes; throws when the file ends before the
     * stream's final block.
     */
    [[nodiscard]] std::optional<std::size_t>
    sweep()
    {
        ensureChunkTable();
        if ( m_markerDerived && ( m_chunks.current().checkpoints.size() == 1 ) ) {
            try {
                return decompressAllTwoStage();
            } catch ( const RapidgzipError& ) {
                /* decode the stream as one chunk below */
            }
        }
        while ( true ) {
            MemberVerifier verifier( *m_file );
            const auto chunkCount = m_chunks.current().checkpoints.size();
            /* The hook sees the chunks in order, so a failing decode is
             * chunk number `verified`. */
            std::size_t verified = 0;
            std::size_t falseBoundary = 0;
            try {
                const auto total = m_chunks.sweep( [&] ( std::size_t i, const DecodedChunk& chunk ) {
                    if ( !verifier.consume( chunk ) ) {
                        throw ChecksumError( "Gzip member does not match its footer" );
                    }
                    ++verified;
                    if ( chunk.reachedStreamEnd ) {
                        /* Later marker-derived checkpoints lie in trailing padding. */
                        return !m_markerDerived;
                    }
                    if ( i + 1 == chunkCount ) {
                        throw TruncatedStreamError(
                            "Gzip stream ended before the final Deflate block — truncated file" );
                    }
                    return true;
                } );
                m_markerDerived = false;
                return total;
            } catch ( const ChecksumError& ) {
                return poison();
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
                return poison();
            }
        }
    }

    /**
     * The two-stage sweep for a stream without restart points: per member,
     * parallel chunk decodes from guessed bit offsets (GzipChunkFetcher),
     * sequential marker resolution with window propagation, and footer
     * verification — with guessed offsets the CRC32 check is the
     * correctness authority. On success the harvested index becomes the
     * chunk table. Throws on any failure.
     */
    [[nodiscard]] std::size_t
    decompressAllTwoStage()
    {
        index::IndexBuilder builder( m_configuration.checkpointSpacingBytes );
        std::optional<std::size_t> deflateStart = m_index->checkpoints.front().compressedOffsetBits / 8;
        std::size_t total = 0;
        while ( deflateStart ) {
            const auto member = GzipChunkFetcher::decompressMember(
                *m_file, *deflateStart, m_configuration.parallelism,
                m_configuration.chunkSizeBytes, nullptr, &builder );
            if ( !footerMatches( *m_file, member.footerStartByte, member.crc32,
                                 member.uncompressedSize ) ) {
                throw ChecksumError( "Two-stage parallel decode does not match the gzip footer" );
            }
            total += member.uncompressedSize;
            builder.finishMember( member.uncompressedSize );
            deflateStart = nextGzipMember( *m_file, member.footerStartByte + GZIP_FOOTER_SIZE );
        }
        /* Every member verified against its footer: the harvested index is
         * trustworthy, and seek()/read() resume from its checkpoints instead
         * of re-running (or serializing) the sweep. */
        adoptIndex( std::make_shared<const GzipIndex>( builder.build( m_file->size() ) ) );
        return total;
    }

    /**
     * Erase the marker-derived checkpoint @p boundary that a failing chunk
     * exposed as false, merging its chunk into the predecessor. Returns false
     * for any other table, and when @p boundary is no inner checkpoint.
     */
    [[nodiscard]] bool
    mergeFalseBoundary( std::size_t boundary )
    {
        if ( !m_markerDerived || ( boundary == 0 ) || ( boundary >= m_index->checkpoints.size() ) ) {
            return false;
        }
        auto table = std::make_shared<GzipIndex>( *m_index );
        table->checkpoints.erase( table->checkpoints.begin() + static_cast<std::ptrdiff_t>( boundary ) );
        adoptIndex( std::move( table ), /* markerDerived */ true );
        return true;
    }

    /** The chunked state cannot produce verified bytes for this stream; only
     * the serial path may answer from now on, and reads throw. */
    [[nodiscard]] std::optional<std::size_t>
    poison()
    {
        m_parallelResultUntrusted = true;
        m_chunks.reset( /* keepSizes */ false );
        return std::nullopt;
    }

    /**
     * Make @p index the chunk table, every chunk decoded by
     * GzipChunkFetcher::decodeChunkFromCheckpoint from its checkpoint and
     * window. Marker-derived checkpoints await the sweep's sizes.
     */
    void
    adoptIndex( std::shared_ptr<const GzipIndex> index, bool markerDerived = false )
    {
        m_index = std::move( index );
        m_markerDerived = markerDerived;
        /* A trustworthy index supersedes whatever chunking failed before. */
        m_parallelResultUntrusted = false;
        /* The decoder runs on pool workers: it captures the immutable index
         * by shared_ptr and only uses const accessors. */
        m_chunks.publish(
            m_index->checkpoints,
            markerDerived ? std::nullopt : std::optional<std::size_t>( m_index->uncompressedSizeBytes ),
            [index = m_index] ( const FileReader& reader, std::size_t i ) {
                const auto& checkpoints = index->checkpoints;
                const auto startBits = checkpoints[i].compressedOffsetBits;
                const auto untilBits = i + 1 < checkpoints.size()
                                       ? checkpoints[i + 1].compressedOffsetBits
                                       : std::numeric_limits<std::size_t>::max();
                const auto window = index->windows.get( startBits );
                return GzipChunkFetcher::decodeChunkFromCheckpoint(
                    reader, startBits, untilBits, { window.data(), window.size() } );
            } );
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
            adoptIndex( std::make_shared<const GzipIndex>( std::move( *bgzfIndex ) ) );
            return;
        }
        auto markers = std::make_shared<GzipIndex>();
        markers->compressedSizeBytes = m_file->size();
        for ( const auto start : discoverRestartPoints( *m_file, m_configuration.chunkSizeBytes ) ) {
            markers->checkpoints.push_back( { start * 8, 0 } );
        }
        adoptIndex( std::move( markers ), /* markerDerived */ true );
    }

    /** The chunked reader's table builder: make the checkpoints'
     * uncompressed offsets trustworthy; marker-derived ones run the
     * footer-verified sweep. */
    void
    establishOffsets()
    {
        ensureChunkTable();
        if ( m_markerDerived && !m_parallelResultUntrusted ) {
            (void)sweep();
        }
        if ( m_parallelResultUntrusted ) {
            throw RapidgzipError( "The parallel chunked decode cannot verify this stream; "
                                  "decompressAll() decodes it serially" );
        }
    }

    std::unique_ptr<SharedFileReader> m_file;
    ChunkFetcherConfiguration m_configuration;

    /* Under m_chunks' lock: the index behind the chunk table, whose windows
     * and metadata the table's checkpoints pair with, and its state. */
    std::shared_ptr<const GzipIndex> m_index;
    /** The checkpoints are sync-marker guesses whose uncompressed offsets no
     * sweep has verified yet; only such checkpoints may be merged away. */
    bool m_markerDerived{ false };
    /** Set when the chunked state cannot produce verified bytes for this
     * stream: only the serial path may answer. */
    bool m_parallelResultUntrusted{ false };

    ChunkedReader m_chunks;
    std::size_t m_position{ 0 };
};

}  // namespace rapidgzip
