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
#include "ChunkFetcher.hpp"
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
 * windowless, found at `00 00 FF FF` sync markers, and guesses until the
 * footer-verified sweep fills in their uncompressed offsets. A stream
 * without restart points has a single such checkpoint; its sweep runs the
 * two-stage pipeline, whose harvested bit-granular index replaces the table.
 *
 * Correctness is layered: the sweep checks every member against its own
 * footer; a chunk that fails to decode at a marker-derived checkpoint, or
 * whose decode stops past the next one, had a false boundary that is merged
 * away; whatever the chunked state cannot verify falls back to the serial
 * walk (GzipChunkFetcher::decompressSerially), which is the authority. One
 * Deflate decoder serves all of it: chunks, the restart-point probe and the
 * serial walk.
 *
 * Thread model: one consumer thread drives this object; the parallelism
 * lives in the chunk decoding underneath.
 */
class ParallelGzipReader
{
public:
    explicit ParallelGzipReader( std::unique_ptr<FileReader> fileReader,
                                 ChunkFetcherConfiguration configuration = {} ) :
        m_file( ensureSharedFileReader( std::move( fileReader ) ) ),
        m_configuration( configuration )
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
        if ( !m_parallelResultUntrusted ) {
            if ( const auto total = sweep() ) {
                return *total;
            }
        }
        return serialDecompressCount();
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
        if ( !m_parallelResultUntrusted ) {
            try {
                seek( 0 );
                std::vector<std::uint8_t> buffer( 4 * MiB );
                while ( true ) {
                    const auto got = read( buffer.data(), buffer.size() );
                    if ( got == 0 ) {
                        break;
                    }
                    sink( { buffer.data(), got } );
                    emitted += got;
                }
                return emitted;
            } catch ( const RapidgzipError& ) {
                /* The chunked state cannot replay what the verification
                 * sweep answered serially; fall through to the authority.
                 * Bytes already emitted came from footer-verified chunks,
                 * so the serial stream below resumes AFTER them — decoding
                 * is deterministic and both paths verified the same file. */
            }
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
        ensureOffsetsKnown();
        return m_index->uncompressedSizeBytes;
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

    /** Read up to @p size bytes at the current position. Returns bytes read. */
    [[nodiscard]] std::size_t
    read( std::uint8_t* buffer, std::size_t size )
    {
        return walkChunks( size, [&buffer] ( const ChunkFetcher::ChunkDataPtr& chunk,
                                             std::size_t offsetInChunk, std::size_t length ) {
            std::memcpy( buffer, chunk->data.data() + offsetInChunk, length );
            buffer += length;
        } );
    }

    /** Zero-copy variant of read(): lends refcounted spans straight out of
     * the decoded chunks instead of copying into a caller buffer. Each span
     * keeps its whole chunk alive, so the window stays valid past cache
     * eviction for as long as the caller holds the span. Returns bytes
     * appended (short at EOF). */
    [[nodiscard]] std::size_t
    readSpans( std::size_t size, std::vector<OwnedSpan>& spans )
    {
        return walkChunks( size, [&spans] ( const ChunkFetcher::ChunkDataPtr& chunk,
                                            std::size_t offsetInChunk, std::size_t length ) {
            spans.push_back( lendChunkSpan( chunk, offsetInChunk, length ) );
        } );
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
        ensureOffsetsKnown();
        return *m_index;
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
        adoptIndex( std::move( adopted ) );
    }

    /* --- introspection ----------------------------------------------- */

    [[nodiscard]] const FetcherStatistics&
    fetcherStatistics() const noexcept
    {
        static const FetcherStatistics empty{};
        return m_fetcher ? m_fetcher->statistics() : empty;
    }

    /** Chunks in the current table; runs chunk-table discovery if needed. */
    [[nodiscard]] std::size_t
    chunkCount()
    {
        ensureChunkTable();
        return m_index->checkpoints.size();
    }

private:
    /**
     * The footer-verified sweep behind decompressAll() and the first
     * size()/read()/readSpans(): decode every chunk in order through the
     * fetcher, check each member against its own footer, and fill the chunk
     * sizes into the checkpoints' uncompressed offsets. Filling them in keeps
     * the fetcher, so the sweep's tail stays cached for the reads that
     * follow.
     *
     * A table of one marker-derived checkpoint (no restart points) tries the
     * two-stage sweep first; when that fails, the stream decodes as one
     * chunk. A chunk that fails to decode at a marker-derived checkpoint had
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
        if ( m_markerDerived && ( m_index->checkpoints.size() == 1 ) ) {
            try {
                return decompressAllTwoStage();
            } catch ( const RapidgzipError& ) {
                /* decode the stream as one chunk below */
            }
        }
        ensureFetcher();
        while ( true ) {
            MemberVerifier verifier( *m_file );
            std::vector<std::size_t> sizes;
            std::optional<std::size_t> falseBoundary;
            bool endedStream = false;
            for ( std::size_t i = 0; i < m_index->checkpoints.size(); ++i ) {
                ChunkFetcher::ChunkDataPtr chunk;
                try {
                    chunk = m_fetcher->get( i );
                } catch ( const FalseChunkEndError& ) {
                    falseBoundary = i + 1;
                    break;
                } catch ( const TruncatedStreamError& ) {
                    throw;  /* no merge can make the file longer */
                } catch ( const InvalidGzipStreamError& ) {
                    /* A bad chunk start; chunk 0 starts at the member's first
                     * Deflate byte, so there the end is the suspect. */
                    falseBoundary = std::max<std::size_t>( i, 1 );
                    break;
                } catch ( ... ) {
                    /* A transient failure (I/O, allocation, injected fault)
                     * leaves failed prefetches in the cache: let the next
                     * sweep start on a fresh fetcher. */
                    m_fetcher.reset();
                    throw;
                }
                if ( !verifier.consume( *chunk ) ) {
                    return poison();
                }
                sizes.push_back( chunk->data.size() );
                endedStream = chunk->reachedStreamEnd;
                if ( endedStream && m_markerDerived ) {
                    break;  /* later marker-derived checkpoints lie in trailing padding */
                }
            }
            if ( falseBoundary ) {
                if ( mergeFalseBoundary( *falseBoundary ) ) {
                    continue;
                }
                return poison();
            }
            if ( !endedStream ) {
                throw InvalidGzipStreamError(
                    "Gzip stream ended before the final Deflate block — truncated file" );
            }
            return recordChunkSizes( sizes );
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

    /** Fill the swept chunk sizes into the checkpoints' uncompressed offsets,
     * dropping checkpoints past the end of the stream. The fetcher decodes
     * from the same bit offsets, so it stays, cache and all; it stops at the
     * shortened table and forgets the sweep's access pattern, which would
     * otherwise skew its prefetch strategy for the reads that follow. */
    [[nodiscard]] std::size_t
    recordChunkSizes( const std::vector<std::size_t>& sizes )
    {
        m_fetcher->resetAccessPattern( sizes.size() );
        auto table = std::make_shared<GzipIndex>( *m_index );
        table->checkpoints.resize( sizes.size() );
        std::size_t offset = 0;
        for ( std::size_t i = 0; i < sizes.size(); ++i ) {
            table->checkpoints[i].uncompressedOffset = offset;
            offset += sizes[i];
        }
        table->uncompressedSizeBytes = offset;
        m_index = std::move( table );
        m_markerDerived = false;
        return offset;
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
        ensureFetcher();
        return true;
    }

    /** The chunked state cannot produce verified bytes for this stream; only
     * the serial path may answer from now on. */
    [[nodiscard]] std::optional<std::size_t>
    poison()
    {
        m_parallelResultUntrusted = true;
        m_fetcher.reset();
        return std::nullopt;
    }

    /** Make @p index the chunk table; the fetcher is rebuilt lazily on it. */
    void
    adoptIndex( std::shared_ptr<const GzipIndex> index, bool markerDerived = false )
    {
        m_index = std::move( index );
        m_markerDerived = markerDerived;
        /* A trustworthy index supersedes whatever chunking failed before. */
        m_parallelResultUntrusted = false;
        m_fetcher.reset();
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

    void
    ensureFetcher()
    {
        ensureChunkTable();
        if ( m_fetcher ) {
            return;
        }
        /* The table's bit offsets go into the shared-cache key, so readers of
         * one archive with different tables never share entries. */
        auto configuration = m_configuration;
        for ( const auto& checkpoint : m_index->checkpoints ) {
            configuration.cacheIdentity =
                mixHash( configuration.cacheIdentity ^ checkpoint.compressedOffsetBits );
        }
        /* The decoder callback runs on pool workers: it captures the
         * immutable table by shared_ptr and only uses const accessors. */
        auto decoder = [index = m_index] ( const FileReader& reader, std::size_t i ) {
            const auto& checkpoints = index->checkpoints;
            const auto startBits = checkpoints[i].compressedOffsetBits;
            const auto untilBits = i + 1 < checkpoints.size()
                                   ? checkpoints[i + 1].compressedOffsetBits
                                   : std::numeric_limits<std::size_t>::max();
            const auto window = index->windows.get( startBits );
            return GzipChunkFetcher::decodeChunkFromCheckpoint(
                reader, startBits, untilBits, { window.data(), window.size() } );
        };
        m_fetcher = std::make_unique<ChunkFetcher>(
            std::shared_ptr<const FileReader>( m_file->clone().release() ),
            m_index->checkpoints.size(), std::move( decoder ), configuration );
    }

    /** Make the checkpoints' uncompressed offsets trustworthy for
     * size()/read(): marker-derived ones run the footer-verified sweep. */
    void
    ensureOffsetsKnown()
    {
        ensureChunkTable();
        if ( m_markerDerived && !m_parallelResultUntrusted ) {
            (void)sweep();
        }
        if ( m_parallelResultUntrusted ) {
            throw RapidgzipError( "The parallel chunked decode cannot verify this stream; "
                                  "decompressAll() decodes it serially" );
        }
        ensureFetcher();
    }

    /**
     * The chunk walk under read() and readSpans(): from the current position
     * on, hand @p take each chunk holding it, the offset into the chunk and
     * the byte count to take, until @p size bytes or the end of the stream.
     * Returns the bytes walked.
     */
    template<typename Take>
    [[nodiscard]] std::size_t
    walkChunks( std::size_t size, const Take& take )
    {
        ensureOffsetsKnown();
        const auto& checkpoints = m_index->checkpoints;
        const auto totalSize = m_index->uncompressedSizeBytes;

        std::size_t produced = 0;
        while ( ( produced < size ) && ( m_position < totalSize ) ) {
            const auto next = std::upper_bound(
                checkpoints.begin(), checkpoints.end(), m_position,
                [] ( std::size_t position, const index::Checkpoint& checkpoint ) {
                    return position < checkpoint.uncompressedOffset;
                } );
            const auto chunkIndex = static_cast<std::size_t>(
                std::distance( checkpoints.begin(), next ) ) - 1U;
            const auto chunkBegin = checkpoints[chunkIndex].uncompressedOffset;
            const auto chunkEnd = next == checkpoints.end() ? totalSize : next->uncompressedOffset;
            const auto chunk = m_fetcher->get( chunkIndex );
            if ( chunk->data.size() != chunkEnd - chunkBegin ) {
                /* Only possible when an imported index misstates a chunk's
                 * uncompressed span — never with swept offsets. Both
                 * directions are corruption: overstated spans would read
                 * out of bounds, understated ones would return bytes from
                 * the wrong stream position. */
                throw RapidgzipError( "Chunk size disagrees with the gzip index — "
                                      "stale or corrupt index" );
            }
            const auto offsetInChunk = m_position - chunkBegin;
            const auto length = std::min( size - produced, chunk->data.size() - offsetInChunk );
            take( chunk, offsetInChunk, length );
            produced += length;
            m_position += length;
        }
        return produced;
    }

    [[nodiscard]] std::size_t
    serialDecompressCount()
    {
        return GzipChunkFetcher::decompressSerially( *m_file, m_configuration.chunkSizeBytes );
    }

    std::unique_ptr<SharedFileReader> m_file;
    ChunkFetcherConfiguration m_configuration;

    /** The chunk table: chunk i spans checkpoint i to checkpoint i + 1.
     * Shared with the fetcher's worker threads, so a change swaps in a new
     * table instead of modifying this one. */
    std::shared_ptr<const GzipIndex> m_index;
    /** The checkpoints are sync-marker guesses whose uncompressed offsets no
     * sweep has verified yet; only such checkpoints may be merged away. */
    bool m_markerDerived{ false };

    std::unique_ptr<ChunkFetcher> m_fetcher;
    std::size_t m_position{ 0 };
    /** Set when the chunked state cannot produce verified bytes for this
     * stream: only the serial path may answer. */
    bool m_parallelResultUntrusted{ false };
};

}  // namespace rapidgzip
