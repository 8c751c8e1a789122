#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../index/Checkpoint.hpp"
#include "../io/FileReader.hpp"
#include "ChunkFetcher.hpp"

namespace rapidgzip {

/** Chunk i starts at checkpoints[i] and ends where chunk i + 1 starts; the
 * last chunk ends at the end of the stream. */
struct ChunkTable
{
    std::vector<index::Checkpoint> checkpoints;
    /** Total uncompressed size. Without @ref sized, neither it nor the
     * checkpoints' uncompressed offsets are known yet. */
    std::size_t size{ 0 };
    bool sized{ false };
};

/**
 * The one chunked reader under every format (paper §3): a chunk table, the
 * ChunkFetcher that decodes, caches and prefetches its chunks on a thread
 * pool, one ordered pass (under every sweep that measures or verifies a
 * table, gzip's stitched pass included), and one walk from uncompressed
 * offsets to chunks behind readAt() and readSpansAt(). The formats build
 * tables on top of it: gzip hands it index checkpoints, or restart points
 * and guessed rows that its pass checks; zstd, lz4 and bzip2 hand it their
 * frames or blocks grouped into chunks.
 *
 * Thread model: a table builder establishes or changes the table under
 * lock(). The builder given to the constructor runs there when a read finds
 * no table with known sizes. The table and its fetcher are published
 * together as one immutable object, so a read in flight keeps its own table
 * and fetcher alive across any later change. Once a sized table is
 * published, size(), readAt() and readSpansAt() take no lock of this
 * reader's; they only call ChunkFetcher::get, which locks its own cache.
 * Reads may be called from many threads at once; the table-building methods
 * require lock(). A read with Wait::NEVER never takes lock(): before the
 * sized table and its fetcher are published it answers nothing.
 */
class ChunkedReader
{
public:
    using ChunkDecoder = ChunkFetcher::ChunkDecoder;
    /** Publishes a sized table, or throws. Runs under lock(). */
    using TableBuilder = std::function<void()>;

    ChunkedReader( std::shared_ptr<const FileReader> file,
                   ChunkFetcherConfiguration configuration,
                   TableBuilder buildTable ) :
        m_file( std::move( file ) ),
        m_configuration( std::move( configuration ) ),
        m_buildTable( std::move( buildTable ) )
    {}

    /* --- reads: lock-free once a sized table is published ---------------- */

    [[nodiscard]] std::size_t
    size()
    {
        return *size( Wait::ALLOWED );
    }

    /** The total size; std::nullopt with Wait::NEVER before it is known. */
    [[nodiscard]] std::optional<std::size_t>
    size( Wait wait )
    {
        const auto state = published( wait );
        return state ? std::optional<std::size_t>( state->table.size ) : std::nullopt;
    }

    /** The sized table. */
    [[nodiscard]] ChunkTable
    table()
    {
        return published( Wait::ALLOWED )->table;
    }

    /** Copy up to @p size bytes at uncompressed @p offset into @p buffer.
     * Returns the bytes copied (short only at the end of the stream). */
    [[nodiscard]] std::size_t
    readAt( std::size_t offset, std::uint8_t* buffer, std::size_t size )
    {
        return walk( offset, size, Wait::ALLOWED, [&buffer] ( const ChunkFetcher::ChunkDataPtr& chunk,
                                                              std::size_t offsetInChunk, std::size_t length ) {
            std::memcpy( buffer, chunk->data.data() + offsetInChunk, length );
            buffer += length;
        } );
    }

    /** Zero-copy variant of readAt(): lends refcounted spans straight out of
     * the decoded chunks. Each span keeps its whole chunk alive, so the bytes
     * stay valid past cache eviction for as long as the caller holds the
     * span. Returns the bytes appended: short at the end of the stream, and
     * with Wait::NEVER also before the first chunk that is not decoded. */
    [[nodiscard]] std::size_t
    readSpansAt( std::size_t offset, std::size_t size, std::vector<OwnedSpan>& spans,
                 Wait wait = Wait::ALLOWED )
    {
        return walk( offset, size, wait, [&spans] ( const ChunkFetcher::ChunkDataPtr& chunk,
                                                    std::size_t offsetInChunk, std::size_t length ) {
            spans.push_back( lendChunkSpan( chunk, offsetInChunk, length ) );
        } );
    }

    /* --- table building: the caller holds lock() -------------------------- */

    [[nodiscard]] std::unique_lock<std::mutex>
    lock()
    {
        return std::unique_lock<std::mutex>( m_mutex );
    }

    /** The table as it stands, sized or not; empty before the first
     * publish(). */
    [[nodiscard]] const ChunkTable&
    current() const
    {
        static const ChunkTable empty{};
        return m_state ? m_state->table : empty;
    }

    /** Make @p checkpoints the table, decoded by @p decoder: sized with the
     * total @p size, or awaiting a pass when @p size is std::nullopt. The
     * fetcher is built when a read or pass first needs it. The chunks of
     * an @p unverified table, which a pass still checks, may be no stream
     * bytes: the shared cache keys them apart from every other table's. A
     * constructor, which owns the reader alone, may call this without
     * lock(). */
    void
    publish( std::vector<index::Checkpoint> checkpoints,
             std::optional<std::size_t> size,
             ChunkDecoder decoder,
             bool unverified = false )
    {
        store( { ChunkTable{ std::move( checkpoints ), size.value_or( 0 ), size.has_value() },
                 std::move( decoder ), {}, unverified } );
    }

    /** Drop the fetcher, with its cache and any failed prefetches. */
    void
    reset()
    {
        auto state = *m_state;
        state.fetcher.reset();
        store( std::move( state ) );
    }

    /**
     * Adopt the uncompressed offsets of @p checkpoints, exported from this
     * table earlier (a sidecar index), instead of sweeping for them. Every
     * compressed offset must match the table's, and a sized table must agree
     * with every offset and with @p size. Returns false, leaving the table as
     * it was, when they do not.
     */
    [[nodiscard]] bool
    adopt( const std::vector<index::Checkpoint>& checkpoints, std::size_t size )
    {
        const auto& table = current();
        if ( checkpoints.empty() || ( checkpoints.size() != table.checkpoints.size() )
             || ( checkpoints.front().uncompressedOffset != 0 )
             || ( size < checkpoints.back().uncompressedOffset ) ) {
            return false;
        }
        for ( std::size_t i = 0; i < checkpoints.size(); ++i ) {
            if ( ( checkpoints[i].compressedOffsetBits != table.checkpoints[i].compressedOffsetBits )
                 || ( ( i > 0 ) && ( checkpoints[i].uncompressedOffset
                                     < checkpoints[i - 1].uncompressedOffset ) ) ) {
                return false;
            }
        }
        if ( table.sized ) {
            return ( checkpoints == table.checkpoints ) && ( size == table.size );
        }
        auto state = *m_state;
        state.table = { checkpoints, size, true };
        store( std::move( state ) );
        return true;
    }

    /**
     * The ordered pass: decode the table's chunks in order through the
     * fetcher and hand each to @p hook( index, chunk ) until the hook
     * returns false or the table ends. A pass is known to be one before its
     * first access, so from chunk 0 on the fetcher keeps max(2P, 4) chunks
     * decoding ahead while the hook runs. It publishes nothing; a failing
     * decode or hook propagates. Returns the chunks handed to the hook.
     */
    template<typename Hook>
    std::size_t
    pass( const Hook& hook )
    {
        const auto state = withFetcher();
        std::size_t count = 0;
        while ( count < state->table.checkpoints.size() ) {
            const auto chunk = state->fetcher->get( count, ChunkFetcher::Access::ORDERED_PASS );
            if ( !hook( count++, *chunk ) ) {
                break;
            }
        }
        return count;
    }

    /**
     * The ordered sweep: a pass() whose measured chunk sizes publishSizes()
     * makes the table's uncompressed offsets. @p hook returns false when its
     * chunk ends the stream. A failing decode or hook propagates and leaves
     * the table as it was. Returns the total uncompressed size.
     */
    template<typename Hook>
    std::size_t
    sweep( const Hook& hook )
    {
        std::vector<std::size_t> sizes;
        (void)pass( [&] ( std::size_t i, const DecodedChunk& chunk ) {
            sizes.push_back( chunk.data.size() );
            return hook( i, chunk );
        } );
        return publishSizes( sizes );
    }

    /**
     * Publish @p chunkSizes, the sizes a pass measured for the table's first
     * chunks, as the uncompressed offsets; the chunks after them lie past
     * the end of the stream and leave the table. The fetcher stays, so the
     * pass's tail serves the reads that follow, and its sequential streak
     * starts afresh, so those reads are prefetched as they would be on a
     * reader that never swept. Returns the total uncompressed size.
     */
    std::size_t
    publishSizes( const std::vector<std::size_t>& chunkSizes )
    {
        const auto state = withFetcher();
        auto table = state->table;
        table.checkpoints.resize( chunkSizes.size() );
        std::size_t offset = 0;
        for ( std::size_t i = 0; i < chunkSizes.size(); ++i ) {
            table.checkpoints[i].uncompressedOffset = offset;
            offset += chunkSizes[i];
        }
        table.size = offset;
        table.sized = true;
        state->fetcher->resetAccessPattern( chunkSizes.size() );
        store( { std::move( table ), state->decoder, state->fetcher, state->unverified } );
        return offset;
    }

private:
    struct State
    {
        ChunkTable table;
        ChunkDecoder decoder;
        std::shared_ptr<ChunkFetcher> fetcher;
        bool unverified{ false };
    };

    void
    store( State state )
    {
        std::atomic_store( &m_state, std::shared_ptr<const State>(
                                         std::make_shared<State>( std::move( state ) ) ) );
    }

    /** The current state with its fetcher, built on first need. Caller holds
     * lock() and has published a table. */
    [[nodiscard]] std::shared_ptr<const State>
    withFetcher()
    {
        if ( !m_state->fetcher ) {
            /* The table's bit offsets go into the shared-cache key, so readers
             * of one archive with different tables never share entries. */
            auto configuration = m_configuration;
            if ( m_state->unverified ) {
                configuration.cacheIdentity = mixHash( ~configuration.cacheIdentity );
            }
            for ( const auto& checkpoint : m_state->table.checkpoints ) {
                configuration.cacheIdentity =
                    mixHash( configuration.cacheIdentity ^ checkpoint.compressedOffsetBits );
            }
            auto state = *m_state;
            state.fetcher = std::make_shared<ChunkFetcher>(
                m_file, state.table.checkpoints.size(), state.decoder, configuration );
            store( std::move( state ) );
        }
        return m_state;
    }

    /** The published sized table with its fetcher; the first call runs the
     * table builder. With Wait::NEVER, nullptr until both are published. */
    [[nodiscard]] std::shared_ptr<const State>
    published( Wait wait )
    {
        if ( auto state = std::atomic_load( &m_state );
             state && state->table.sized && state->fetcher ) {
            return state;
        }
        if ( wait == Wait::NEVER ) {
            return nullptr;
        }
        const std::lock_guard<std::mutex> guard( m_mutex );
        if ( !m_state || !m_state->table.sized ) {
            m_buildTable();
            if ( !m_state || !m_state->table.sized ) {
                throw RapidgzipError( "The chunk table builder published no chunk sizes" );
            }
        }
        return withFetcher();
    }

    /**
     * The one offset-to-chunk walk: from @p offset on, hand @p take each
     * chunk holding it, the offset into the chunk and the byte count to
     * take, until @p size bytes or the end of the stream. With Wait::NEVER
     * it walks only when a cache tier holds every chunk of the range, so it
     * does not give up halfway, after its first accesses counted and
     * prefetched; it still stops before a chunk that another thread evicted
     * meanwhile. Returns the bytes walked.
     */
    template<typename Take>
    [[nodiscard]] std::size_t
    walk( std::size_t offset, std::size_t size, Wait wait, const Take& take )
    {
        const auto state = published( wait );
        if ( !state ) {
            return 0;
        }
        const auto& checkpoints = state->table.checkpoints;
        const auto totalSize = state->table.size;
        const auto end = offset < totalSize ? offset + std::min( size, totalSize - offset ) : offset;

        /* Hands visit( index, chunkBegin, chunkEnd ) each chunk holding bytes
         * of [offset, end) until it returns false. */
        const auto forEachChunk = [&] ( const auto& visit ) {
            for ( auto position = offset; position < end; ) {
                const auto next = std::upper_bound(
                    checkpoints.begin(), checkpoints.end(), position,
                    [] ( std::size_t value, const index::Checkpoint& checkpoint ) {
                        return value < checkpoint.uncompressedOffset;
                    } );
                const auto chunkIndex = static_cast<std::size_t>(
                    std::distance( checkpoints.begin(), next ) ) - 1U;
                const auto chunkEnd = next == checkpoints.end() ? totalSize : next->uncompressedOffset;
                if ( !visit( chunkIndex, checkpoints[chunkIndex].uncompressedOffset, chunkEnd ) ) {
                    return false;
                }
                position = chunkEnd;
            }
            return true;
        };

        if ( ( wait == Wait::NEVER )
             && !forEachChunk( [&state] ( std::size_t chunkIndex, std::size_t, std::size_t ) {
                    return state->fetcher->holds( chunkIndex );
                } ) ) {
            return 0;
        }

        std::size_t produced = 0;
        (void)forEachChunk( [&] ( std::size_t chunkIndex, std::size_t chunkBegin, std::size_t chunkEnd ) {
            const auto chunk = state->fetcher->get( chunkIndex, ChunkFetcher::Access::READ, wait );
            if ( !chunk ) {
                return false;
            }
            if ( chunk->data.size() != chunkEnd - chunkBegin ) {
                /* Only possible when an imported index or a sidecar misstates
                 * a chunk's span, never with swept offsets. Both directions
                 * are corruption: an overstated span would read out of
                 * bounds, an understated one would return bytes from the
                 * wrong stream position. */
                throw RapidgzipError( "Chunk size disagrees with the chunk table — "
                                      "stale or corrupt index" );
            }
            const auto first = std::max( offset, chunkBegin );
            const auto length = std::min( end, chunkEnd ) - first;
            take( chunk, first - chunkBegin, length );
            produced += length;
            return true;
        } );
        return produced;
    }

    const std::shared_ptr<const FileReader> m_file;
    const ChunkFetcherConfiguration m_configuration;
    const TableBuilder m_buildTable;

    std::mutex m_mutex;
    /** Replaced only under m_mutex, read lock-free with std::atomic_load. */
    std::shared_ptr<const State> m_state;
};

}  // namespace rapidgzip
