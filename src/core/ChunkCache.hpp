#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "../common/ThreadPool.hpp"
#include "DeflateChunks.hpp"

namespace rapidgzip {

/**
 * Identifies one decoded chunk across EVERY reader in the process. The
 * token folds together the archive identity (path + size + mtime hash, see
 * serve/ArchiveRegistry.hpp) and the reader's chunk-table geometry
 * (ChunkFetcher mixes in chunk count and chunk size; ChunkedReader first
 * folds a hash of its table's bit offsets, and a tag for rows a pass has yet
 * to check, into the identity), so a re-chunked reader — after an index
 * adoption, or a pass that harvested its table — can never hit entries from
 * the stale table, and two readers share entries exactly when their decodes
 * are byte-identical.
 */
struct ChunkCacheKey
{
    std::uint64_t token{ 0 };
    std::size_t chunkIndex{ 0 };

    [[nodiscard]] bool
    operator==( const ChunkCacheKey& other ) const noexcept
    {
        return ( token == other.token ) && ( chunkIndex == other.chunkIndex );
    }

    [[nodiscard]] bool
    operator<( const ChunkCacheKey& other ) const noexcept
    {
        return token != other.token ? token < other.token : chunkIndex < other.chunkIndex;
    }
};

/** splitmix64 finalizer — the standard cheap 64-bit bit mixer. */
[[nodiscard]] constexpr std::uint64_t
mixHash( std::uint64_t value ) noexcept
{
    value += 0x9E3779B97F4A7C15ULL;
    value = ( value ^ ( value >> 30U ) ) * 0xBF58476D1CE4E5B9ULL;
    value = ( value ^ ( value >> 27U ) ) * 0x94D049BB133111EBULL;
    return value ^ ( value >> 31U );
}

struct ChunkCacheStatistics
{
    std::size_t hits{ 0 };
    std::size_t misses{ 0 };
    std::size_t insertions{ 0 };
    std::size_t evictions{ 0 };
    /** Inserts skipped because one chunk alone exceeds the byte budget. */
    std::size_t oversizedRejections{ 0 };
    std::size_t currentBytes{ 0 };
    std::size_t capacityBytes{ 0 };

    [[nodiscard]] double
    hitRate() const noexcept
    {
        const auto total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>( hits ) / static_cast<double>( total );
    }
};

/**
 * A borrowed view into decoded bytes whose lifetime is pinned by @p owner —
 * the vocabulary type of the zero-copy response path. Spans lent out of
 * cached chunks stay valid across LRU eviction: eviction only drops the
 * CACHE's shared_ptr to the DecodedChunk, while every outstanding span
 * holds its own owner reference, so the bytes are freed exactly when the
 * last in-flight consumer (e.g. a socket write) releases them.
 */
struct OwnedSpan
{
    std::shared_ptr<const void> owner;
    const std::uint8_t* data{ nullptr };
    std::size_t size{ 0 };
    /** True when @p data points into memory owned elsewhere (a cached
     * chunk) rather than a private copy made for this span — the
     * zero-copy/range-copy accounting bit. */
    bool borrowed{ false };
};

/** Lend [offsetInChunk, offsetInChunk + size) of @p chunk as a borrowed
 * span. The span shares ownership of the whole chunk (aliasing-style), so
 * the window stays valid for the span's lifetime regardless of cache
 * eviction. */
[[nodiscard]] inline OwnedSpan
lendChunkSpan( std::shared_ptr<const DecodedChunk> chunk,
               std::size_t offsetInChunk,
               std::size_t size )
{
    OwnedSpan span;
    span.data = chunk->data.data() + offsetInChunk;
    span.size = size;
    span.borrowed = true;
    span.owner = std::move( chunk );
    return span;
}

/**
 * Thread-safe byte-bounded LRU over decoded chunks with single-flight
 * decode dedup: the process-wide cache tier of the serve daemon, and its
 * one decode pool. Every ChunkFetcher on the tier decodes through
 * decodeAsync(), so readers on the tier own no threads: the pool has
 * hardware_concurrency() threads, started by its first task, so a tier
 * that never decodes starts none. Eviction is strictly
 * least-recently-used and never lets the resident total exceed the byte
 * budget; a chunk larger than the whole budget is returned to the caller
 * but not retained (caching it would evict everything for one entry), and
 * so is a chunk of stage-one output (DecodedChunk::guess, not exact): its
 * 16-bit segment lies outside the `data` the budget charges, and only the
 * stitch of its own pass turns it into stream bytes.
 */
class LruChunkCache
{
public:
    using ChunkDataPtr = std::shared_ptr<const DecodedChunk>;
    using Decode = std::function<ChunkDataPtr()>;

    /** Rough per-entry bookkeeping cost charged on top of the chunk data. */
    static constexpr std::size_t PER_ENTRY_OVERHEAD = 256;

    explicit LruChunkCache( std::size_t capacityBytes ) :
        m_capacityBytes( capacityBytes )
    {}

    /** nullptr on miss. A hit refreshes the entry's recency and counts; a
     * miss counts unless @p countMiss is false, for a lookup whose caller
     * repeats it where it may wait for the decode. */
    [[nodiscard]] ChunkDataPtr
    get( const ChunkCacheKey& key, bool countMiss = true )
    {
        const std::lock_guard<std::mutex> lock( m_mutex );
        auto chunk = lockedFind( key );
        if ( chunk ) {
            ++m_statistics.hits;
        } else if ( countMiss ) {
            ++m_statistics.misses;
        }
        return chunk;
    }

    /** Whether @p key is resident; a resident entry's recency is refreshed.
     * Counts neither a hit nor a miss: no chunk is handed out. */
    [[nodiscard]] bool
    refresh( const ChunkCacheKey& key )
    {
        const std::lock_guard<std::mutex> lock( m_mutex );
        return lockedFind( key ) != nullptr;
    }

    [[nodiscard]] ChunkCacheStatistics
    statistics() const
    {
        const std::lock_guard<std::mutex> lock( m_mutex );
        auto result = m_statistics;
        result.currentBytes = m_currentBytes;
        result.capacityBytes = m_capacityBytes;
        return result;
    }

    /**
     * Cache-through decode: concurrent callers of the same cold key decode
     * exactly once. @p decode may throw; the error propagates to every
     * waiting caller.
     */
    [[nodiscard]] ChunkDataPtr
    getOrDecode( const ChunkCacheKey& key, const Decode& decode )
    {
        auto promise = std::make_shared<std::promise<ChunkDataPtr> >();
        std::shared_future<ChunkDataPtr> pending;
        {
            const std::lock_guard<std::mutex> lock( m_mutex );
            if ( auto chunk = lockedFind( key ) ) {
                ++m_statistics.hits;
                return chunk;
            }
            ++m_statistics.misses;
            if ( const auto match = m_inFlight.find( key ); match != m_inFlight.end() ) {
                /* Another thread is decoding this key right now: wait for
                 * ITS result instead of decoding again. Counted as a hit —
                 * no second decode happens. */
                ++m_statistics.hits;
                pending = match->second;
            } else {
                m_inFlight.emplace( key, promise->get_future().share() );
            }
        }
        if ( pending.valid() ) {
            return pending.get();
        }

        /* This thread won the single-flight race: decode OUTSIDE the lock. */
        ChunkDataPtr chunk;
        try {
            chunk = decode();
        } catch ( ... ) {
            promise->set_exception( std::current_exception() );
            const std::lock_guard<std::mutex> lock( m_mutex );
            m_inFlight.erase( key );
            throw;
        }
        {
            const std::lock_guard<std::mutex> lock( m_mutex );
            lockedInsert( key, chunk );
            m_inFlight.erase( key );
        }
        promise->set_value( chunk );
        return chunk;
    }

    /** getOrDecode( @p key, @p decode ) on the tier's decode pool. */
    [[nodiscard]] std::future<ChunkDataPtr>
    decodeAsync( const ChunkCacheKey& key, Decode decode )
    {
        std::call_once( m_poolStarted, [this] () {
            m_pool.emplace( std::thread::hardware_concurrency() );  /* 0 (unknown) starts one */
        } );
        /* The task holds the tier by raw pointer: the pool's destructor
         * joins it before the tier goes, and a task that held the tier's
         * last reference would have to join its own pool. */
        return m_pool->submit( [this, key, decode = std::move( decode )] () {
            return getOrDecode( key, decode );
        } );
    }

private:
    [[nodiscard]] static std::size_t
    chargedBytes( const ChunkDataPtr& chunk ) noexcept
    {
        return ( chunk ? chunk->data.size() : 0 ) + PER_ENTRY_OVERHEAD;
    }

    /** Caller must hold m_mutex. The resident chunk, moved to the LRU front;
     * counts nothing. */
    [[nodiscard]] ChunkDataPtr
    lockedFind( const ChunkCacheKey& key )
    {
        const auto match = m_index.find( key );
        if ( match == m_index.end() ) {
            return nullptr;
        }
        m_lru.splice( m_lru.begin(), m_lru, match->second );
        return match->second->second;
    }

    /** Caller must hold m_mutex. */
    void
    lockedInsert( const ChunkCacheKey& key, ChunkDataPtr chunk )
    {
        if ( chunk && chunk->guess && !chunk->guess->exact ) {
            return;
        }
        if ( const auto existing = m_index.find( key ); existing != m_index.end() ) {
            /* Refresh in place; sizes are identical for identical keys. */
            m_lru.splice( m_lru.begin(), m_lru, existing->second );
            return;
        }
        const auto bytes = chargedBytes( chunk );
        if ( bytes > m_capacityBytes ) {
            ++m_statistics.oversizedRejections;
            return;
        }
        while ( m_currentBytes + bytes > m_capacityBytes ) {
            const auto& victim = m_lru.back();
            m_currentBytes -= chargedBytes( victim.second );
            m_index.erase( victim.first );
            m_lru.pop_back();
            ++m_statistics.evictions;
        }
        m_lru.emplace_front( key, std::move( chunk ) );
        m_index.emplace( key, m_lru.begin() );
        m_currentBytes += bytes;
        ++m_statistics.insertions;
    }

    using LruList = std::list<std::pair<ChunkCacheKey, ChunkDataPtr> >;

    mutable std::mutex m_mutex;
    LruList m_lru;  /**< most recent first */
    std::map<ChunkCacheKey, LruList::iterator> m_index;
    std::map<ChunkCacheKey, std::shared_future<ChunkDataPtr> > m_inFlight;
    std::size_t m_currentBytes{ 0 };
    std::size_t m_capacityBytes;
    ChunkCacheStatistics m_statistics;

    std::once_flag m_poolStarted;
    /* Pool last: its destructor runs first, joining every task before the
     * members above go. */
    std::optional<ThreadPool> m_pool;
};

}  // namespace rapidgzip
