#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "../common/ThreadPool.hpp"
#include "../common/Util.hpp"
#include "../failsafe/FaultInjection.hpp"
#include "../io/FileReader.hpp"
#include "../telemetry/Registry.hpp"
#include "../telemetry/Trace.hpp"
#include "ChunkCache.hpp"
#include "DeflateChunks.hpp"

namespace rapidgzip {

/**
 * Configuration for the parallel chunk fetcher (paper §3.2). After each read,
 * whose pattern the fetcher can only guess, it prefetches the next
 * min(parallelism, 2^streak) chunks, where the streak counts consecutive
 * sequential accesses: cheap for random access, full depth for linear
 * scans. A repeated access to the same chunk leaves the streak alone, and
 * any other jump resets it.
 *
 * An ordered pass over every chunk (ChunkedReader::pass) is known to be one
 * before its first access, so it keeps the next max(2 * parallelism, 4)
 * chunks decoding from that first access on and leaves the streak alone.
 * The cache holds that look-ahead plus the chunk in use:
 * max(2 * parallelism + 4, 8) chunks.
 */
struct ChunkFetcherConfiguration
{
    /** The prefetch depth above and, without @ref sharedCache, the thread
     * count of the reader's own decode pool. */
    std::size_t parallelism{ std::max<std::size_t>( 1, std::thread::hardware_concurrency() ) };
    std::size_t chunkSizeBytes{ 4 * MiB };
    /**
     * Optional process-wide cache tier (serve daemon). When set, decodes
     * run on the tier's one decode pool through LruChunkCache::getOrDecode —
     * the reader starts no threads, and concurrent requests for the same
     * cold chunk decode once — and an access that finds its
     * per-reader entry decoded drops the entry, so later accesses are served
     * by the shared tier. That access is the first one for a prefetch that
     * finished in time, but the second one for an on-demand decode, whose
     * own access found it still decoding: each reader can hold up to
     * max(2 * parallelism + 4, 8) decoded chunks outside the shared budget.
     * A prefetch of a chunk the shared tier holds refreshes its recency and
     * starts no decode. When unset (the default), behavior is exactly the
     * classic per-reader cache.
     */
    std::shared_ptr<LruChunkCache> sharedCache{};
    /**
     * Folded into every shared-cache key; must uniquely identify the
     * compressed archive (e.g. hash of path + size + mtime). Readers of the
     * same archive with the same chunking share entries; anything else can
     * never collide. Ignored without @ref sharedCache.
     */
    std::uint64_t cacheIdentity{ 0 };
};

/** Whether a read may wait: for a chunk decode, for a table build, or for a
 * lock held across either. A read with NEVER that would wait answers nothing
 * instead; the chunk access that gives up has counted nothing and started
 * nothing. */
enum class Wait
{
    ALLOWED,
    NEVER,
};

/**
 * Decodes the chunks of a chunk table on a thread pool (the shared tier's,
 * or else its own), caches the results, and prefetches by the rule above.
 * Every public method is safe to call from many threads: the cache and the
 * access pattern sit behind one mutex, which get() releases while it waits
 * for a decode. Each prefetch, consumption, on-demand decode, cache hit and
 * wasted prefetch is counted once, in the telemetry registry.
 */
class ChunkFetcher
{
public:
    using ChunkDataPtr = std::shared_ptr<const DecodedChunk>;
    /** Decodes chunk @p index of the stream; must be const-thread-safe (it
     * runs concurrently on the pool workers). */
    using ChunkDecoder = std::function<DecodedChunk( const FileReader&, std::size_t index )>;

    /** @p decoder owns the mapping from chunk index to compressed span. */
    ChunkFetcher( std::shared_ptr<const FileReader> file,
                  std::size_t chunkCount,
                  ChunkDecoder decoder,
                  const ChunkFetcherConfiguration& configuration ) :
        m_file( std::move( file ) ),
        m_chunkCount( chunkCount ),
        m_decoder( std::move( decoder ) ),
        m_configuration( configuration ),
        m_cacheCapacity( std::max<std::size_t>( 2 * configuration.parallelism + 4, 8 ) ),
        m_cacheToken( makeCacheToken( configuration, m_chunkCount ) )
    {
        if ( !m_configuration.sharedCache ) {
            m_threadPool.emplace( std::max<std::size_t>( 1, configuration.parallelism ) );
        }
    }

    /** What an access tells the fetcher about the accesses after it. */
    enum class Access
    {
        READ,          /**< prefetch by the sequential streak */
        ORDERED_PASS,  /**< part of a pass over every chunk in order */
    };

    /**
     * Blocking chunk access; dispatches the prefetches @p access asks for.
     * With Wait::NEVER it returns nullptr unless a cache tier holds the chunk
     * decoded; a decoded failure counts as not held, so the next access that
     * may wait evicts and re-decodes it.
     */
    [[nodiscard]] ChunkDataPtr
    get( std::size_t index, Access access = Access::READ, Wait wait = Wait::ALLOWED )
    {
        std::shared_future<ChunkDataPtr> future;
        {
            const std::lock_guard<std::mutex> lock( m_mutex );
            const auto match = m_cache.find( index );
            ChunkDataPtr sharedChunk;
            if ( ( match == m_cache.end() ) && m_configuration.sharedCache ) {
                sharedChunk = m_configuration.sharedCache->get( cacheKey( index ),
                                                                /* countMiss */ wait == Wait::ALLOWED );
            }
            if ( ( wait == Wait::NEVER )
                 && ( match == m_cache.end() ? !sharedChunk : !holdsChunk( match->second.future ) ) ) {
                return nullptr;
            }
            ++m_accessClock;

            if ( match != m_cache.end() ) {
                match->second.lastUse = m_accessClock;
                if ( match->second.prefetched && !match->second.counted ) {
                    match->second.counted = true;
                    RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_prefetch_consumed_total",
                                               "Chunk accesses served by a speculative decode.", 1 );
                } else {
                    RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_cache_hits_total",
                                               "Repeat chunk accesses served from a cache tier.", 1 );
                }
                future = match->second.future;
                if ( m_configuration.sharedCache
                     && ( future.wait_for( std::chrono::seconds( 0 ) )
                          == std::future_status::ready ) ) {
                    /* Shared-tier mode: an access that finds the entry
                     * decoded drops it, so repeats are served (and
                     * accounted) by the shared tier, where residency is
                     * byte-bounded. */
                    m_cache.erase( match );
                }
            } else if ( sharedChunk ) {
                RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_cache_hits_total",
                                           "Repeat chunk accesses served from a cache tier.", 1 );
                dispatchPrefetches( index, access );
                evictStaleEntries( index );
                return sharedChunk;
            } else {
                RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_on_demand_decodes_total",
                                           "Chunk accesses that had to decode synchronously.", 1 );
                future = insertDecodeTask( index, /* prefetched */ false );
            }

            dispatchPrefetches( index, access );
            evictStaleEntries( index );
        }
        telemetry::Span waitSpan{ "pipeline", "chunk.wait" };
        try {
            return future.get();
        } catch ( ... ) {
            /* Evict the poisoned future so a later access re-decodes
             * instead of replaying the cached failure forever. The entry
             * may already be gone (shared-tier drop, eviction); erasing a
             * ready entry that was concurrently re-decoded only drops a
             * per-reader bridge entry, never shared-tier residency. */
            const std::lock_guard<std::mutex> lock( m_mutex );
            if ( const auto match = m_cache.find( index );
                 ( match != m_cache.end() )
                 && ( match->second.future.wait_for( std::chrono::seconds( 0 ) )
                      == std::future_status::ready ) ) {
                m_cache.erase( match );
            }
            throw;
        }
    }

    /**
     * Whether a cache tier holds chunk @p index decoded, so that get() with
     * Wait::NEVER would return it. Counts nothing and starts nothing; a held
     * chunk counts as used now in the tier that holds it, so the access that
     * follows finds it there.
     */
    [[nodiscard]] bool
    holds( std::size_t index )
    {
        const std::lock_guard<std::mutex> lock( m_mutex );
        if ( const auto match = m_cache.find( index ); match != m_cache.end() ) {
            match->second.lastUse = m_accessClock;
            return holdsChunk( match->second.future );
        }
        return m_configuration.sharedCache && m_configuration.sharedCache->refresh( cacheKey( index ) );
    }

    /**
     * Serve only the first @p chunkCount chunks from now on, and start the
     * sequential streak afresh; cached chunks stay. For an owner whose
     * ordered pass over the chunks found the rest to be past the end of the
     * stream, and whose later reads should not be prefetched as a
     * continuation of that pass or of reads made during it.
     */
    void
    resetAccessPattern( std::size_t chunkCount )
    {
        const std::lock_guard<std::mutex> lock( m_mutex );
        m_chunkCount = std::min( m_chunkCount, chunkCount );
        m_lastAccess = SIZE_MAX;
        m_sequentialStreak = 0;
    }

private:
    struct CacheEntry
    {
        std::shared_future<ChunkDataPtr> future;
        std::uint64_t lastUse{ 0 };
        bool prefetched{ false };
        bool counted{ false };
    };

    [[nodiscard]] ChunkCacheKey
    cacheKey( std::size_t index ) const noexcept
    {
        return { m_cacheToken, index };
    }

    /** Whether @p future is decoded to a chunk rather than still decoding
     * or failed. */
    [[nodiscard]] static bool
    holdsChunk( const std::shared_future<ChunkDataPtr>& future )
    {
        if ( future.wait_for( std::chrono::seconds( 0 ) ) != std::future_status::ready ) {
            return false;
        }
        try {
            (void)future.get();
            return true;
        } catch ( ... ) {
            return false;
        }
    }

    [[nodiscard]] static std::uint64_t
    makeCacheToken( const ChunkFetcherConfiguration& configuration, std::size_t chunkCount )
    {
        /* Chunk-table geometry is folded in so a re-chunked reader — e.g.
         * one that adopted the index its pass harvested — can never hit
         * entries keyed under the stale table. */
        return mixHash( configuration.cacheIdentity )
               ^ mixHash( static_cast<std::uint64_t>( chunkCount ) << 8U )
               ^ mixHash( configuration.chunkSizeBytes );
    }

    static void
    countDecodeFailure()
    {
        RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_decode_failures_total",
                                   "Chunk decodes that failed permanently (post-retry).", 1 );
    }

    /** Caller must hold m_mutex. */
    std::shared_future<ChunkDataPtr>
    insertDecodeTask( std::size_t index, bool prefetched )
    {
        std::function<ChunkDataPtr()> decode =
            [file = m_file, decoder = m_decoder, index] () -> ChunkDataPtr {
                return std::make_shared<const DecodedChunk>( decoder( *file, index ) );
            };
        /* Two transient retries around the decode itself (inside the
         * shared-cache single-flight wrapper below, so waiters of one
         * in-flight decode benefit from its retries too). Transient =
         * I/O errors, allocation failure, injected faults; each retry backs
         * off exponentially. Genuine data corruption fails identically every
         * time, so it propagates on the first attempt instead of burning
         * more decodes. A failure that survives the retries is permanent for
         * that get(): the poisoned future is evicted, so a later access
         * re-decodes from scratch. */
        decode = [inner = std::move( decode )] () -> ChunkDataPtr {
            constexpr unsigned RETRIES = 2;
            for ( unsigned attempt = 0; ; ++attempt ) {
                try {
                    failsafe::maybeFailAllocation();
                    if ( failsafe::shouldInject( failsafe::FaultPoint::CHUNK_DECODE ) ) {
                        throw failsafe::FaultInjectedError( "chunk decode" );
                    }
                    return inner();
                } catch ( const failsafe::FaultInjectedError& ) {
                    if ( attempt >= RETRIES ) { countDecodeFailure(); throw; }
                } catch ( const FileIoError& ) {
                    if ( attempt >= RETRIES ) { countDecodeFailure(); throw; }
                } catch ( const std::bad_alloc& ) {
                    if ( attempt >= RETRIES ) { countDecodeFailure(); throw; }
                } catch ( ... ) {
                    countDecodeFailure();
                    throw;  /* deterministic (corruption etc.) — retries cannot help */
                }
                RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_decode_retries_total",
                                           "Transient chunk-decode failures retried in place.", 1 );
                io::transientBackoff( attempt );
            }
        };
        auto future = ( m_configuration.sharedCache
                        ? m_configuration.sharedCache->decodeAsync( cacheKey( index ), std::move( decode ) )
                        : m_threadPool->submit( std::move( decode ) ) ).share();
        CacheEntry entry;
        entry.future = future;
        entry.lastUse = m_accessClock;
        entry.prefetched = prefetched;
        m_cache.emplace( index, std::move( entry ) );
        return future;
    }

    /** Caller must hold m_mutex. A chunk already cached counts as used now,
     * so the LRU keeps a look-ahead's ready prefetches until they are
     * consumed; it ages every other chunk from its last access. A chunk the
     * shared tier holds needs no task: the access finds it there. */
    void
    prefetch( std::size_t index )
    {
        if ( index >= m_chunkCount ) {
            return;
        }
        if ( const auto match = m_cache.find( index ); match != m_cache.end() ) {
            match->second.lastUse = m_accessClock;
            return;
        }
        if ( m_configuration.sharedCache && m_configuration.sharedCache->refresh( cacheKey( index ) ) ) {
            return;
        }
        RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_prefetch_issued_total",
                                   "Speculative chunk decodes submitted to the pool.", 1 );
        (void)insertDecodeTask( index, /* prefetched */ true );
    }

    /** Caller must hold m_mutex. */
    void
    dispatchPrefetches( std::size_t accessedIndex, Access access )
    {
        const auto parallelism = std::max<std::size_t>( 1, m_configuration.parallelism );
        if ( access == Access::ORDERED_PASS ) {
            for ( std::size_t i = 1; i <= std::max<std::size_t>( 2 * parallelism, 4 ); ++i ) {
                prefetch( accessedIndex + i );
            }
            return;
        }
        /* Repeated accesses to the same chunk (byte-wise read() loops)
         * neither grow nor reset the sequential streak. */
        if ( ( m_lastAccess != SIZE_MAX ) && ( accessedIndex == m_lastAccess + 1 ) ) {
            ++m_sequentialStreak;
        } else if ( accessedIndex != m_lastAccess ) {
            m_sequentialStreak = 0;
        }
        m_lastAccess = accessedIndex;
        const auto depth = std::min<std::size_t>(
            parallelism, std::size_t( 1 ) << std::min<std::size_t>( m_sequentialStreak, 16 ) );
        for ( std::size_t i = 1; i <= depth; ++i ) {
            prefetch( accessedIndex + i );
        }
    }

    /** Caller must hold m_mutex. Never evicts in-flight decodes or @p keepIndex. */
    void
    evictStaleEntries( std::size_t keepIndex )
    {
        while ( m_cache.size() > m_cacheCapacity ) {
            auto victim = m_cache.end();
            for ( auto it = m_cache.begin(); it != m_cache.end(); ++it ) {
                if ( it->first == keepIndex ) {
                    continue;
                }
                if ( it->second.future.wait_for( std::chrono::seconds( 0 ) )
                     != std::future_status::ready ) {
                    continue;
                }
                if ( ( victim == m_cache.end() ) || ( it->second.lastUse < victim->second.lastUse ) ) {
                    victim = it;
                }
            }
            if ( victim == m_cache.end() ) {
                break;  /* everything else is still decoding */
            }
            if ( victim->second.prefetched && !victim->second.counted ) {
                RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_prefetch_wasted_total",
                                           "Speculative decodes evicted before any consumer used them.", 1 );
            }
            m_cache.erase( victim );
        }
    }

    std::shared_ptr<const FileReader> m_file;
    std::size_t m_chunkCount{ 0 };
    ChunkDecoder m_decoder;
    ChunkFetcherConfiguration m_configuration;
    std::size_t m_cacheCapacity;
    std::uint64_t m_cacheToken;

    std::mutex m_mutex;
    std::map<std::size_t, CacheEntry> m_cache;
    std::uint64_t m_accessClock{ 0 };

    std::size_t m_lastAccess{ SIZE_MAX };
    std::size_t m_sequentialStreak{ 0 };

    /* Without a shared tier, the reader's own pool. Last: its destructor
     * runs first, joining workers that capture m_file. */
    std::optional<ThreadPool> m_threadPool;
};

}  // namespace rapidgzip
