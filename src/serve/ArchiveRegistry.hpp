#pragma once

#include <sys/stat.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "../common/Error.hpp"
#include "../core/ChunkCache.hpp"
#include "../formats/Sidecar.hpp"

namespace rapidgzip::serve {

/** Thrown when a request names something outside the served tree or not
 * present on disk — the server maps it to 404. */
class ArchiveNotFoundError : public RapidgzipError
{
public:
    using RapidgzipError::RapidgzipError;
};

/** Limits governing the registry's failure behavior. */
struct RegistryLimits
{
    /** Initial negative-cache hold after a failed open; doubles per repeat
     * failure (capped at 64×). 0 disables negative caching. */
    std::uint32_t failedOpenBackoffMs{ 1000 };
};

/**
 * What makes an archive THE archive: its resolved path plus the size and
 * mtime observed at open. The token feeds ChunkFetcher's shared-cache
 * keys, so replacing a file on disk (same path, new content ⇒ new
 * size/mtime) changes the identity and strands the stale cache entries
 * instead of serving them.
 */
struct ArchiveIdentity
{
    std::string path;
    std::size_t sizeBytes{ 0 };
    std::int64_t mtime{ 0 };

    [[nodiscard]] std::uint64_t
    token() const noexcept
    {
        /* FNV-1a over the path, then splitmix the stat fields in. */
        std::uint64_t hash = 0xCBF29CE484222325ULL;
        for ( const auto character : path ) {
            hash = ( hash ^ static_cast<std::uint8_t>( character ) ) * 0x100000001B3ULL;
        }
        return mixHash( hash )
               ^ mixHash( sizeBytes )
               ^ mixHash( static_cast<std::uint64_t>( mtime ) );
    }

    [[nodiscard]] bool
    operator==( const ArchiveIdentity& other ) const noexcept
    {
        return ( path == other.path ) && ( sizeBytes == other.sizeBytes )
               && ( mtime == other.mtime );
    }
};

/**
 * The daemon's table of open archives: URL path → lazily opened
 * Decompressor, bounded by an LRU over open readers. Every open flows
 * through formats::openArchive, so format detection and sidecar-index
 * adoption apply uniformly, and every reader is wired to the process-wide
 * chunk cache with its identity token.
 *
 * open() hands out shared handles: a decompressor is thread-safe once its
 * chunk table is published, so concurrent requests to the SAME archive
 * read it in parallel, and a request that waits on a chunk decode holds up
 * no other. Only an entry's first open (format detection, sidecar
 * adoption) runs under that entry's mutex, so a slow open blocks only its
 * own archive; a discovery sweep runs on the first read, under the
 * reader's own table lock. Cross-request reuse of decoded chunks happens
 * in the shared cache tier below, whose decode pool runs every reader's
 * decodes: a reader owns no threads, so whoever drops its last handle, an
 * event loop included, destroys it without a wait.
 */
class ArchiveRegistry
{
public:
    ArchiveRegistry( std::string rootDirectory,
                     std::size_t maxArchives,
                     std::shared_ptr<LruChunkCache> sharedCache,
                     ChunkFetcherConfiguration readerConfiguration,
                     RegistryLimits limits ) :
        m_rootDirectory( std::move( rootDirectory ) ),
        m_maxArchives( std::max<std::size_t>( 1, maxArchives ) ),
        m_sharedCache( std::move( sharedCache ) ),
        m_readerConfiguration( std::move( readerConfiguration ) ),
        m_limits( limits )
    {}

    struct Entry
    {
        ArchiveIdentity identity;
        std::mutex openMutex;  /**< guards decompressor; held by the first open */
        std::shared_ptr<formats::Decompressor> decompressor;
        std::uint64_t lastUse{ 0 };
    };

    /**
     * Open (or reuse) the archive behind @p urlPath — "/name.gz" relative
     * to the served root. Throws ArchiveNotFoundError for traversal
     * attempts and missing files; format errors (unknown magic, vendor
     * library absent) propagate as their own types. With Wait::NEVER it
     * returns the archive only when it is open already, and nullptr
     * otherwise: it still checks the file's identity, but creates no entry,
     * evicts none and never waits for an entry's first open.
     */
    [[nodiscard]] std::shared_ptr<formats::Decompressor>
    open( const std::string& urlPath, Wait wait = Wait::ALLOWED )
    {
        const auto filePath = resolve( urlPath );
        const auto identity = identify( filePath );

        std::shared_ptr<Entry> entry;
        {
            const std::lock_guard<std::mutex> lock( m_mutex );
            ++m_useClock;
            if ( wait == Wait::ALLOWED ) {
                checkNegativeCache( filePath, identity );
            }
            const auto match = m_entries.find( filePath );
            if ( ( match != m_entries.end() ) && ( match->second->identity == identity ) ) {
                match->second->lastUse = m_useClock;
                entry = match->second;
            } else if ( wait == Wait::NEVER ) {
                return nullptr;
            } else {
                if ( match != m_entries.end() ) {
                    m_entries.erase( match );  /* file changed on disk: reopen */
                }
                entry = std::make_shared<Entry>();
                entry->identity = identity;
                entry->lastUse = m_useClock;
                m_entries.emplace( filePath, entry );
                evictOverflow();
            }
        }

        /* The open itself runs outside the registry lock, under the entry's
         * mutex, so opening one slow archive never blocks requests for
         * others. */
        std::unique_lock<std::mutex> openLock( entry->openMutex, std::defer_lock );
        if ( wait == Wait::NEVER ) {
            return openLock.try_lock() ? entry->decompressor : nullptr;
        }
        openLock.lock();
        if ( !entry->decompressor ) {
            auto configuration = m_readerConfiguration;
            configuration.sharedCache = m_sharedCache;
            configuration.cacheIdentity = identity.token();
            try {
                entry->decompressor = formats::openArchive( filePath, configuration );
            } catch ( const std::exception& exception ) {
                recordFailedOpen( filePath, identity, exception.what() );
                throw;
            }
            clearFailedOpen( filePath );
        }
        return entry->decompressor;
    }

    [[nodiscard]] std::size_t
    openCount() const
    {
        const std::lock_guard<std::mutex> lock( m_mutex );
        return m_entries.size();
    }

private:
    /** Reject traversal; map "/name" under the served root. */
    [[nodiscard]] std::string
    resolve( const std::string& urlPath ) const
    {
        if ( urlPath.empty() || ( urlPath.front() != '/' )
             || ( urlPath.find( '\0' ) != std::string::npos ) ) {
            throw ArchiveNotFoundError( "Malformed request path" );
        }
        /* Component-wise ".." check — catches "/../x", "/a/../../x", … */
        std::size_t begin = 1;
        while ( begin <= urlPath.size() ) {
            auto end = urlPath.find( '/', begin );
            if ( end == std::string::npos ) {
                end = urlPath.size();
            }
            if ( urlPath.compare( begin, end - begin, ".." ) == 0 ) {
                throw ArchiveNotFoundError( "Path traversal rejected" );
            }
            begin = end + 1;
        }
        return m_rootDirectory + urlPath;
    }

    [[nodiscard]] static ArchiveIdentity
    identify( const std::string& filePath )
    {
        struct stat fileStat{};
        if ( ( ::stat( filePath.c_str(), &fileStat ) != 0 ) || !S_ISREG( fileStat.st_mode ) ) {
            throw ArchiveNotFoundError( "No such archive: " + filePath );
        }
        ArchiveIdentity identity;
        identity.path = filePath;
        identity.sizeBytes = static_cast<std::size_t>( fileStat.st_size );
        identity.mtime = static_cast<std::int64_t>( fileStat.st_mtime );
        return identity;
    }

    [[nodiscard]] static std::uint64_t
    nowMilliseconds() noexcept
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now().time_since_epoch() ).count() );
    }

    /** Caller must hold m_mutex. Throws the cached failure while the
     * backoff window holds; a changed identity (file replaced on disk)
     * clears the grudge immediately. */
    void
    checkNegativeCache( const std::string& filePath, const ArchiveIdentity& identity )
    {
        const auto match = m_failedOpens.find( filePath );
        if ( match == m_failedOpens.end() ) {
            return;
        }
        if ( !( match->second.identity == identity ) ) {
            m_failedOpens.erase( match );
            return;
        }
        if ( nowMilliseconds() < match->second.retryAtMs ) {
            throw RapidgzipError( match->second.message + " (cached failure; open backoff active)" );
        }
        /* Window expired: let this caller retry; the entry stays so a
         * repeat failure doubles the backoff instead of restarting it. */
    }

    void
    recordFailedOpen( const std::string& filePath,
                      const ArchiveIdentity& identity,
                      const std::string& message )
    {
        if ( m_limits.failedOpenBackoffMs == 0 ) {
            return;
        }
        const std::lock_guard<std::mutex> lock( m_mutex );
        auto& failure = m_failedOpens[filePath];
        failure.identity = identity;
        failure.message = message;
        failure.consecutiveFailures = std::min<std::uint32_t>( failure.consecutiveFailures + 1, 7 );
        const auto backoff = static_cast<std::uint64_t>( m_limits.failedOpenBackoffMs )
                             << ( failure.consecutiveFailures - 1 );
        failure.retryAtMs = nowMilliseconds() + backoff;
    }

    void
    clearFailedOpen( const std::string& filePath )
    {
        const std::lock_guard<std::mutex> lock( m_mutex );
        m_failedOpens.erase( filePath );
    }

    /** Caller must hold m_mutex. Evicts least-recently-used entries that no
     * open() is working on; requests in flight hold their decompressor
     * alive either way. */
    void
    evictOverflow()
    {
        while ( m_entries.size() > m_maxArchives ) {
            auto victim = m_entries.end();
            for ( auto it = m_entries.begin(); it != m_entries.end(); ++it ) {
                if ( it->second.use_count() > 1 ) {
                    continue;  /* being opened right now */
                }
                if ( ( victim == m_entries.end() )
                     || ( it->second->lastUse < victim->second->lastUse ) ) {
                    victim = it;
                }
            }
            if ( victim == m_entries.end() ) {
                break;  /* everything is being opened; stay oversized briefly */
            }
            m_entries.erase( victim );
        }
    }

    struct FailedOpen
    {
        ArchiveIdentity identity;
        std::string message;
        std::uint32_t consecutiveFailures{ 0 };
        std::uint64_t retryAtMs{ 0 };
    };

    std::string m_rootDirectory;
    std::size_t m_maxArchives;
    std::shared_ptr<LruChunkCache> m_sharedCache;
    ChunkFetcherConfiguration m_readerConfiguration;
    RegistryLimits m_limits;

    mutable std::mutex m_mutex;
    std::map<std::string, std::shared_ptr<Entry> > m_entries;
    std::map<std::string, FailedOpen> m_failedOpens;
    std::uint64_t m_useClock{ 0 };
};

}  // namespace rapidgzip::serve
