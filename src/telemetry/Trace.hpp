#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "Registry.hpp"
#include "Telemetry.hpp"

namespace rapidgzip::telemetry {

/**
 * Per-thread lock-free span tracing with a drain to Chrome trace-event JSON
 * (loadable in Perfetto / chrome://tracing).
 *
 * Each thread owns a fixed-capacity ring of completed spans; pushing is a
 * single-writer store plus a release-publish of the write index, so hooks
 * never lock and never allocate after the ring exists. Rings are created
 * lazily on a thread's first span — a process that never enables tracing
 * never allocates. The collector keeps shared_ptrs to every ring so spans
 * survive thread exit and can be drained at shutdown. When a ring wraps,
 * the oldest spans are overwritten (most-recent-window semantics); the
 * drain reports how many were dropped.
 */

struct TraceSpan
{
    const char* name{ nullptr };      /**< static string — span names are compile-time literals */
    const char* category{ nullptr };  /**< static string — groups spans into Perfetto tracks */
    std::uint64_t beginNs{ 0 };
    std::uint64_t endNs{ 0 };
};


class TraceRing
{
public:
    static constexpr std::size_t CAPACITY = 16384;  /* power of two; 512 KiB per traced thread */

    explicit TraceRing( std::uint32_t tid ) :
        m_tid( tid )
    {}

    /** Single-writer (the owning thread). The release store publishes the span for snapshot(). */
    void
    push( const TraceSpan& span ) noexcept
    {
        const auto index = m_writeIndex.load( std::memory_order_relaxed );
        m_spans[index & ( CAPACITY - 1 )] = span;
        m_writeIndex.store( index + 1, std::memory_order_release );
    }

    [[nodiscard]] std::uint64_t
    written() const noexcept
    {
        return m_writeIndex.load( std::memory_order_acquire );
    }

    [[nodiscard]] std::uint64_t
    dropped() const noexcept
    {
        const auto total = written();
        return total > CAPACITY ? total - CAPACITY : 0;
    }

    /**
     * Copy out the retained window (the last min(written, CAPACITY) spans in
     * push order). Safe to call concurrently with pushes; a span being
     * overwritten during the copy can come out torn, so drains should happen
     * at quiescent points (shutdown, after joins) — the final atexit drain
     * always is.
     */
    [[nodiscard]] std::vector<TraceSpan>
    snapshot() const
    {
        const auto end = written();
        const auto begin = end > CAPACITY ? end - CAPACITY : 0;
        std::vector<TraceSpan> spans;
        spans.reserve( static_cast<std::size_t>( end - begin ) );
        for ( auto i = begin; i < end; ++i ) {
            spans.push_back( m_spans[i & ( CAPACITY - 1 )] );
        }
        return spans;
    }

    [[nodiscard]] std::uint32_t tid() const noexcept { return m_tid; }

private:
    std::array<TraceSpan, CAPACITY> m_spans{};
    std::atomic<std::uint64_t> m_writeIndex{ 0 };
    std::uint32_t m_tid;
};


class TraceCollector
{
public:
    [[nodiscard]] static TraceCollector&
    instance()
    {
        static TraceCollector collector;
        return collector;
    }

    [[nodiscard]] std::shared_ptr<TraceRing>
    createRing()
    {
        const std::lock_guard<std::mutex> lock{ m_mutex };
        auto ring = std::make_shared<TraceRing>( static_cast<std::uint32_t>( m_rings.size() + 1 ) );
        m_rings.push_back( ring );
        return ring;
    }

    [[nodiscard]] std::uint64_t
    totalDropped() const
    {
        const std::lock_guard<std::mutex> lock{ m_mutex };
        std::uint64_t dropped{ 0 };
        for ( const auto& ring : m_rings ) {
            dropped += ring->dropped();
        }
        return dropped;
    }

    /**
     * Drain all rings into Chrome trace-event JSON. Timestamps are
     * microseconds relative to the earliest span so Perfetto's viewport
     * starts at zero. Complete events (ph "X") carry ts + dur.
     */
    void
    drainJson( std::ostream& out ) const
    {
        std::vector<std::pair<std::uint32_t, TraceSpan>> all;
        std::uint64_t dropped{ 0 };
        {
            const std::lock_guard<std::mutex> lock{ m_mutex };
            for ( const auto& ring : m_rings ) {
                dropped += ring->dropped();
                for ( const auto& span : ring->snapshot() ) {
                    if ( span.name != nullptr ) {
                        all.emplace_back( ring->tid(), span );
                    }
                }
            }
        }

        std::uint64_t baseNs{ 0 };
        if ( !all.empty() ) {
            baseNs = std::min_element( all.begin(), all.end(),
                                       [] ( const auto& a, const auto& b ) {
                                           return a.second.beginNs < b.second.beginNs;
                                       } )->second.beginNs;
        }

        out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedSpans\":" << dropped
            << "},\"traceEvents\":[";
        bool first{ true };
        std::array<char, 512> line{};
        for ( const auto& [tid, span] : all ) {
            const auto ts = static_cast<double>( span.beginNs - baseNs ) / 1e3;
            const auto dur = static_cast<double>( span.endNs - span.beginNs ) / 1e3;
            std::snprintf( line.data(), line.size(),
                           "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                           "\"pid\":1,\"tid\":%u}",
                           first ? "" : ",", span.name, span.category, ts, dur, tid );
            out << line.data();
            first = false;
        }
        out << "]}";
    }

    [[nodiscard]] std::size_t
    ringCount() const
    {
        const std::lock_guard<std::mutex> lock{ m_mutex };
        return m_rings.size();
    }

private:
    TraceCollector() = default;

    mutable std::mutex m_mutex;
    std::vector<std::shared_ptr<TraceRing>> m_rings;
};


/** The calling thread's ring, created and registered on first use. */
[[nodiscard]] inline TraceRing&
threadTraceRing()
{
    thread_local std::shared_ptr<TraceRing> ring = TraceCollector::instance().createRing();
    return *ring;
}


/**
 * RAII span. Construction samples the clock only when tracing is enabled;
 * destruction pushes iff tracing was enabled at BOTH ends, so a mid-span
 * disable drops the span instead of creating a ring after shutdown started.
 * Name and category must be string literals (stored by pointer).
 */
class Span
{
public:
    Span( const char* category, const char* name ) noexcept
    {
        if ( traceEnabled() ) {
            m_name = name;
            m_category = category;
            m_beginNs = nowNs();
        }
    }

    Span( const Span& ) = delete;
    Span& operator=( const Span& ) = delete;
    Span( Span&& ) = delete;
    Span& operator=( Span&& ) = delete;

    ~Span()
    {
        if ( ( m_name != nullptr ) && traceEnabled() ) {
            threadTraceRing().push( { m_name, m_category, m_beginNs, nowNs() } );
        }
    }

    /** Record nothing: the stretch turned out not to be what the name says. */
    void
    dismiss() noexcept
    {
        m_name = nullptr;
    }

private:
    const char* m_name{ nullptr };
    const char* m_category{ nullptr };
    std::uint64_t m_beginNs{ 0 };
};


/** Where the atexit drain writes, set by traceToFileAtExit. */
[[nodiscard]] inline std::string&
tracePathStorage()
{
    static std::string path;
    return path;
}

/** Serialize all collected spans to @p path. Returns false if the file could not be opened. */
inline bool
writeTraceFile( const std::string& path )
{
    std::FILE* const file = std::fopen( path.c_str(), "wb" );
    if ( file == nullptr ) {
        return false;
    }
    std::ostringstream stream;
    TraceCollector::instance().drainJson( stream );
    const auto json = stream.str();
    const auto written = std::fwrite( json.data(), 1, json.size(), file );
    std::fclose( file );
    return written == json.size();
}

/**
 * Enable tracing now and register an atexit hook that drains to @p path.
 * Used by the RAPIDGZIP_TRACE environment variable and by --trace options
 * whose mainline has no clean shutdown point.
 */
inline void
traceToFileAtExit( const std::string& path )
{
    /* Touch the singletons BEFORE registering the atexit handler: function-local
     * statics are destroyed in reverse construction order, so sequencing their
     * construction first guarantees the drain runs while they are still alive. */
    (void)TraceCollector::instance();
    (void)Registry::instance();
    tracePathStorage() = path;
    setTraceEnabled( true );
    std::atexit( [] () {
        const auto& target = tracePathStorage();
        if ( !target.empty() ) {
            if ( writeTraceFile( target ) ) {
                std::fprintf( stderr, "rapidgzip: wrote trace to %s (%zu thread rings, %llu spans dropped)\n",
                              target.c_str(), TraceCollector::instance().ringCount(),
                              static_cast<unsigned long long>( TraceCollector::instance().totalDropped() ) );
            } else {
                std::fprintf( stderr, "rapidgzip: failed to write trace to %s\n", target.c_str() );
            }
        }
    } );
}

namespace detail {

/**
 * Pre-main hook: RAPIDGZIP_TRACE=<path> turns on tracing (and metrics, so
 * the counters a trace is usually read next to are live) for ANY binary
 * linking the library, with the drain registered via atexit.
 */
struct TraceEnvironmentInit
{
    TraceEnvironmentInit()
    {
        const char* const path = std::getenv( "RAPIDGZIP_TRACE" );
        if ( ( path != nullptr ) && ( path[0] != '\0' ) ) {
            traceToFileAtExit( path );
            setMetricsEnabled( true );
        }
    }
};

inline TraceEnvironmentInit g_traceEnvironmentInit{};

}  // namespace detail

}  // namespace rapidgzip::telemetry
