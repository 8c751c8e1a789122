#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "../core/ChunkCache.hpp"
#include "../telemetry/Registry.hpp"

namespace rapidgzip::serve {

/**
 * Serve counters, now thin handles into the process-wide telemetry registry
 * (PR 8 absorbed the old standalone atomics). Workers bump them while the
 * /metrics handler scrapes, same as before — the registry's sharded relaxed
 * atomics ARE the storage. Serve counters count unconditionally (they are
 * the daemon's primary operational numbers, as the standalone struct was);
 * the metricsEnabled() gate only governs the library-internal pipeline
 * hooks.
 */
struct ServeMetrics
{
    telemetry::Counter& requestsTotal;
    /** Requests a shard answered itself, without a worker. */
    telemetry::Counter& requestsOnLoop;
    telemetry::Counter& responses2xx;
    telemetry::Counter& responses4xx;
    telemetry::Counter& responses5xx;
    telemetry::Counter& bytesServed;
    /** Body bytes lent straight out of cached decoded chunks (borrowed
     * spans, no copy) vs. bytes that went through a private range copy.
     * Every backend lends chunk spans, so rangeCopyBytes stays at 0 —
     * serve_load asserts exactly that, and /metrics exposes both so the
     * claim is checkable live. */
    telemetry::Counter& zeroCopyBytes;
    telemetry::Counter& rangeCopyBytes;
    telemetry::Counter& zeroCopySpans;
    telemetry::Counter& connectionsAccepted;
    telemetry::Counter& timeoutsTotal;
    telemetry::Histogram& requestLatency;

    ServeMetrics() :
        requestsTotal( telemetry::Registry::instance().counter(
            "rapidgzip_serve_requests_total", "HTTP requests parsed from client connections." ) ),
        requestsOnLoop( telemetry::Registry::instance().counter(
            "rapidgzip_serve_requests_on_loop_total",
            "Requests answered on an event-loop shard, with every chunk already decoded." ) ),
        responses2xx( telemetry::Registry::instance().counter(
            "rapidgzip_serve_responses_2xx_total", "Responses sent with a 2xx status." ) ),
        responses4xx( telemetry::Registry::instance().counter(
            "rapidgzip_serve_responses_4xx_total", "Responses sent with a 4xx status." ) ),
        responses5xx( telemetry::Registry::instance().counter(
            "rapidgzip_serve_responses_5xx_total", "Responses sent with a 5xx status." ) ),
        bytesServed( telemetry::Registry::instance().counter(
            "rapidgzip_serve_bytes_served_total", "Response body bytes served from archives." ) ),
        zeroCopyBytes( telemetry::Registry::instance().counter(
            "rapidgzip_serve_zero_copy_bytes_total",
            "Body bytes lent as refcounted spans of cached chunks (never copied)." ) ),
        rangeCopyBytes( telemetry::Registry::instance().counter(
            "rapidgzip_serve_range_copy_bytes_total",
            "Body bytes copied into a private buffer instead of lent from a cached chunk." ) ),
        zeroCopySpans( telemetry::Registry::instance().counter(
            "rapidgzip_serve_zero_copy_spans_total",
            "Refcounted chunk spans lent into responses." ) ),
        connectionsAccepted( telemetry::Registry::instance().counter(
            "rapidgzip_serve_connections_accepted_total", "Client connections accepted." ) ),
        timeoutsTotal( telemetry::Registry::instance().counter(
            "rapidgzip_serve_timeouts_total",
            "Connections closed by a deadline: slow header read, idle keep-alive, stalled write." ) ),
        requestLatency( telemetry::Registry::instance().histogram(
            "rapidgzip_serve_request_seconds",
            "Request handling latency from parse completion to response ready." ) )
    {}

    void
    countStatus( int status )
    {
        if ( ( status >= 200 ) && ( status < 300 ) ) {
            responses2xx.addUnchecked( 1 );
        } else if ( ( status >= 400 ) && ( status < 500 ) ) {
            responses4xx.addUnchecked( 1 );
        } else if ( status >= 500 ) {
            responses5xx.addUnchecked( 1 );
        }
        /* Per-status series ("rapidgzip_serve_responses_total{status="206"}").
         * HTTP status codes bound the cardinality; handles are cached so the
         * registry mutex is only taken on each status's first occurrence. */
        static constexpr const char* HELP = "Responses by exact HTTP status code.";
        thread_local std::map<int, telemetry::Counter*> handles;
        auto& handle = handles[status];
        if ( handle == nullptr ) {
            handle = &telemetry::Registry::instance().counter(
                "rapidgzip_serve_responses_total", HELP,
                "status=\"" + std::to_string( status ) + "\"" );
        }
        handle->addUnchecked( 1 );
    }

    /** Admission-control refusals by reason — "max_connections" (accept
     * gate). The reason set is a small fixed vocabulary, so handles are
     * cached like countStatus. */
    void
    countRejected( const char* reason )
    {
        static constexpr const char* HELP = "Requests or connections refused by admission control.";
        thread_local std::map<std::string, telemetry::Counter*> handles;
        auto& handle = handles[reason];
        if ( handle == nullptr ) {
            handle = &telemetry::Registry::instance().counter(
                "rapidgzip_serve_rejected_total", HELP,
                "reason=\"" + std::string( reason ) + "\"" );
        }
        handle->addUnchecked( 1 );
    }

    /** Per-archive request series; call after a successful registry open so
     * the label set is bounded by real archives, not attacker-chosen URLs. */
    void
    countArchiveRequest( const std::string& target )
    {
        static constexpr const char* HELP = "Requests per archive path (successfully opened targets only).";
        auto& counter = telemetry::Registry::instance().counter(
            "rapidgzip_serve_archive_requests_total", HELP,
            "archive=\"" + telemetry::escapeLabelValue( target ) + "\"" );
        counter.addUnchecked( 1 );
    }
};

/**
 * Prometheus exposition: the full telemetry registry (serve counters,
 * request latency summary with p50/p90/p99, and — when the pipeline gate is
 * on — per-stage pipeline counters), plus the shared chunk cache and
 * archive registry gauges scraped at render time. All # HELP/# TYPE
 * annotated; doubles render with fixed precision (std::to_string is
 * locale-dependent).
 */
[[nodiscard]] inline std::string
renderMetrics( const ServeMetrics& /* metrics — live in the registry */,
               const ChunkCacheStatistics& cache,
               std::size_t openArchives )
{
    std::string out = telemetry::Registry::instance().renderPrometheus();

    const auto gauge = [&out] ( const char* name, const char* help, std::size_t value ) {
        out += "# HELP " + std::string( name ) + " " + help + "\n";
        out += "# TYPE " + std::string( name ) + " gauge\n";
        out += std::string( name ) + " " + std::to_string( value ) + "\n";
    };
    const auto counter = [&out] ( const char* name, const char* help, std::size_t value ) {
        out += "# HELP " + std::string( name ) + " " + help + "\n";
        out += "# TYPE " + std::string( name ) + " counter\n";
        out += std::string( name ) + " " + std::to_string( value ) + "\n";
    };

    gauge( "rapidgzip_serve_open_archives", "Archives currently open in the bounded registry.",
           openArchives );
    counter( "rapidgzip_serve_cache_hits_total", "Shared chunk cache hits.", cache.hits );
    counter( "rapidgzip_serve_cache_misses_total", "Shared chunk cache misses.", cache.misses );
    counter( "rapidgzip_serve_cache_insertions_total", "Chunks inserted into the shared cache.",
             cache.insertions );
    counter( "rapidgzip_serve_cache_evictions_total", "Chunks evicted from the shared cache.",
             cache.evictions );
    gauge( "rapidgzip_serve_cache_bytes", "Decoded bytes resident in the shared cache.",
           cache.currentBytes );
    gauge( "rapidgzip_serve_cache_capacity_bytes", "Shared cache byte capacity.",
           cache.capacityBytes );
    out += "# HELP rapidgzip_serve_cache_hit_rate Shared cache hit fraction in [0, 1].\n";
    out += "# TYPE rapidgzip_serve_cache_hit_rate gauge\n";
    out += "rapidgzip_serve_cache_hit_rate " + telemetry::formatDouble( cache.hitRate() ) + "\n";
    return out;
}

}  // namespace rapidgzip::serve
