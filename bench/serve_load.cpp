/**
 * Load generator for rapidgzip-serve (paper section: random access at
 * scale). Boots the daemon in-process on an ephemeral loopback port over M
 * gzip archives, then drives N concurrent keep-alive clients issuing
 * Zipf-distributed ranged GETs — the access pattern of a chunk-store or
 * genome-browser front end, where a hot subset of ranges dominates — and
 * byte-verifies EVERY response against the reference data.
 *
 * Emits BENCH_serve.json: requests/s, p50/p99 latency, shared-cache hit
 * rate, and the share of requests the event-loop shards answered without a
 * worker. Exits non-zero on any non-2xx response or byte mismatch, so the CI
 * smoke run doubles as a correctness gate.
 *
 * Knobs (defaults scale with RAPIDGZIP_BENCH_SCALE):
 *   RAPIDGZIP_SERVE_CLIENTS   concurrent connections   (default 256 x scale)
 *   RAPIDGZIP_SERVE_ARCHIVES  archives under the root  (default 4)
 *   RAPIDGZIP_SERVE_SECONDS   measured wall time       (default ~5 x scale)
 *   RAPIDGZIP_SERVE_THREADS   event-loop shards        (default 1)
 *
 * The run also proves the zero-copy response path: every 206 body must be
 * assembled from borrowed chunk spans, so the range-copy byte counter has
 * to stay at 0 — a non-zero value fails the bench.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gzip/ZlibCompressor.hpp"
#include "serve/Server.hpp"
#include "telemetry/Trace.hpp"
#include "workloads/DataGenerators.hpp"

#include "BenchmarkHelpers.hpp"
#include "LoadClient.hpp"
#include "Stats.hpp"

using namespace rapidgzip;
using rapidgzip::benchsuite::LoadClient;
using rapidgzip::benchsuite::quantile;

namespace {

[[nodiscard]] std::size_t
envCount( const char* name, std::size_t fallback )
{
    if ( const char* value = std::getenv( name ); ( value != nullptr ) && ( value[0] != '\0' ) ) {
        return static_cast<std::size_t>( std::max<long long>( 1, std::atoll( value ) ) );
    }
    return fallback;
}

[[nodiscard]] double
envSeconds( const char* name, double fallback )
{
    if ( const char* value = std::getenv( name ); ( value != nullptr ) && ( value[0] != '\0' ) ) {
        return std::max( 0.1, std::atof( value ) );
    }
    return fallback;
}

/** Zipf(s=1) sampler over n ranks via inverse-CDF table lookup, with ranks
 * scattered over the slots so the hot set is not one contiguous prefix. */
class ZipfSampler
{
public:
    ZipfSampler( std::size_t n, std::uint64_t seed ) :
        m_rng( seed )
    {
        m_cumulative.reserve( n );
        double total = 0;
        for ( std::size_t rank = 1; rank <= n; ++rank ) {
            total += 1.0 / static_cast<double>( rank );
            m_cumulative.push_back( total );
        }
        for ( auto& value : m_cumulative ) {
            value /= total;
        }
    }

    [[nodiscard]] std::size_t
    operator()()
    {
        const auto uniform = static_cast<double>( m_rng() >> 11U ) * 0x1.0p-53;
        const auto rank = static_cast<std::size_t>(
            std::lower_bound( m_cumulative.begin(), m_cumulative.end(), uniform )
            - m_cumulative.begin() );
        /* Scatter rank -> slot with a fixed odd multiplier. */
        return ( rank * 2654435761ULL ) % m_cumulative.size();
    }

    [[nodiscard]] Xorshift64&
    rng() noexcept
    {
        return m_rng;
    }

private:
    Xorshift64 m_rng;
    std::vector<double> m_cumulative;
};

struct ClientTally
{
    std::vector<double> latenciesMs;
    std::size_t requests{ 0 };
    std::size_t errors{ 0 };
};

void
writeFile( const std::string& path, const std::vector<std::uint8_t>& bytes )
{
    std::FILE* file = std::fopen( path.c_str(), "wb" );
    if ( file == nullptr ) {
        std::fprintf( stderr, "Cannot write %s\n", path.c_str() );
        std::exit( 1 );
    }
    if ( std::fwrite( bytes.data(), 1, bytes.size(), file ) != bytes.size() ) {
        std::exit( 1 );
    }
    std::fclose( file );
}

}  // namespace

int
main( int argc, char** argv )
{
    std::signal( SIGPIPE, SIG_IGN );

    /* --trace out.json: record pipeline/serve spans for the whole run and
     * drain them to Chrome trace-event JSON at exit (same machinery as the
     * RAPIDGZIP_TRACE environment variable). */
    for ( int i = 1; i < argc; ++i ) {
        if ( ( std::strcmp( argv[i], "--trace" ) == 0 ) && ( i + 1 < argc ) ) {
            telemetry::traceToFileAtExit( argv[i + 1] );
            telemetry::setMetricsEnabled( true );
            ++i;
        } else {
            std::fprintf( stderr, "Usage: serve_load [--trace out.json]\n" );
            return 2;
        }
    }

    bench::printHeader( "rapidgzip-serve load: concurrent Zipf range requests" );

    const auto scale = bench::benchScale();
    const auto clientCount =
        envCount( "RAPIDGZIP_SERVE_CLIENTS",
                  std::max<std::size_t>( 4, static_cast<std::size_t>( 256 * scale ) ) );
    const auto archiveCount = envCount( "RAPIDGZIP_SERVE_ARCHIVES", 4 );
    const auto threadCount = envCount( "RAPIDGZIP_SERVE_THREADS", 1 );
    const auto seconds = envSeconds( "RAPIDGZIP_SERVE_SECONDS", std::max( 1.0, 5.0 * scale ) );
    const auto archiveSize = bench::scaledSize( 8 * MiB );
    constexpr std::size_t REQUEST_BYTES = 4 * KiB;
    constexpr std::size_t OFFSET_SLOTS = 512;

    /* Stage the archives. */
    char directoryTemplate[] = "/tmp/rapidgzip-serve-load-XXXXXX";
    const char* directory = ::mkdtemp( directoryTemplate );
    if ( directory == nullptr ) {
        std::fprintf( stderr, "mkdtemp failed\n" );
        return 1;
    }
    std::vector<std::vector<std::uint8_t> > referenceData;
    for ( std::size_t i = 0; i < archiveCount; ++i ) {
        referenceData.push_back( workloads::base64Data( archiveSize, 0x5E57E + i ) );
        /* The last archive is a single no-flush gzip member so its open runs
         * the two-stage pipeline (block-finder guesses, marker decode,
         * window stitch) — a --trace run captures both decode paths. */
        const auto compressed = ( i + 1 == archiveCount )
                                ? compressGzipLike( referenceData.back(), 6 )
                                : compressPigzLike( referenceData.back(), 6, 512 * KiB );
        writeFile( std::string( directory ) + "/archive" + std::to_string( i ) + ".gz",
                   compressed );
    }

    serve::ServerConfiguration configuration;
    configuration.port = 0;
    configuration.rootDirectory = directory;
    configuration.workerCount = 8;
    configuration.shardCount = threadCount;
    configuration.cacheBytes = 512 * MiB;
    configuration.maxArchives = archiveCount;
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 1 * MiB;

    serve::Server server( std::move( configuration ) );
    server.start();
    const auto port = server.port();
    std::thread loop( [&server] () { server.run(); } );

    std::printf( "  %zu clients x Zipf offsets over %zu archives (%zu MiB each), %.1f s, "
                 "%zu event-loop shard(s)\n",
                 clientCount, archiveCount, archiveSize / MiB, seconds, server.shardCount() );
    std::fflush( stdout );

    /* Drive the load. */
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::duration<double>( seconds );
    std::vector<ClientTally> tallies( clientCount );
    std::vector<std::thread> clients;
    for ( std::size_t c = 0; c < clientCount; ++c ) {
        clients.emplace_back( [&, c] () {
            auto& tally = tallies[c];
            ZipfSampler archivePicker( archiveCount, 0xC11E47 + c );
            ZipfSampler offsetPicker( OFFSET_SLOTS, 0x0FF5E7 + c );
            LoadClient client( port );
            if ( !client.connected() ) {
                ++tally.errors;
                return;
            }
            while ( std::chrono::steady_clock::now() < deadline ) {
                const auto archive = archivePicker();
                const auto& data = referenceData[archive];
                const auto slot = offsetPicker();
                const auto offset = std::min( data.size() - REQUEST_BYTES,
                                              slot * ( data.size() / OFFSET_SLOTS ) );
                const auto request = "GET /archive" + std::to_string( archive )
                                     + ".gz HTTP/1.1\r\nHost: bench\r\nRange: bytes="
                                     + std::to_string( offset ) + "-"
                                     + std::to_string( offset + REQUEST_BYTES - 1 ) + "\r\n\r\n";
                const auto begin = std::chrono::steady_clock::now();
                int status = 0;
                const char* body = nullptr;
                std::size_t bodySize = 0;
                if ( !client.send( request )
                     || !client.readResponse( status, body, bodySize ) ) {
                    ++tally.errors;
                    return;  /* connection torn: this client is done */
                }
                const auto elapsed = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - begin ).count();
                if ( ( status != 206 ) || ( bodySize != REQUEST_BYTES )
                     || ( std::memcmp( body, data.data() + offset, REQUEST_BYTES ) != 0 ) ) {
                    ++tally.errors;
                    return;
                }
                ++tally.requests;
                tally.latenciesMs.push_back( elapsed );
            }
        } );
    }

    const Stopwatch wallClock;
    for ( auto& client : clients ) {
        client.join();
    }
    const auto wallSeconds = wallClock.elapsed();

    server.stop();
    loop.join();

    /* Aggregate. */
    std::size_t requests = 0;
    std::size_t errors = 0;
    std::vector<double> latencies;
    for ( auto& tally : tallies ) {
        requests += tally.requests;
        errors += tally.errors;
        latencies.insert( latencies.end(), tally.latenciesMs.begin(), tally.latenciesMs.end() );
    }

    const auto requestsPerSecond = static_cast<double>( requests ) / std::max( wallSeconds, 1e-9 );
    const auto p50 = quantile( latencies, 0.50 );
    const auto p99 = quantile( latencies, 0.99 );
    const auto cacheStats = server.sharedCache().statistics();
    const auto& metrics = server.metrics();

    std::printf( "  %-22s %12.0f req/s\n", "throughput", requestsPerSecond );
    std::printf( "  %-22s %12.3f ms\n", "latency p50", p50 );
    std::printf( "  %-22s %12.3f ms\n", "latency p99", p99 );
    std::printf( "  %-22s %12.1f %%\n", "cache hit rate", 100.0 * cacheStats.hitRate() );
    /* Over every request the server parsed, warm-up included. */
    const auto parsed = static_cast<double>( metrics.requestsTotal.total() );
    const auto loopShare = parsed > 0 ? static_cast<double>( metrics.requestsOnLoop.total() ) / parsed : 0.0;
    std::printf( "  %-22s %12.1f %%\n", "answered on the loop", 100.0 * loopShare );
    std::printf( "  %-22s %12zu\n", "requests", requests );
    std::printf( "  %-22s %12zu\n", "errors", errors );

    /* Zero-copy proof: every body byte must have been lent out of a cached
     * chunk; a single range-copied byte means the 206 hot path regressed to
     * copying. */
    const auto zeroCopyBytes = static_cast<std::size_t>( metrics.zeroCopyBytes.total() );
    const auto rangeCopyBytes = static_cast<std::size_t>( metrics.rangeCopyBytes.total() );
    std::printf( "  %-22s %12zu\n", "zero-copy bytes", zeroCopyBytes );
    std::printf( "  %-22s %12zu\n", "range-copy bytes", rangeCopyBytes );

    const char* jsonPath = std::getenv( "RAPIDGZIP_BENCH_JSON" );
    std::FILE* json = std::fopen(
        ( jsonPath != nullptr ) && ( jsonPath[0] != '\0' ) ? jsonPath : "BENCH_serve.json", "w" );
    if ( json == nullptr ) {
        std::fprintf( stderr, "Cannot open BENCH_serve.json for writing!\n" );
        return 1;
    }
    std::fprintf(
        json,
        "{\n"
        "  \"benchmark\": \"serve_load\",\n"
        "  \"config\": {\n"
        "    \"clients\": %zu,\n"
        "    \"archives\": %zu,\n"
        "    \"archive_bytes\": %zu,\n"
        "    \"request_bytes\": %zu,\n"
        "    \"duration_seconds\": %.3f,\n"
        "    \"threads\": %zu,\n"
        "    \"scale\": %.3f\n"
        "  },\n"
        "  \"results\": {\n"
        "    \"requests\": %zu,\n"
        "    \"errors\": %zu,\n"
        "    \"requests_per_second\": %.1f,\n"
        "    \"latency_p50_ms\": %.3f,\n"
        "    \"latency_p99_ms\": %.3f,\n"
        "    \"cache_hit_rate\": %.4f,\n"
        "    \"loop_share\": %.4f,\n"
        "    \"cache_hits\": %zu,\n"
        "    \"cache_misses\": %zu,\n"
        "    \"cache_insertions\": %zu,\n"
        "    \"cache_evictions\": %zu,\n"
        "    \"bytes_served\": %zu,\n"
        "    \"zero_copy_bytes\": %zu,\n"
        "    \"zero_copy_spans\": %zu,\n"
        "    \"range_copy_bytes\": %zu\n"
        "  }\n"
        "}\n",
        clientCount, archiveCount, archiveSize, REQUEST_BYTES, wallSeconds, threadCount, scale,
        requests, errors, requestsPerSecond, p50, p99,
        cacheStats.hitRate(), loopShare, cacheStats.hits, cacheStats.misses,
        cacheStats.insertions, cacheStats.evictions,
        static_cast<std::size_t>( metrics.bytesServed.total() ),
        zeroCopyBytes,
        static_cast<std::size_t>( metrics.zeroCopySpans.total() ),
        rangeCopyBytes );
    std::fclose( json );

    if ( ( errors > 0 ) || ( requests == 0 ) ) {
        std::fprintf( stderr, "FAILED: %zu errors across %zu requests\n", errors, requests );
        return 1;
    }
    if ( rangeCopyBytes != 0 ) {
        std::fprintf( stderr, "FAILED: %zu body bytes were range-copied — "
                      "the 206 hot path must be zero-copy\n", rangeCopyBytes );
        return 1;
    }
    std::printf( "  OK: all responses 206 and byte-exact, body bytes zero-copy\n" );
    return 0;
}
