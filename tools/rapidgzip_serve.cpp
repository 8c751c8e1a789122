/**
 * rapidgzip-serve — multi-client random-access decompression daemon.
 *
 * Serves decompressed byte ranges of the archives under a root directory
 * over HTTP/1.1:
 *
 *     rapidgzip-serve --port 8080 /data
 *     curl -r 1000000-1000063 http://127.0.0.1:8080/corpus.gz
 *
 * Every archive is opened lazily on first request (gzip/zstd/lz4/bzip2 by
 * magic bytes), adopts a fresh `<archive>.rgzidx` sidecar index when one
 * exists, and shares one process-wide byte-bounded chunk cache across all
 * clients and archives. Concurrent requests to one archive read it in
 * parallel. GET (optionally ranged), HEAD, and /metrics.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <failsafe/FaultInjection.hpp>
#include <serve/Server.hpp>
#include <simd/Dispatch.hpp>
#include <telemetry/Trace.hpp>

namespace {

rapidgzip::serve::Server* g_server = nullptr;

void
handleSignal( int /* signal */ )
{
    if ( g_server != nullptr ) {
        g_server->stop();  /* atomic store + self-pipe write: signal-safe */
    }
}

/** SIGTERM drains: stop accepting, finish in-flight requests, then exit.
 * A second SIGTERM (or any SIGINT) stops immediately. All signal-safe. */
void
handleDrainSignal( int /* signal */ )
{
    if ( g_server == nullptr ) {
        return;
    }
    if ( g_server->draining() ) {
        g_server->stop();
    } else {
        g_server->beginDrain();
    }
}

/** "64M", "1G", "4096" → bytes; returns false on garbage. */
bool
parseByteSize( const char* text, std::size_t& result )
{
    char* end = nullptr;
    const auto value = std::strtoull( text, &end, 10 );
    if ( end == text ) {
        return false;
    }
    std::size_t scale = 1;
    switch ( *end ) {
    case '\0': break;
    case 'k': case 'K': scale = std::size_t( 1 ) << 10U; ++end; break;
    case 'm': case 'M': scale = std::size_t( 1 ) << 20U; ++end; break;
    case 'g': case 'G': scale = std::size_t( 1 ) << 30U; ++end; break;
    default: return false;
    }
    if ( *end != '\0' ) {
        return false;
    }
    result = static_cast<std::size_t>( value ) * scale;
    return true;
}

void
printUsage( const char* program )
{
    std::fprintf(
        stderr,
        "Usage: %s [options] <root-directory>\n"
        "\n"
        "Serve decompressed byte ranges of the archives under <root-directory>\n"
        "(gzip, zstd, lz4, bzip2 — detected by magic bytes) over HTTP/1.1.\n"
        "\n"
        "Options:\n"
        "  --port N          listen port (default 8080; 0 = ephemeral)\n"
        "  --bind ADDR       bind address (default 127.0.0.1)\n"
        "  --cache-bytes N   shared chunk-cache budget, K/M/G suffixes ok (default 256M)\n"
        "  --max-archives N  open-archive LRU bound (default 64)\n"
        "  --threads N       event-loop shards, each its own poll() loop and\n"
        "                    listener; more than one needs SO_REUSEPORT\n"
        "                    (Linux >= 3.9) (default 0 = one per core)\n"
        "  --workers N       request worker threads (default 4); chunk decodes\n"
        "                    run on one pool with a thread per core\n"
        "  --trace FILE      record spans, write Chrome trace-event JSON on shutdown\n"
        "  --max-connections N        connection admission limit, 0 = off (default 1024)\n"
        "  --header-timeout-ms N      slow-loris header deadline, 0 = off (default 10000)\n"
        "  --idle-timeout-ms N        keep-alive idle deadline, 0 = off (default 60000)\n"
        "  --write-timeout-ms N       stalled-write deadline, 0 = off (default 30000)\n"
        "  --drain-timeout-ms N       graceful-drain deadline on SIGTERM (default 10000)\n"
        "  --open-backoff-ms N        failed-open negative-cache base backoff, 0 = off (default 1000)\n"
        "  --help            this text\n"
        "\n"
        "Endpoints: GET /<archive> (Range honored), HEAD /<archive>, GET /metrics,\n"
        "           GET /healthz, GET /readyz (503 while draining)\n"
        "Signals:   SIGTERM drains gracefully (finish in-flight, then exit);\n"
        "           a second SIGTERM or SIGINT stops immediately.\n"
        "Faults:    RAPIDGZIP_FAULTS=<point>:<rate>[:<seed>[:<latency-us>]][,...]\n"
        "           arms fault injection (points: io.read chunk.decode pool.task\n"
        "           serve.write alloc) for resilience testing.\n",
        program );
}

}  // namespace

int
main( int argc, char** argv )
{
    rapidgzip::serve::ServerConfiguration configuration;
    configuration.port = 8080;
    configuration.shardCount = 0;  /* daemon default: one event-loop shard per core */
    configuration.readerConfiguration.parallelism = 2;  /* each reader's prefetch depth */
    std::string rootDirectory;
    std::string tracePath;

    for ( int i = 1; i < argc; ++i ) {
        const std::string argument = argv[i];
        const auto nextValue = [&] () -> const char* {
            if ( i + 1 >= argc ) {
                std::fprintf( stderr, "Missing value for %s\n", argument.c_str() );
                std::exit( 2 );
            }
            return argv[++i];
        };
        if ( argument == "--help" ) {
            printUsage( argv[0] );
            return 0;
        }
        if ( argument == "--port" ) {
            configuration.port = static_cast<std::uint16_t>( std::atoi( nextValue() ) );
        } else if ( argument == "--bind" ) {
            configuration.bindAddress = nextValue();
        } else if ( argument == "--cache-bytes" ) {
            if ( !parseByteSize( nextValue(), configuration.cacheBytes ) ) {
                std::fprintf( stderr, "Invalid --cache-bytes value\n" );
                return 2;
            }
        } else if ( argument == "--max-archives" ) {
            configuration.maxArchives = static_cast<std::size_t>( std::atoll( nextValue() ) );
        } else if ( argument == "--threads" ) {
            configuration.shardCount = static_cast<std::size_t>( std::atoll( nextValue() ) );
        } else if ( argument == "--workers" ) {
            configuration.workerCount = static_cast<std::size_t>( std::atoll( nextValue() ) );
        } else if ( argument == "--trace" ) {
            tracePath = nextValue();
        } else if ( argument == "--max-connections" ) {
            configuration.maxConnections = static_cast<std::size_t>( std::atoll( nextValue() ) );
        } else if ( argument == "--header-timeout-ms" ) {
            configuration.headerReadTimeoutMs = static_cast<std::uint32_t>( std::atoll( nextValue() ) );
        } else if ( argument == "--idle-timeout-ms" ) {
            configuration.idleTimeoutMs = static_cast<std::uint32_t>( std::atoll( nextValue() ) );
        } else if ( argument == "--write-timeout-ms" ) {
            configuration.writeTimeoutMs = static_cast<std::uint32_t>( std::atoll( nextValue() ) );
        } else if ( argument == "--drain-timeout-ms" ) {
            configuration.drainTimeoutMs = static_cast<std::uint32_t>( std::atoll( nextValue() ) );
        } else if ( argument == "--open-backoff-ms" ) {
            configuration.failedOpenBackoffMs =
                static_cast<std::uint32_t>( std::atoll( nextValue() ) );
        } else if ( !argument.empty() && ( argument.front() == '-' ) ) {
            std::fprintf( stderr, "Unknown option: %s\n", argument.c_str() );
            printUsage( argv[0] );
            return 2;
        } else if ( rootDirectory.empty() ) {
            rootDirectory = argument;
        } else {
            std::fprintf( stderr, "Multiple root directories given\n" );
            return 2;
        }
    }

    if ( rootDirectory.empty() ) {
        printUsage( argv[0] );
        return 2;
    }
    /* Normalize away a trailing slash; the registry joins "<root><url>". */
    while ( ( rootDirectory.size() > 1 ) && ( rootDirectory.back() == '/' ) ) {
        rootDirectory.pop_back();
    }
    configuration.rootDirectory = rootDirectory;

    if ( !rapidgzip::failsafe::configureFromEnvironment() ) {
        std::fprintf( stderr, "rapidgzip-serve: malformed RAPIDGZIP_FAULTS specification\n" );
        return 2;
    }

    if ( !tracePath.empty() ) {
        /* Enable now so archive opens are captured; drain on clean shutdown
         * AND via atexit so a SIGTERM'd daemon still leaves a trace file. */
        rapidgzip::telemetry::traceToFileAtExit( tracePath );
    }

    try {
        const auto bindAddress = configuration.bindAddress;
        rapidgzip::serve::Server server( std::move( configuration ) );
        server.start();
        g_server = &server;
        std::signal( SIGINT, handleSignal );
        std::signal( SIGTERM, handleDrainSignal );
        std::signal( SIGPIPE, SIG_IGN );

        std::printf( "rapidgzip-serve listening on %s:%u, serving %s\n",
                     bindAddress.c_str(), server.port(), rootDirectory.c_str() );
        std::printf( "rapidgzip-serve event-loop shards: %zu\n", server.shardCount() );
        std::printf( "rapidgzip-serve simd dispatch: %s (detected: %s)\n",
                     rapidgzip::simd::toString( rapidgzip::simd::activeLevel() ),
                     rapidgzip::simd::toString( rapidgzip::simd::detectedLevel() ) );
        std::fflush( stdout );
        server.run();
        g_server = nullptr;
    } catch ( const std::exception& exception ) {
        std::fprintf( stderr, "rapidgzip-serve: %s\n", exception.what() );
        return 1;
    }
    return 0;
}
