/**
 * Fault-injection framework tests plus the randomized fault campaign the
 * robustness work hangs off (src/failsafe/, and the probe sites it arms
 * across io/, core/, and serve/):
 *
 *  - framework semantics: arming, rates, determinism per seed, latency,
 *    spec/environment parsing, per-point probe and injection counters;
 *  - FaultyFileReader schedules and preadExactly's transparent healing of
 *    short reads;
 *  - chunk-decode isolation: bounded transient retry, telemetry counters,
 *    poisoned-future eviction (a failed read recovers byte-exact on the
 *    SAME reader once the fault clears), and the shared chunk cache never
 *    caching a failure;
 *  - a decode campaign over every available backend at 1-10 % fault rates:
 *    every attempt either returns byte-exact data or throws a typed error,
 *    and a clean re-read after disarming is byte-exact;
 *  - bzip2's fallback from its block table to the whole-stream decode
 *    under chunk.decode faults: the sink receives every byte exactly once;
 *  - a loopback serve campaign: concurrent ranged GETs under serve.write
 *    and chunk.decode faults (each response 206-byte-exact or 500), a
 *    cached range answered while another request to the same archive is
 *    still failing its decode, and a deterministic graceful drain
 *    (in-flight request completes, /readyz flips to 503 "draining").
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/ChunkCache.hpp"
#include "failsafe/FaultInjection.hpp"
#include "formats/Formats.hpp"
#include "formats/Lz4Writer.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/FaultyFileReader.hpp"
#include "io/MemoryFileReader.hpp"
#include "serve/Server.hpp"
#include "telemetry/Registry.hpp"
#include "telemetry/Telemetry.hpp"
#include "workloads/DataGenerators.hpp"

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
#include "formats/ZstdWriter.hpp"
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
#include "formats/Bzip2Writer.hpp"
#endif

#include "TestHelpers.hpp"

using namespace rapidgzip;
using failsafe::FaultPoint;

namespace {

/* --- framework semantics ------------------------------------------------ */

void
testFrameworkBasics()
{
    failsafe::disarmAll();
    REQUIRE( !failsafe::anyArmed() );

    /* Name table round-trips; garbage does not parse. */
    for ( std::size_t i = 0; i < failsafe::FAULT_POINT_COUNT; ++i ) {
        const auto point = static_cast<FaultPoint>( i );
        const auto parsed = failsafe::parseFaultPoint( failsafe::toString( point ) );
        REQUIRE( parsed.has_value() );
        REQUIRE( *parsed == point );
    }
    REQUIRE( !failsafe::parseFaultPoint( "io.write" ).has_value() );
    REQUIRE( !failsafe::parseFaultPoint( "" ).has_value() );

    /* Disarmed probes are invisible: no fire, no probe accounting (the
     * armed() gate short-circuits before the cold path). */
    const auto coldProbes = failsafe::probeCount( FaultPoint::IO_READ );
    for ( int i = 0; i < 100; ++i ) {
        REQUIRE( !failsafe::shouldInject( FaultPoint::IO_READ ) );
    }
    REQUIRE( failsafe::probeCount( FaultPoint::IO_READ ) == coldProbes );

    /* Rate 1 always fires and counts; disarm stops it again. */
    failsafe::configure( FaultPoint::IO_READ, 1.0 );
    REQUIRE( failsafe::armed( FaultPoint::IO_READ ) );
    REQUIRE( failsafe::anyArmed() );
    const auto firedBefore = failsafe::injectionCount( FaultPoint::IO_READ );
    for ( int i = 0; i < 10; ++i ) {
        REQUIRE( failsafe::shouldInject( FaultPoint::IO_READ ) );
    }
    REQUIRE( failsafe::injectionCount( FaultPoint::IO_READ ) == firedBefore + 10 );
    failsafe::disarm( FaultPoint::IO_READ );
    REQUIRE( !failsafe::armed( FaultPoint::IO_READ ) );
    REQUIRE( !failsafe::shouldInject( FaultPoint::IO_READ ) );

    /* Rate 0 is disarmed, even with a latency configured. */
    failsafe::configure( FaultPoint::POOL_TASK, 0.0, 0, 50'000 );
    REQUIRE( !failsafe::armed( FaultPoint::POOL_TASK ) );

    /* A 10 % rate fires roughly 10 % of the time (20000 draws: the
     * binomial standard deviation is ~42, so ±400 is > 9 sigma). */
    failsafe::configure( FaultPoint::CHUNK_DECODE, 0.1, /* seed */ 42 );
    std::size_t fired = 0;
    for ( int i = 0; i < 20'000; ++i ) {
        if ( failsafe::shouldInject( FaultPoint::CHUNK_DECODE ) ) {
            ++fired;
        }
    }
    REQUIRE( fired > 1'600 );
    REQUIRE( fired < 2'400 );
    failsafe::disarm( FaultPoint::CHUNK_DECODE );

    /* Same seed, same thread: reconfiguring bumps the epoch and replays
     * the identical per-thread decision sequence. */
    const auto record = [] () {
        failsafe::configure( FaultPoint::SERVE_WRITE, 0.5, /* seed */ 7 );
        std::vector<bool> decisions;
        for ( int i = 0; i < 64; ++i ) {
            decisions.push_back( failsafe::shouldInject( FaultPoint::SERVE_WRITE ) );
        }
        return decisions;
    };
    const auto first = record();
    const auto second = record();
    REQUIRE( first == second );
    REQUIRE( std::count( first.begin(), first.end(), true ) > 0 );
    REQUIRE( std::count( first.begin(), first.end(), false ) > 0 );
    failsafe::disarm( FaultPoint::SERVE_WRITE );

    /* drawBelow stays in range and is degenerate for bound <= 1. */
    failsafe::configure( FaultPoint::IO_READ, 1.0, 3 );
    REQUIRE( failsafe::drawBelow( FaultPoint::IO_READ, 1 ) == 0 );
    for ( int i = 0; i < 100; ++i ) {
        REQUIRE( failsafe::drawBelow( FaultPoint::IO_READ, 4 ) < 4 );
    }
    failsafe::disarm( FaultPoint::IO_READ );

    /* The alloc point throws std::bad_alloc, exactly like the real thing. */
    failsafe::maybeFailAllocation();  /* disarmed: no throw */
    failsafe::configure( FaultPoint::ALLOC, 1.0 );
    REQUIRE_THROWS_AS( failsafe::maybeFailAllocation(), std::bad_alloc );
    failsafe::disarm( FaultPoint::ALLOC );

    /* Latency: a firing probe sleeps the configured duration. */
    failsafe::configure( FaultPoint::POOL_TASK, 1.0, 0, 20'000 );
    const auto begin = std::chrono::steady_clock::now();
    REQUIRE( failsafe::shouldInject( FaultPoint::POOL_TASK ) );
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - begin ).count();
    REQUIRE( elapsed >= 15'000 );
    failsafe::disarmAll();
}

void
testSpecParsing()
{
    failsafe::disarmAll();

    REQUIRE( failsafe::configureFromSpec( "io.read:0.5" ) );
    REQUIRE( failsafe::armed( FaultPoint::IO_READ ) );
    failsafe::disarmAll();

    REQUIRE( failsafe::configureFromSpec( "chunk.decode:0.1:42:1000,serve.write:1,pool.task:0.2:9" ) );
    REQUIRE( failsafe::armed( FaultPoint::CHUNK_DECODE ) );
    REQUIRE( failsafe::armed( FaultPoint::SERVE_WRITE ) );
    REQUIRE( failsafe::armed( FaultPoint::POOL_TASK ) );
    REQUIRE( !failsafe::armed( FaultPoint::IO_READ ) );
    failsafe::disarmAll();

    /* Rate 0 in a spec leaves the point disarmed. */
    REQUIRE( failsafe::configureFromSpec( "alloc:0" ) );
    REQUIRE( !failsafe::armed( FaultPoint::ALLOC ) );

    /* Malformed entries are rejected wholesale. */
    REQUIRE( !failsafe::configureFromSpec( "bogus:0.5" ) );
    REQUIRE( !failsafe::configureFromSpec( "io.read" ) );
    REQUIRE( !failsafe::configureFromSpec( "io.read:" ) );
    REQUIRE( !failsafe::configureFromSpec( "io.read:abc" ) );
    REQUIRE( !failsafe::configureFromSpec( "io.read:0.5:seed" ) );
    REQUIRE( !failsafe::configureFromSpec( "io.read:0.5:1:" ) );
    REQUIRE( !failsafe::configureFromSpec( "io.read:0.5junk" ) );

    /* Environment entry point: unset is fine, malformed reports false. */
    ::unsetenv( "RAPIDGZIP_FAULTS" );
    REQUIRE( failsafe::configureFromEnvironment() );
    ::setenv( "RAPIDGZIP_FAULTS", "chunk.decode:notarate", 1 );
    REQUIRE( !failsafe::configureFromEnvironment() );
    ::setenv( "RAPIDGZIP_FAULTS", "io.read:0.25:11", 1 );
    REQUIRE( failsafe::configureFromEnvironment() );
    REQUIRE( failsafe::armed( FaultPoint::IO_READ ) );
    ::unsetenv( "RAPIDGZIP_FAULTS" );
    failsafe::disarmAll();
}

/* --- deterministic FileReader faults ------------------------------------ */

void
testFaultyFileReaderSchedules()
{
    std::vector<std::uint8_t> data( 64 * KiB );
    for ( std::size_t i = 0; i < data.size(); ++i ) {
        data[i] = static_cast<std::uint8_t>( i * 131 );
    }

    /* Every 3rd pread throws on schedule, across clones. */
    {
        FaultyFileReader::Behavior behavior;
        behavior.failEveryN = 3;
        FaultyFileReader reader( std::make_unique<MemoryFileReader>( data ), behavior );
        const auto clone = reader.clone();
        std::vector<std::uint8_t> buffer( 128 );
        std::size_t thrown = 0;
        for ( int call = 1; call <= 12; ++call ) {
            auto& source = ( call % 2 == 0 ) ? *clone : reader;
            try {
                REQUIRE( source.pread( buffer.data(), buffer.size(), 0 ) == buffer.size() );
            } catch ( const FileIoError& ) {
                ++thrown;
            }
        }
        REQUIRE( thrown == 4 );  /* calls 3, 6, 9, 12 */
        REQUIRE( reader.callCount() == 12 );
        REQUIRE( reader.faultCount() == 4 );
    }

    /* Short reads heal through preadExactly: full size, right bytes. */
    {
        FaultyFileReader::Behavior behavior;
        behavior.shortReadEveryN = 2;
        FaultyFileReader reader( std::make_unique<MemoryFileReader>( data ), behavior );
        std::vector<std::uint8_t> buffer( 256 );
        for ( std::size_t offset = 0; offset < 4096; offset += 256 ) {
            preadExactly( reader, buffer.data(), buffer.size(), offset );
            REQUIRE( std::memcmp( buffer.data(), data.data() + offset, buffer.size() ) == 0 );
        }
        REQUIRE( reader.faultCount() > 0 );
    }

    /* The fault budget models a healing device: after maxFaults, clean. */
    {
        FaultyFileReader::Behavior behavior;
        behavior.failEveryN = 1;
        behavior.maxFaults = 2;
        FaultyFileReader reader( std::make_unique<MemoryFileReader>( data ), behavior );
        std::vector<std::uint8_t> buffer( 64 );
        REQUIRE_THROWS_AS( (void)reader.pread( buffer.data(), buffer.size(), 0 ), FileIoError );
        REQUIRE_THROWS_AS( (void)reader.pread( buffer.data(), buffer.size(), 0 ), FileIoError );
        for ( int i = 0; i < 8; ++i ) {
            REQUIRE( reader.pread( buffer.data(), buffer.size(), 0 ) == buffer.size() );
        }
        REQUIRE( reader.faultCount() == 2 );
    }
}

/* --- chunk-decode isolation --------------------------------------------- */

void
testChunkDecodeRetryAndRecovery()
{
    failsafe::disarmAll();
    telemetry::setMetricsEnabled( true );

    const auto data = workloads::base64Data( 1 * MiB, 17 );
    const auto file = compressPigzLike( data, 6, 64 * KiB );

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;

    std::vector<std::uint8_t> decoded( data.size() );

    /* Every decode fails permanently on a FRESH reader (nothing cached
     * yet, so every chunk really decodes): the read throws instead of
     * hanging or fabricating bytes, and the failure is counted. */
    auto reader = formats::makeDecompressor(
        std::make_unique<MemoryFileReader>( file ), configuration );
    failsafe::configure( FaultPoint::CHUNK_DECODE, 1.0, /* seed */ 5 );
    bool threw = false;
    try {
        (void)reader->readAt( 0, decoded.data(), decoded.size() );
    } catch ( const std::exception& ) {
        threw = true;
    }
    REQUIRE( threw );
    REQUIRE( failsafe::injectionCount( FaultPoint::CHUNK_DECODE ) > 0 );

    /* Retries and permanent failures surfaced through telemetry. */
    const auto rendered = telemetry::Registry::instance().renderPrometheus();
    REQUIRE( rendered.find( "rapidgzip_chunk_decode_retries_total" ) != std::string::npos );
    REQUIRE( rendered.find( "rapidgzip_chunk_decode_failures_total" ) != std::string::npos );

    /* Poisoned futures are evicted: the SAME reader heals once the fault
     * clears — no restart, no stale failed chunk, no cached garbage. */
    failsafe::disarmAll();
    std::fill( decoded.begin(), decoded.end(), 0 );
    REQUIRE( reader->readAt( 0, decoded.data(), decoded.size() ) == data.size() );
    REQUIRE( decoded == data );

    /* Transient faults (one in five attempts) are absorbed by the bounded
     * in-place retry: reads stay byte-exact. Each round opens a fresh
     * reader so the chunks decode again instead of replaying the healthy
     * cache. With three attempts per chunk a hard failure needs three
     * consecutive fires (p = 0.8 %); accept the rare typed error, never
     * wrong bytes. */
    failsafe::configure( FaultPoint::CHUNK_DECODE, 0.2, /* seed */ 23 );
    for ( int round = 0; round < 3; ++round ) {
        auto transientReader = formats::makeDecompressor(
            std::make_unique<MemoryFileReader>( file ), configuration );
        std::fill( decoded.begin(), decoded.end(), 0 );
        try {
            REQUIRE( transientReader->readAt( 0, decoded.data(), decoded.size() ) == data.size() );
            REQUIRE( decoded == data );
        } catch ( const std::exception& ) {
            /* acceptable unlucky streak; recovery is re-proven below */
        }
    }
    failsafe::disarmAll();
    std::fill( decoded.begin(), decoded.end(), 0 );
    REQUIRE( reader->readAt( 0, decoded.data(), decoded.size() ) == data.size() );
    REQUIRE( decoded == data );

    telemetry::setMetricsEnabled( false );
}

void
testCacheNeverStoresFailures()
{
    LruChunkCache cache( 4 * MiB );
    const ChunkCacheKey key{ 77, 3 };

    REQUIRE_THROWS_AS(
        (void)cache.getOrDecode( key, [] () -> LruChunkCache::ChunkDataPtr {
            throw failsafe::FaultInjectedError( "decode" );
        } ),
        failsafe::FaultInjectedError );
    REQUIRE( cache.get( key ) == nullptr );

    const auto decoded = cache.getOrDecode( key, [] () {
        auto chunk = std::make_shared<DecodedChunk>();
        chunk->data.assign( 512, 0xAB );
        return chunk;
    } );
    REQUIRE( decoded != nullptr );
    REQUIRE( cache.get( key ) != nullptr );
}

/* --- decode campaign over every backend --------------------------------- */

[[nodiscard]] std::string
makeTempDirectory()
{
    char templatePath[] = "/tmp/rapidgzip-failsafe-test-XXXXXX";
    const char* path = ::mkdtemp( templatePath );
    REQUIRE( path != nullptr );
    return path;
}

void
writeFile( const std::string& path, const std::vector<std::uint8_t>& bytes )
{
    std::FILE* file = std::fopen( path.c_str(), "wb" );
    REQUIRE( file != nullptr );
    REQUIRE( std::fwrite( bytes.data(), 1, bytes.size(), file ) == bytes.size() );
    REQUIRE( std::fclose( file ) == 0 );
}

void
testDecodeCampaign()
{
    failsafe::disarmAll();
    const auto directory = makeTempDirectory();

    struct Corpus
    {
        std::string path;
        std::vector<std::uint8_t> data;
    };
    std::vector<Corpus> corpora;

    {
        const auto data = workloads::base64Data( 768 * KiB, 31 );
        writeFile( directory + "/campaign.gz", compressPigzLike( data, 6, 64 * KiB ) );
        corpora.push_back( { directory + "/campaign.gz", data } );
    }
    {
        const auto data = workloads::silesiaLikeData( 384 * KiB, 32 );
        writeFile( directory + "/campaign.lz4",
                   formats::writeLz4( data, formats::Lz4Writer::BlockMaxSize::KIB64 ) );
        corpora.push_back( { directory + "/campaign.lz4", data } );
    }
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
    {
        const auto data = workloads::base64Data( 384 * KiB, 33 );
        writeFile( directory + "/campaign.zst", formats::writeZstdSeekable( data, 3, 64 * KiB ) );
        corpora.push_back( { directory + "/campaign.zst", data } );
    }
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
    {
        const auto data = workloads::silesiaLikeData( 384 * KiB, 34 );
        writeFile( directory + "/campaign.bz2", formats::writeBzip2( data, 1 ) );
        corpora.push_back( { directory + "/campaign.bz2", data } );
    }
#endif

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;

    constexpr double RATES[] = { 0.01, 0.05, 0.10 };
    std::size_t successes = 0;
    std::size_t typedFailures = 0;

    for ( const auto& corpus : corpora ) {
        for ( const auto rate : RATES ) {
            for ( std::uint64_t trial = 0; trial < 3; ++trial ) {
                /* Fresh seeds per trial so the campaign explores distinct
                 * fault schedules while staying reproducible. */
                const auto seed = static_cast<std::uint64_t>( rate * 1000 ) * 1000 + trial;
                failsafe::configure( FaultPoint::IO_READ, rate, seed );
                failsafe::configure( FaultPoint::CHUNK_DECODE, rate, seed + 1 );
                failsafe::configure( FaultPoint::ALLOC, rate / 4, seed + 2 );
                try {
                    auto reader = formats::openArchive( corpus.path, configuration );
                    std::vector<std::uint8_t> decoded( corpus.data.size() );
                    const auto got = reader->readAt( 0, decoded.data(), decoded.size() );
                    /* Success must mean byte-exact success — a fault may
                     * abort a read, never silently corrupt it. */
                    REQUIRE( got == corpus.data.size() );
                    REQUIRE( decoded == corpus.data );
                    ++successes;
                } catch ( const std::exception& ) {
                    ++typedFailures;  /* typed and contained — acceptable */
                }
                failsafe::disarmAll();
            }
        }

        /* After every campaign the archive reads back clean: faults left
         * no persistent damage (no sidecar, no cache, no global state). */
        auto reader = formats::openArchive( corpus.path, configuration );
        std::vector<std::uint8_t> decoded( corpus.data.size() );
        REQUIRE( reader->readAt( 0, decoded.data(), decoded.size() ) == corpus.data.size() );
        REQUIRE( decoded == corpus.data );
    }

    /* The campaign must have actually exercised the probes, and the
     * low-rate runs mostly succeed (transient-retry absorbs 1 % rates). */
    REQUIRE( failsafe::probeCount( FaultPoint::IO_READ ) > 0 );
    REQUIRE( failsafe::probeCount( FaultPoint::CHUNK_DECODE ) > 0 );
    REQUIRE( successes + typedFailures == corpora.size() * 3 * 3 );
    REQUIRE( successes > 0 );
}

#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
/**
 * A bzip2 block decode that fails past its retries makes decompress() fall
 * back to the whole-stream decode midway; the sink must then resume after
 * the bytes the block sweep already emitted, never stream them twice.
 */
void
testBzip2FallbackResumesSink()
{
    failsafe::disarmAll();
    const auto data = workloads::fastqData( 2 * MiB, 0xB217 );
    const auto file = formats::writeBzip2( data, 1 );

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;

    std::size_t completed = 0;
    for ( std::uint64_t seed = 1; seed <= 20; ++seed ) {
        auto decompressor = formats::makeDecompressor( std::make_unique<MemoryFileReader>( file ),
                                                       configuration );
        failsafe::configure( FaultPoint::CHUNK_DECODE, 0.5, seed );
        std::vector<std::uint8_t> received;
        try {
            const auto total = decompressor->decompress( [&received] ( BufferView view ) {
                received.insert( received.end(), view.begin(), view.end() );
            } );
            REQUIRE( total == data.size() );
            REQUIRE( received == data );
            ++completed;
        } catch ( const RapidgzipError& ) {
            /* a typed failure is acceptable; duplicated bytes are not */
        }
        failsafe::disarmAll();
    }
    REQUIRE( completed > 0 );
}
#endif

/* --- loopback serve campaign -------------------------------------------- */

struct ClientResponse
{
    int status{ 0 };
    std::map<std::string, std::string> headers;
    std::string body;
};

/** Minimal blocking HTTP/1.1 client (EINTR-robust reads). */
class HttpClient
{
public:
    explicit HttpClient( std::uint16_t port )
    {
        m_fd = ::socket( AF_INET, SOCK_STREAM, 0 );
        REQUIRE( m_fd >= 0 );
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port = htons( port );
        REQUIRE( ::inet_pton( AF_INET, "127.0.0.1", &address.sin_addr ) == 1 );
        REQUIRE( ::connect( m_fd, reinterpret_cast<sockaddr*>( &address ),
                            sizeof( address ) ) == 0 );
    }

    ~HttpClient()
    {
        if ( m_fd >= 0 ) {
            ::close( m_fd );
        }
    }

    HttpClient( const HttpClient& ) = delete;
    HttpClient& operator=( const HttpClient& ) = delete;

    void
    send( const std::string& raw ) const
    {
        std::size_t sent = 0;
        while ( sent < raw.size() ) {
            const auto got = ::send( m_fd, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL );
            if ( ( got < 0 ) && ( errno == EINTR ) ) {
                continue;
            }
            REQUIRE( got > 0 );
            sent += static_cast<std::size_t>( got );
        }
    }

    /** True when response bytes have arrived that no read consumed yet. */
    [[nodiscard]] bool
    hasUnreadBytes() const
    {
        char byte = 0;
        return !m_buffer.empty() || ( ::recv( m_fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT ) > 0 );
    }

    [[nodiscard]] bool
    readResponse( ClientResponse& response, bool expectBody = true )
    {
        std::size_t headerEnd = std::string::npos;
        while ( ( headerEnd = m_buffer.find( "\r\n\r\n" ) ) == std::string::npos ) {
            if ( !fill() ) {
                return false;
            }
        }
        response = ClientResponse{};
        const auto head = m_buffer.substr( 0, headerEnd );
        const auto statusBegin = head.find( ' ' );
        REQUIRE( statusBegin != std::string::npos );
        response.status = std::atoi( head.c_str() + statusBegin + 1 );
        std::size_t lineBegin = head.find( "\r\n" );
        while ( ( lineBegin != std::string::npos ) && ( lineBegin + 2 < head.size() ) ) {
            lineBegin += 2;
            auto lineEnd = head.find( "\r\n", lineBegin );
            if ( lineEnd == std::string::npos ) {
                lineEnd = head.size();
            }
            const auto line = head.substr( lineBegin, lineEnd - lineBegin );
            const auto colon = line.find( ':' );
            if ( colon != std::string::npos ) {
                auto name = line.substr( 0, colon );
                std::transform( name.begin(), name.end(), name.begin(),
                                [] ( unsigned char c ) { return std::tolower( c ); } );
                auto value = line.substr( colon + 1 );
                const auto valueBegin = value.find_first_not_of( ' ' );
                response.headers[name] = valueBegin == std::string::npos
                                         ? std::string{} : value.substr( valueBegin );
            }
            lineBegin = lineEnd;
        }

        std::size_t contentLength = 0;
        if ( const auto match = response.headers.find( "content-length" );
             match != response.headers.end() ) {
            contentLength = static_cast<std::size_t>( std::atoll( match->second.c_str() ) );
        }
        const auto bodyLength = expectBody ? contentLength : 0;
        while ( m_buffer.size() < headerEnd + 4 + bodyLength ) {
            if ( !fill() ) {
                return false;
            }
        }
        response.body = m_buffer.substr( headerEnd + 4, bodyLength );
        m_buffer.erase( 0, headerEnd + 4 + bodyLength );
        return true;
    }

private:
    [[nodiscard]] bool
    fill()
    {
        while ( true ) {
            char chunk[16 * 1024];
            const auto got = ::recv( m_fd, chunk, sizeof( chunk ), 0 );
            if ( got > 0 ) {
                m_buffer.append( chunk, static_cast<std::size_t>( got ) );
                return true;
            }
            if ( ( got < 0 ) && ( errno == EINTR ) ) {
                continue;
            }
            return false;
        }
    }

    int m_fd{ -1 };
    std::string m_buffer;
};

[[nodiscard]] ClientResponse
simpleRequest( std::uint16_t port,
               const std::string& method,
               const std::string& target,
               const std::string& extraHeaders = {} )
{
    HttpClient client( port );
    client.send( method + " " + target + " HTTP/1.1\r\nHost: t\r\n" + extraHeaders
                 + "Connection: close\r\n\r\n" );
    ClientResponse response;
    REQUIRE( client.readResponse( response, /* expectBody */ method != "HEAD" ) );
    return response;
}

void
testServeFaultCampaign()
{
    std::signal( SIGPIPE, SIG_IGN );
    failsafe::disarmAll();

    const auto directory = makeTempDirectory();
    const auto data = workloads::base64Data( 256 * KiB, 41 );
    writeFile( directory + "/small.gz", compressPigzLike( data, 6, 64 * KiB ) );

    serve::ServerConfiguration configuration;
    configuration.port = 0;
    configuration.rootDirectory = directory;
    configuration.workerCount = 3;
    configuration.cacheBytes = 32 * MiB;
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 64 * KiB;

    serve::Server server( std::move( configuration ) );
    server.start();
    const auto port = server.port();
    REQUIRE( port != 0 );
    std::thread loop( [&server] () { server.run(); } );

    /* Flaky socket writes plus occasional decode faults: every response
     * must still be either a byte-exact 206 or a clean 500 — truncated or
     * corrupted bodies and hangs are the failure modes under test. */
    failsafe::configure( FaultPoint::SERVE_WRITE, 0.10, /* seed */ 51 );
    failsafe::configure( FaultPoint::CHUNK_DECODE, 0.02, /* seed */ 52 );

    constexpr std::size_t THREADS = 3;
    constexpr std::size_t REQUESTS = 6;
    constexpr std::size_t SLICE = 4096;
    std::atomic<std::size_t> ok{ 0 };
    std::atomic<std::size_t> failed{ 0 };
    std::atomic<std::size_t> invalid{ 0 };

    std::vector<std::thread> clients;
    for ( std::size_t t = 0; t < THREADS; ++t ) {
        clients.emplace_back( [&, t] () {
            for ( std::size_t i = 0; i < REQUESTS; ++i ) {
                const auto offset = ( ( t * 131 + i * 37 ) * 4099 ) % ( data.size() - SLICE );
                const auto range = "Range: bytes=" + std::to_string( offset ) + "-"
                                   + std::to_string( offset + SLICE - 1 ) + "\r\n";
                const auto response = simpleRequest( port, "GET", "/small.gz", range );
                if ( ( response.status == 206 )
                     && ( response.body.size() == SLICE )
                     && ( std::memcmp( response.body.data(),
                                       data.data() + offset, SLICE ) == 0 ) ) {
                    ++ok;
                } else if ( response.status == 500 ) {
                    ++failed;
                } else {
                    ++invalid;
                }
            }
        } );
    }
    for ( auto& client : clients ) {
        client.join();
    }

    REQUIRE( invalid.load() == 0 );
    REQUIRE( ok.load() + failed.load() == THREADS * REQUESTS );
    REQUIRE( ok.load() > 0 );
    REQUIRE( failsafe::probeCount( FaultPoint::SERVE_WRITE ) > 0 );

    /* Disarmed, the same archive serves byte-exact again. */
    failsafe::disarmAll();
    const auto clean = simpleRequest( port, "GET", "/small.gz", "Range: bytes=0-4095\r\n" );
    REQUIRE( clean.status == 206 );
    REQUIRE( clean.body.size() == 4096 );
    REQUIRE( std::memcmp( clean.body.data(), data.data(), 4096 ) == 0 );

    server.stop();
    loop.join();
}

void
testServeWithoutLeaseAndGracefulDrain()
{
    std::signal( SIGPIPE, SIG_IGN );
    failsafe::disarmAll();

    const auto directory = makeTempDirectory();
    const auto data = workloads::base64Data( 256 * KiB, 43 );
    const auto path = directory + "/small.gz";
    writeFile( path, compressPigzLike( data, 6, 64 * KiB ) );

    serve::ServerConfiguration configuration;
    configuration.port = 0;
    configuration.rootDirectory = directory;
    configuration.workerCount = 2;
    configuration.cacheBytes = 32 * MiB;
    configuration.drainTimeoutMs = 5'000;
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 64 * KiB;
    /* The sidecar index gives the archive its chunk table at open, so no
     * sweep decodes (and caches) every chunk. */
    std::size_t lastChunkStart = 0;
    {
        const auto decompressor = formats::openArchive( path, configuration.readerConfiguration,
                                                        /* adoptSidecar */ false );
        formats::writeSidecarIndex( *decompressor, path );
        const auto checkpoints = decompressor->exportIndex().checkpoints;
        REQUIRE( checkpoints.size() >= 2 );
        lastChunkStart = checkpoints.back().uncompressedOffset;
    }

    serve::Server server( std::move( configuration ) );
    server.start();
    const auto port = server.port();
    REQUIRE( port != 0 );
    std::thread loop( [&server] () { server.run(); } );

    /* Requests share the archive's reader without a lease: while one
     * request fails its decode slowly (every attempt injected, 100 ms each,
     * three attempts), a request for a cached range of the same archive is
     * answered first instead of queueing behind it. The cached range lies in
     * the last chunk, so reading it prefetches no other chunk. */
    const auto cachedOffset = lastChunkStart + 16;
    const auto cachedRange = "Range: bytes=" + std::to_string( cachedOffset ) + "-"
                             + std::to_string( cachedOffset + 63 ) + "\r\n";
    const auto warm = simpleRequest( port, "GET", "/small.gz", cachedRange );
    REQUIRE( warm.status == 206 );
    failsafe::configure( FaultPoint::CHUNK_DECODE, 1.0, /* seed */ 61, /* latency */ 100'000 );
    HttpClient slow( port );
    slow.send( "GET /small.gz HTTP/1.1\r\nHost: t\r\nRange: bytes=1000-1063\r\n\r\n" );
    std::this_thread::sleep_for( std::chrono::milliseconds( 60 ) );
    const auto cached = simpleRequest( port, "GET", "/small.gz", cachedRange );
    REQUIRE( cached.status == 206 );
    REQUIRE( cached.body.size() == 64 );
    REQUIRE( std::memcmp( cached.body.data(), data.data() + cachedOffset, 64 ) == 0 );
    REQUIRE( !slow.hasUnreadBytes() );  /* the failing request is still decoding */
    ClientResponse failed;
    REQUIRE( slow.readResponse( failed ) );
    REQUIRE( failed.status == 500 );
    failsafe::disarmAll();

    /* Graceful drain, deterministically: pool.task latency parks both
     * requests before their handlers run, drain begins in that window, so
     * the readiness probe answers 503 "draining" while the in-flight data
     * request still completes byte-exact. */
    failsafe::configure( FaultPoint::POOL_TASK, 1.0, /* seed */ 62, /* latency */ 200'000 );

    HttpClient readyProbe( port );
    readyProbe.send( "GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n" );
    HttpClient inflight( port );
    inflight.send( "GET /small.gz HTTP/1.1\r\nHost: t\r\nRange: bytes=1000-1063\r\n\r\n" );

    std::this_thread::sleep_for( std::chrono::milliseconds( 60 ) );
    server.beginDrain();
    REQUIRE( server.draining() );

    ClientResponse ready;
    REQUIRE( readyProbe.readResponse( ready ) );
    REQUIRE( ready.status == 503 );
    REQUIRE( ready.body == "draining\n" );

    ClientResponse ranged;
    REQUIRE( inflight.readResponse( ranged ) );
    REQUIRE( ranged.status == 206 );
    REQUIRE( ranged.body.size() == 64 );
    REQUIRE( std::memcmp( ranged.body.data(), data.data() + 1000, 64 ) == 0 );

    /* Drain wound every connection down: run() returns on its own. */
    loop.join();
    failsafe::disarmAll();
}

}  // namespace

int
main()
{
    testFrameworkBasics();
    testSpecParsing();
    testFaultyFileReaderSchedules();
    testChunkDecodeRetryAndRecovery();
    testCacheNeverStoresFailures();
    testDecodeCampaign();
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
    testBzip2FallbackResumesSink();
#endif
    testServeFaultCampaign();
    testServeWithoutLeaseAndGracefulDrain();
    return rapidgzip::test::finish( "testFailsafe" );
}
