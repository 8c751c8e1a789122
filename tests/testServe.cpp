/**
 * Unit tests for the serve subsystem (src/serve/): the incremental HTTP
 * request parser (arbitrary splits, pipelining, malformed and oversized
 * input), the RFC 9110 Range algebra, the byte-bounded LRU chunk cache
 * (budget invariant, eviction order, single-flight decode dedup), the
 * shared cache tier across independent readers, sidecar-index adoption,
 * and an end-to-end loopback run of the daemon: concurrent ranged GETs
 * against gzip (pigz-like, and BGZF without a sidecar) and, when the vendor
 * library is present, zstd archives, byte-compared with the reference data.
 * The daemon's thread count stays flat as archives open: readers decode on
 * the chunk cache's one pool. The shard loops answer cached ranges
 * themselves: with no worker task, never during a decode, never ahead of a
 * queued request, and one request per connection per loop round.
 */

#include <arpa/inet.h>
#include <dirent.h>
#include <limits.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ChunkCache.hpp"
#include "failsafe/FaultInjection.hpp"
#include "formats/Formats.hpp"
#include "formats/Lz4Writer.hpp"
#include "formats/Sidecar.hpp"
#include "gzip/BgzfWriter.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "serve/Http.hpp"
#include "serve/Server.hpp"
#include "workloads/DataGenerators.hpp"

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
#include "formats/ZstdWriter.hpp"
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
#include "formats/Bzip2Writer.hpp"
#endif

#include "TestHelpers.hpp"

using namespace rapidgzip;
using namespace rapidgzip::serve;

namespace {

/* --- request parser ---------------------------------------------------- */

void
testRequestParserBasics()
{
    RequestParser parser;
    const std::string raw = "GET /data.gz HTTP/1.1\r\n"
                            "Host: localhost\r\n"
                            "Range: bytes=0-99\r\n"
                            "\r\n";
    parser.feed( raw.data(), raw.size() );

    HttpRequest request;
    REQUIRE( parser.next( request ) );
    REQUIRE( request.method == "GET" );
    REQUIRE( request.target == "/data.gz" );
    REQUIRE( request.versionMinor == 1 );
    REQUIRE( request.header( "host" ) == "localhost" );
    REQUIRE( request.header( "range" ) == "bytes=0-99" );
    REQUIRE( request.header( "absent" ).empty() );
    REQUIRE( request.keepAlive() );
    REQUIRE( parser.bufferedBytes() == 0 );
    REQUIRE( !parser.next( request ) );  /* nothing further buffered */
    REQUIRE( !parser.failed() );

    /* Keep-alive defaults and overrides. */
    const auto parseOne = [] ( const std::string& text ) {
        RequestParser p;
        p.feed( text.data(), text.size() );
        HttpRequest r;
        REQUIRE( p.next( r ) );
        return r;
    };
    REQUIRE( !parseOne( "GET / HTTP/1.0\r\n\r\n" ).keepAlive() );
    REQUIRE( parseOne( "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n" ).keepAlive() );
    REQUIRE( !parseOne( "GET / HTTP/1.1\r\nConnection: close\r\n\r\n" ).keepAlive() );
    REQUIRE( parseOne( "HEAD /x HTTP/1.1\r\n\r\n" ).method == "HEAD" );

    /* Bare-LF tolerance and header value trimming. */
    const auto lenient = parseOne( "GET /y HTTP/1.1\nRange:   bytes=1-2  \n\n" );
    REQUIRE( lenient.target == "/y" );
    REQUIRE( lenient.header( "range" ) == "bytes=1-2" );
}

void
testRequestParserIncrementalAndPipelined()
{
    /* Byte-by-byte arrival must produce exactly one request at the end. */
    RequestParser parser;
    const std::string raw = "GET /a HTTP/1.1\r\nHost: h\r\n\r\n";
    HttpRequest request;
    for ( std::size_t i = 0; i + 1 < raw.size(); ++i ) {
        parser.feed( raw.data() + i, 1 );
        REQUIRE( !parser.next( request ) );
        REQUIRE( !parser.failed() );
    }
    parser.feed( raw.data() + raw.size() - 1, 1 );
    REQUIRE( parser.next( request ) );
    REQUIRE( request.target == "/a" );

    /* Two pipelined requests in one buffer come out one at a time, in
     * order, with the surplus staying buffered in between. */
    RequestParser pipelined;
    const std::string two = "GET /first HTTP/1.1\r\n\r\nGET /second HTTP/1.1\r\n\r\n";
    pipelined.feed( two.data(), two.size() );
    REQUIRE( pipelined.next( request ) );
    REQUIRE( request.target == "/first" );
    REQUIRE( pipelined.bufferedBytes() > 0 );
    REQUIRE( pipelined.next( request ) );
    REQUIRE( request.target == "/second" );
    REQUIRE( pipelined.bufferedBytes() == 0 );
}

void
testRequestParserFailures()
{
    const auto failureFor = [] ( const std::string& text ) {
        RequestParser parser;
        parser.feed( text.data(), text.size() );
        HttpRequest request;
        REQUIRE( !parser.next( request ) );
        REQUIRE( parser.failed() );
        return parser.failureStatus();
    };
    REQUIRE( failureFor( "GARBAGE\r\n\r\n" ) == 400 );
    REQUIRE( failureFor( "GET /\r\n\r\n" ) == 400 );              /* no version */
    REQUIRE( failureFor( "GET / HTTP/2.0\r\n\r\n" ) == 400 );     /* unsupported version */
    REQUIRE( failureFor( "GET  HTTP/1.1\r\n\r\n" ) == 400 );      /* empty target */
    REQUIRE( failureFor( "GET / HTTP/1.1\r\nBad Header : x\r\n\r\n" ) == 400 );
    REQUIRE( failureFor( "GET / HTTP/1.1\r\n: novalue\r\n\r\n" ) == 400 );

    /* Oversized header block: with and without a terminator in sight. */
    RequestParser oversized;
    const std::string filler( RequestParser::MAX_HEADER_BYTES + 1024, 'x' );
    oversized.feed( filler.data(), filler.size() );
    HttpRequest request;
    REQUIRE( !oversized.next( request ) );
    REQUIRE( oversized.failed() );
    REQUIRE( oversized.failureStatus() == 431 );

    RequestParser terminated;
    std::string huge = "GET / HTTP/1.1\r\n";
    while ( huge.size() <= RequestParser::MAX_HEADER_BYTES ) {
        huge += "X-Padding: ";
        huge += std::string( 120, 'p' );
        huge += "\r\n";
    }
    huge += "\r\n";
    terminated.feed( huge.data(), huge.size() );
    REQUIRE( !terminated.next( request ) );
    REQUIRE( terminated.failureStatus() == 431 );

    /* Failure is sticky: further feeds never produce requests. */
    const std::string good = "GET /ok HTTP/1.1\r\n\r\n";
    terminated.feed( good.data(), good.size() );
    REQUIRE( !terminated.next( request ) );
    REQUIRE( terminated.failed() );
}

/* --- Range algebra ----------------------------------------------------- */

void
testRangeResolution()
{
    const auto resolve = [] ( const std::string& header, std::size_t size ) {
        return resolveRange( header, size );
    };

    REQUIRE( resolve( "", 1000 ).outcome == RangeOutcome::NO_RANGE );
    REQUIRE( resolve( "items=0-4", 1000 ).outcome == RangeOutcome::NO_RANGE );
    REQUIRE( resolve( "bytes=abc-", 1000 ).outcome == RangeOutcome::NO_RANGE );
    REQUIRE( resolve( "bytes=0-499,600-700", 1000 ).outcome == RangeOutcome::NO_RANGE );
    REQUIRE( resolve( "bytes=5-2", 1000 ).outcome == RangeOutcome::NO_RANGE );
    REQUIRE( resolve( "bytes=", 1000 ).outcome == RangeOutcome::NO_RANGE );
    REQUIRE( resolve( "bytes=-", 1000 ).outcome == RangeOutcome::NO_RANGE );

    const auto plain = resolve( "bytes=0-99", 1000 );
    REQUIRE( plain.outcome == RangeOutcome::RANGE );
    REQUIRE( ( plain.first == 0 ) && ( plain.length == 100 ) );

    const auto open = resolve( "bytes=900-", 1000 );
    REQUIRE( open.outcome == RangeOutcome::RANGE );
    REQUIRE( ( open.first == 900 ) && ( open.length == 100 ) );

    const auto clamped = resolve( "bytes=500-99999", 1000 );
    REQUIRE( clamped.outcome == RangeOutcome::RANGE );
    REQUIRE( ( clamped.first == 500 ) && ( clamped.length == 500 ) );

    const auto suffix = resolve( "bytes=-100", 1000 );
    REQUIRE( suffix.outcome == RangeOutcome::RANGE );
    REQUIRE( ( suffix.first == 900 ) && ( suffix.length == 100 ) );

    const auto hugeSuffix = resolve( "bytes=-2000", 1000 );
    REQUIRE( hugeSuffix.outcome == RangeOutcome::RANGE );
    REQUIRE( ( hugeSuffix.first == 0 ) && ( hugeSuffix.length == 1000 ) );

    const auto single = resolve( "bytes=7-7", 1000 );
    REQUIRE( single.outcome == RangeOutcome::RANGE );
    REQUIRE( ( single.first == 7 ) && ( single.length == 1 ) );

    /* Unsigned-overflow hardening: a first-byte position just past
     * 2^64 − 1 must be IGNORED per RFC 9110 (→ full 200 response), not
     * wrapped modulo 2^64 and served as a bogus "bytes=1-" 206. Same for
     * overflowing last-byte positions, suffix lengths, and anything longer
     * than SIZE_MAX's 20 digits. */
    REQUIRE( resolve( "bytes=18446744073709551617-", 1000 ).outcome == RangeOutcome::NO_RANGE );
    REQUIRE( resolve( "bytes=0-18446744073709551617", 1000 ).outcome == RangeOutcome::NO_RANGE );
    REQUIRE( resolve( "bytes=-18446744073709551617", 1000 ).outcome == RangeOutcome::NO_RANGE );
    REQUIRE( resolve( "bytes=99999999999999999999-", 1000 ).outcome == RangeOutcome::NO_RANGE );
    REQUIRE( resolve( "bytes=111111111111111111111-", 1000 ).outcome == RangeOutcome::NO_RANGE );

    /* SIZE_MAX itself still parses — it is merely beyond the file. */
    REQUIRE( resolve( "bytes=18446744073709551615-", 1000 ).outcome
             == RangeOutcome::UNSATISFIABLE );

    REQUIRE( resolve( "bytes=1000-1010", 1000 ).outcome == RangeOutcome::UNSATISFIABLE );
    REQUIRE( resolve( "bytes=1000-", 1000 ).outcome == RangeOutcome::UNSATISFIABLE );
    REQUIRE( resolve( "bytes=-0", 1000 ).outcome == RangeOutcome::UNSATISFIABLE );
    REQUIRE( resolve( "bytes=0-", 0 ).outcome == RangeOutcome::UNSATISFIABLE );
    REQUIRE( resolve( "bytes=-5", 0 ).outcome == RangeOutcome::UNSATISFIABLE );
}

/* --- LRU chunk cache --------------------------------------------------- */

[[nodiscard]] std::shared_ptr<const DecodedChunk>
makeChunk( std::size_t size, std::uint8_t fill = 0 )
{
    auto chunk = std::make_shared<DecodedChunk>();
    chunk->data.assign( size, fill );
    return chunk;
}

/** Fill @p key through the cache's one way in, a decode on a miss; a
 * resident entry is refreshed instead. */
void
fillCache( LruChunkCache& cache, const ChunkCacheKey& key, LruChunkCache::ChunkDataPtr chunk )
{
    (void)cache.getOrDecode( key, [&chunk] () { return chunk; } );
}

void
testLruCacheBudgetInvariant()
{
    constexpr std::size_t ENTRY = 1024 + LruChunkCache::PER_ENTRY_OVERHEAD;
    LruChunkCache cache( 8 * ENTRY );
    Xorshift64 rng( 1234 );
    for ( int i = 0; i < 2000; ++i ) {
        const ChunkCacheKey key{ /* token */ 7, rng.below( 64 ) };
        if ( rng.below( 3 ) == 0 ) {
            (void)cache.get( key );
        } else {
            fillCache( cache, key, makeChunk( rng.below( 4096 ) ) );
        }
        const auto stats = cache.statistics();
        REQUIRE( stats.currentBytes <= stats.capacityBytes );
    }
    const auto stats = cache.statistics();
    REQUIRE( stats.insertions > 0 );
    REQUIRE( stats.evictions > 0 );
    REQUIRE( stats.hits + stats.misses == 2000 );  /* every lookup counts once */
}

void
testLruCacheCounting()
{
    LruChunkCache cache( 64 * KiB );
    const ChunkCacheKey held{ 5, 1 };
    const ChunkCacheKey absent{ 5, 2 };
    using Counts = std::pair<std::size_t, std::size_t>;
    const auto counts = [&cache] () {
        const auto stats = cache.statistics();
        return Counts{ stats.hits, stats.misses };
    };

    fillCache( cache, held, makeChunk( 100 ) );
    REQUIRE( counts() == Counts( 0, 1 ) );  /* the fill's lookup missed */

    REQUIRE( cache.get( held ) != nullptr );
    REQUIRE( counts() == Counts( 1, 1 ) );
    REQUIRE( cache.get( absent ) == nullptr );
    REQUIRE( counts() == Counts( 1, 2 ) );

    /* A lookup that will be repeated where it may wait counts its miss
     * there, not here; a hit counts either way. */
    REQUIRE( cache.get( absent, /* countMiss */ false ) == nullptr );
    REQUIRE( counts() == Counts( 1, 2 ) );
    REQUIRE( cache.get( held, /* countMiss */ false ) != nullptr );
    REQUIRE( counts() == Counts( 2, 2 ) );

    /* A refresh hands out no chunk and counts nothing. */
    REQUIRE( cache.refresh( held ) );
    REQUIRE( !cache.refresh( absent ) );
    REQUIRE( counts() == Counts( 2, 2 ) );

    fillCache( cache, held, makeChunk( 100 ) );
    REQUIRE( counts() == Counts( 3, 2 ) );
}

void
testLruCacheEvictionOrder()
{
    constexpr std::size_t SIZE = 100;
    constexpr std::size_t ENTRY = SIZE + LruChunkCache::PER_ENTRY_OVERHEAD;
    LruChunkCache cache( 3 * ENTRY );
    const auto key = [] ( std::size_t i ) { return ChunkCacheKey{ 1, i }; };

    fillCache( cache, key( 1 ), makeChunk( SIZE, 1 ) );
    fillCache( cache, key( 2 ), makeChunk( SIZE, 2 ) );
    fillCache( cache, key( 3 ), makeChunk( SIZE, 3 ) );
    REQUIRE( cache.get( key( 1 ) ) != nullptr );  /* refresh: 2 becomes LRU */
    fillCache( cache, key( 4 ), makeChunk( SIZE, 4 ) );

    REQUIRE( cache.get( key( 2 ) ) == nullptr );
    REQUIRE( cache.get( key( 1 ) ) != nullptr );
    REQUIRE( cache.get( key( 3 ) ) != nullptr );
    REQUIRE( cache.get( key( 4 ) ) != nullptr );
    REQUIRE( cache.statistics().evictions == 1 );

    /* A chunk larger than the whole budget is rejected, not cached. */
    fillCache( cache, key( 9 ), makeChunk( 10 * ENTRY ) );
    REQUIRE( cache.get( key( 9 ) ) == nullptr );
    REQUIRE( cache.statistics().oversizedRejections == 1 );

    /* So is stage-one output, whose 16-bit segment the budget does not
     * charge; an exact row's bytes are kept. */
    auto stageOne = std::make_shared<DecodedChunk>();
    stageOne->guess.emplace().firstSegment.marked.resize( 10 * ENTRY );
    const LruChunkCache::ChunkDataPtr decoded = stageOne;
    REQUIRE( cache.getOrDecode( key( 10 ), [&decoded] () { return decoded; } ) == decoded );
    REQUIRE( cache.get( key( 10 ) ) == nullptr );
    auto exactRow = std::make_shared<DecodedChunk>();
    exactRow->data.assign( SIZE, 11 );
    exactRow->guess.emplace().exact = true;
    fillCache( cache, key( 11 ), exactRow );
    REQUIRE( cache.get( key( 11 ) ) != nullptr );
}

void
testLruCacheSingleFlight()
{
    LruChunkCache cache( 64 * MiB );
    const ChunkCacheKey key{ 42, 7 };
    std::atomic<int> decodes{ 0 };

    std::vector<std::thread> threads;
    std::vector<LruChunkCache::ChunkDataPtr> results( 16 );
    for ( std::size_t i = 0; i < results.size(); ++i ) {
        threads.emplace_back( [&cache, &decodes, &results, key, i] () {
            results[i] = cache.getOrDecode( key, [&decodes] () {
                ++decodes;
                std::this_thread::sleep_for( std::chrono::milliseconds( 20 ) );
                return makeChunk( 512 );
            } );
        } );
    }
    for ( auto& thread : threads ) {
        thread.join();
    }

    REQUIRE( decodes.load() == 1 );
    for ( const auto& result : results ) {
        REQUIRE( result != nullptr );
        REQUIRE( result == results.front() );  /* everyone got THE decode */
    }
    REQUIRE( cache.statistics().insertions == 1 );

    /* A throwing decode reaches every waiter and leaves the cache usable. */
    const ChunkCacheKey failing{ 42, 8 };
    std::atomic<int> failures{ 0 };
    std::vector<std::thread> fallible;
    for ( int i = 0; i < 4; ++i ) {
        fallible.emplace_back( [&cache, &failures, failing] () {
            try {
                (void)cache.getOrDecode( failing, [] () -> LruChunkCache::ChunkDataPtr {
                    std::this_thread::sleep_for( std::chrono::milliseconds( 10 ) );
                    throw RapidgzipError( "synthetic decode failure" );
                } );
            } catch ( const std::exception& ) {
                ++failures;
            }
        } );
    }
    for ( auto& thread : fallible ) {
        thread.join();
    }
    REQUIRE( failures.load() >= 1 );  /* the decoder always; waiters that raced it too */
    const auto recovered = cache.getOrDecode( failing, [] () { return makeChunk( 64 ); } );
    REQUIRE( recovered != nullptr );
    REQUIRE( cache.get( failing ) != nullptr );
}

void
testSpanLifetimeAcrossEviction()
{
    constexpr std::size_t SIZE = 4096;
    constexpr std::size_t ENTRY = SIZE + LruChunkCache::PER_ENTRY_OVERHEAD;
    LruChunkCache cache( 2 * ENTRY );
    const auto key = [] ( std::size_t i ) { return ChunkCacheKey{ 3, i }; };

    auto victim = std::make_shared<DecodedChunk>();
    victim->data.resize( SIZE );
    for ( std::size_t i = 0; i < SIZE; ++i ) {
        victim->data[i] = static_cast<std::uint8_t>( i * 31 + 7 );
    }
    const std::vector<std::uint8_t> reference( victim->data );
    fillCache( cache, key( 1 ), victim );

    /* Borrow a span of the cached chunk — exactly what a queued response
     * body holds while sendmsg() drains it. */
    auto span = lendChunkSpan( cache.get( key( 1 ) ), 100, 1000 );
    REQUIRE( span.borrowed );
    REQUIRE( span.size == 1000 );
    victim.reset();  /* the cache and the span are now the only owners */

    /* Evict it: two more inserts blow the two-entry budget. */
    fillCache( cache, key( 2 ), makeChunk( SIZE ) );
    fillCache( cache, key( 3 ), makeChunk( SIZE ) );
    REQUIRE( cache.get( key( 1 ) ) == nullptr );  /* gone from the cache */
    REQUIRE( cache.statistics().evictions >= 1 );

    /* ...but the span still owns the bytes: eviction only dropped the
     * cache's reference, so an in-flight write finishes byte-exact. */
    REQUIRE( std::memcmp( span.data, reference.data() + 100, span.size ) == 0 );
    span.owner.reset();  /* the write finished; only now does the chunk die */
}

/* --- shared tier across readers ---------------------------------------- */

void
testSharedCacheAcrossReaders()
{
    const auto data = workloads::base64Data( 1 * MiB, 99 );
    const auto file = compressPigzLike( data, 6, 128 * KiB );

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 128 * KiB;
    configuration.sharedCache = std::make_shared<LruChunkCache>( 64 * MiB );
    configuration.cacheIdentity = 0xA5A5;

    std::vector<std::uint8_t> decoded( data.size() );
    auto first = formats::makeDecompressor(
        std::make_unique<MemoryFileReader>( file ), configuration );
    REQUIRE( first->readAt( 0, decoded.data(), decoded.size() ) == data.size() );
    REQUIRE( decoded == data );

    const auto afterFirst = configuration.sharedCache->statistics();
    REQUIRE( afterFirst.insertions > 0 );

    /* A second reader over the same archive + identity never decodes: every
     * chunk comes out of the shared tier. */
    std::fill( decoded.begin(), decoded.end(), 0 );
    auto second = formats::makeDecompressor(
        std::make_unique<MemoryFileReader>( file ), configuration );
    REQUIRE( second->readAt( 0, decoded.data(), decoded.size() ) == data.size() );
    REQUIRE( decoded == data );

    const auto afterSecond = configuration.sharedCache->statistics();
    REQUIRE( afterSecond.hits > afterFirst.hits );
    REQUIRE( afterSecond.insertions == afterFirst.insertions );

    /* A different identity must NOT share entries. */
    auto foreign = configuration;
    foreign.cacheIdentity = 0x5A5A;
    std::fill( decoded.begin(), decoded.end(), 0 );
    auto third = formats::makeDecompressor(
        std::make_unique<MemoryFileReader>( file ), foreign );
    REQUIRE( third->readAt( 0, decoded.data(), decoded.size() ) == data.size() );
    REQUIRE( decoded == data );
    REQUIRE( configuration.sharedCache->statistics().insertions > afterSecond.insertions );
}

void
testPrefetchSkipsResidentChunks()
{
    telemetry::setMetricsEnabled( true );
    const auto data = workloads::base64Data( 1 * MiB, 77 );
    const auto file = compressPigzLike( data, 6, 128 * KiB );

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 128 * KiB;
    configuration.sharedCache = std::make_shared<LruChunkCache>( 64 * MiB );
    configuration.cacheIdentity = 0xC0FFEE;

    std::vector<std::uint8_t> decoded( data.size() );
    {
        auto warm = formats::makeDecompressor( std::make_unique<MemoryFileReader>( file ), configuration );
        REQUIRE( warm->readAt( 0, decoded.data(), decoded.size() ) == data.size() );
    }

    /* A fresh reader of the same archive prefetches ahead of its sweep and
     * of its sequential reads, but the shared tier holds every chunk those
     * prefetches name, so none of them starts a task. */
    const auto& registry = telemetry::Registry::instance();
    const auto issuedBefore = registry.counterTotal( "rapidgzip_prefetch_issued_total" );
    const auto onDemandBefore = registry.counterTotal( "rapidgzip_chunk_on_demand_decodes_total" );
    auto reader = formats::makeDecompressor( std::make_unique<MemoryFileReader>( file ), configuration );
    std::fill( decoded.begin(), decoded.end(), 0 );
    constexpr std::size_t STEP = 48 * KiB;
    for ( std::size_t offset = 0; offset < data.size(); offset += STEP ) {
        const auto length = std::min( STEP, data.size() - offset );
        REQUIRE( reader->readAt( offset, decoded.data() + offset, length ) == length );
    }
    REQUIRE( decoded == data );
    REQUIRE( registry.counterTotal( "rapidgzip_prefetch_issued_total" ) == issuedBefore );
    REQUIRE( registry.counterTotal( "rapidgzip_chunk_on_demand_decodes_total" ) == onDemandBefore );
}

/* --- sidecar adoption -------------------------------------------------- */

[[nodiscard]] std::string
makeTempDirectory()
{
    char templatePath[] = "/tmp/rapidgzip-serve-test-XXXXXX";
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
testSidecarAdoption()
{
    const auto directory = makeTempDirectory();
    const auto data = workloads::silesiaLikeData( 768 * KiB, 7 );

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 128 * KiB;

    /* Open, measure and write the sidecar; then a fresh open adopts it and
     * serves a slice at @p sliceOffset. Then a sidecar that understates the
     * first chunk by 1000 bytes: either adoption refuses it, or the read at
     * its second checkpoint throws instead of returning the bytes from 1000
     * positions later. */
    const auto roundTrip = [&] ( const std::string& path, const std::vector<std::uint8_t>& archive,
                                 std::size_t sliceOffset ) {
        writeFile( path, archive );
        {
            auto cold = formats::openArchive( path, configuration );
            REQUIRE( cold->size() == data.size() );  /* forces discovery */
            formats::writeSidecarIndex( *cold, path );
        }
        auto fresh = formats::openArchive( path, configuration, /* adoptSidecar */ false );
        REQUIRE( formats::trySidecarAdoption( *fresh, path ) );
        REQUIRE( fresh->size() == data.size() );
        std::vector<std::uint8_t> slice( 4096 );
        REQUIRE( fresh->readAt( sliceOffset, slice.data(), slice.size() ) == slice.size() );
        REQUIRE( std::memcmp( slice.data(), data.data() + sliceOffset, slice.size() ) == 0 );

        const auto sidecarPath = formats::sidecarPathFor( path );
        auto index = index::deserializeIndex( StandardFileReader( sidecarPath ) );
        REQUIRE( index.checkpoints.size() >= 2 );
        index.checkpoints[1].uncompressedOffset -= 1000;
        writeFile( sidecarPath, index::serializeIndex( index ) );
        auto tampered = formats::openArchive( path, configuration, /* adoptSidecar */ false );
        if ( formats::trySidecarAdoption( *tampered, path ) ) {
            REQUIRE_THROWS_AS( (void)tampered->readAt( index.checkpoints[1].uncompressedOffset,
                                                       slice.data(), slice.size() ),
                               RapidgzipError );
        }
    };

    /* gzip: the sidecar carries the full bit-granular index with windows,
     * so adoption replaces the two-stage discovery sweep. */
    const auto gzipPath = directory + "/data.gz";
    roundTrip( gzipPath, compressGzipLike( data ), 300 * KiB );

    /* Frame backends adopt the sidecar's seek points; for lz4 and bzip2
     * blocks they replace the measuring decode sweep. */
    const auto lz4Path = directory + "/data.lz4";
    roundTrip( lz4Path, formats::writeLz4( data, formats::Lz4Writer::BlockMaxSize::KIB64 ), 500 * KiB );
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
    roundTrip( directory + "/data.zst", formats::writeZstdFrames( data, 3, 128 * KiB ), 400 * KiB );
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
    roundTrip( directory + "/data.bz2", formats::writeBzip2( data, 1 ), 600 * KiB );
#endif

    /* Stale sidecar (older than the archive) is ignored. */
    {
        struct stat archiveStat{};
        REQUIRE( ::stat( gzipPath.c_str(), &archiveStat ) == 0 );
        struct utimbuf oldTimes{};
        oldTimes.actime = archiveStat.st_mtime - 100;
        oldTimes.modtime = archiveStat.st_mtime - 100;
        REQUIRE( ::utime( formats::sidecarPathFor( gzipPath ).c_str(), &oldTimes ) == 0 );
        auto fresh = formats::openArchive( gzipPath, configuration, /* adoptSidecar */ false );
        REQUIRE( !formats::trySidecarAdoption( *fresh, gzipPath ) );
    }

    /* A sidecar recorded for a DIFFERENT archive (size mismatch) is
     * rejected even when it parses cleanly. */
    {
        const auto otherPath = directory + "/other.lz4";
        const auto otherData = workloads::base64Data( 100 * KiB, 8 );
        writeFile( otherPath, formats::writeLz4( otherData ) );
        const auto lz4Sidecar = formats::sidecarPathFor( lz4Path );
        std::FILE* in = std::fopen( lz4Sidecar.c_str(), "rb" );
        REQUIRE( in != nullptr );
        std::vector<std::uint8_t> sidecarBytes( 1 * MiB );
        sidecarBytes.resize( std::fread( sidecarBytes.data(), 1, sidecarBytes.size(), in ) );
        std::fclose( in );
        writeFile( formats::sidecarPathFor( otherPath ), sidecarBytes );
        auto fresh = formats::openArchive( otherPath, configuration, /* adoptSidecar */ false );
        REQUIRE( !formats::trySidecarAdoption( *fresh, otherPath ) );

        /* Corrupt sidecar (bit flip) fails the checksum and is ignored. */
        auto corrupt = sidecarBytes;
        corrupt[corrupt.size() / 2] ^= 0x40U;
        writeFile( lz4Sidecar, corrupt );
        auto lz4Fresh = formats::openArchive( lz4Path, configuration, /* adoptSidecar */ false );
        REQUIRE( !formats::trySidecarAdoption( *lz4Fresh, lz4Path ) );
    }
}

/* --- registry ----------------------------------------------------------- */

/** This process's open descriptors of the file at @p path. */
[[nodiscard]] std::size_t
openDescriptors( const std::string& path )
{
    char resolved[PATH_MAX];
    REQUIRE( ::realpath( path.c_str(), resolved ) != nullptr );
    std::size_t count = 0;
    DIR* const directory = ::opendir( "/proc/self/fd" );
    REQUIRE( directory != nullptr );
    while ( const auto* const entry = ::readdir( directory ) ) {
        char target[PATH_MAX];
        const auto link = std::string( "/proc/self/fd/" ) + entry->d_name;
        const auto length = ::readlink( link.c_str(), target, sizeof( target ) );
        if ( ( length > 0 ) && ( std::string( target, static_cast<std::size_t>( length ) ) == resolved ) ) {
            ++count;
        }
    }
    ::closedir( directory );
    return count;
}

/** Dropping an archive's last handle destroys its reader on the spot, which
 * closes the archive: the reader owns no threads, so nothing waits. */
void
testRegistryDropClosesArchive()
{
    const auto directory = makeTempDirectory();
    const auto data = workloads::base64Data( 256 * KiB, 61 );
    writeFile( directory + "/a.gz", compressPigzLike( data, 6, 64 * KiB ) );
    writeFile( directory + "/b.gz", compressPigzLike( data, 6, 64 * KiB ) );
    const auto path = directory + "/a.gz";

    ChunkFetcherConfiguration readerConfiguration;
    readerConfiguration.parallelism = 1;
    readerConfiguration.chunkSizeBytes = 64 * KiB;
    ArchiveRegistry registry( directory, /* maxArchives */ 1, std::make_shared<LruChunkCache>( 16 * MiB ),
                              readerConfiguration, RegistryLimits{} );

    /* Opening b.gz evicts a.gz, so the handle below is its reader's last. */
    auto handle = registry.open( "/a.gz" );
    REQUIRE( openDescriptors( path ) > 0 );
    (void)registry.open( "/b.gz" );
    handle.reset();
    REQUIRE( openDescriptors( path ) == 0 );
}

/* --- end-to-end over loopback ------------------------------------------ */

struct ClientResponse
{
    int status{ 0 };
    std::map<std::string, std::string> headers;
    std::string body;
};

/** Minimal blocking HTTP/1.1 client good for keep-alive and pipelining. */
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

    [[nodiscard]] int
    fd() const noexcept
    {
        return m_fd;
    }

    void
    send( const std::string& raw ) const
    {
        std::size_t sent = 0;
        while ( sent < raw.size() ) {
            const auto got = ::send( m_fd, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL );
            REQUIRE( got > 0 );
            sent += static_cast<std::size_t>( got );
        }
    }

    /** Whether bytes arrive within @p timeoutMs; reads none of them. */
    [[nodiscard]] bool
    readable( int timeoutMs ) const
    {
        pollfd entry{ m_fd, POLLIN, 0 };
        return ( ::poll( &entry, 1, timeoutMs ) > 0 ) && ( ( entry.revents & POLLIN ) != 0 );
    }

    /** Take what the socket holds now, without waiting, and count the
     * responses whose status line has arrived and is not read yet. */
    [[nodiscard]] std::size_t
    arrivedResponses()
    {
        char chunk[16 * 1024];
        ssize_t got = 0;
        while ( ( got = ::recv( m_fd, chunk, sizeof( chunk ), MSG_DONTWAIT ) ) > 0 ) {
            m_buffer.append( chunk, static_cast<std::size_t>( got ) );
        }
        std::size_t count = 0;
        for ( auto found = m_buffer.find( "HTTP/1.1 " ); found != std::string::npos;
              found = m_buffer.find( "HTTP/1.1 ", found + 1 ) ) {
            ++count;
        }
        return count;
    }

    /** False when the peer closed before a complete response arrived. */
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
        char chunk[16 * 1024];
        const auto got = ::recv( m_fd, chunk, sizeof( chunk ), 0 );
        if ( got <= 0 ) {
            return false;
        }
        m_buffer.append( chunk, static_cast<std::size_t>( got ) );
        return true;
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
testServeEndToEnd()
{
    std::signal( SIGPIPE, SIG_IGN );

    const auto directory = makeTempDirectory();
    const auto gzipData = workloads::base64Data( 1 * MiB, 11 );
    writeFile( directory + "/corpus.gz", compressPigzLike( gzipData, 6, 128 * KiB ) );
    /* BGZF without a sidecar: a fresh reader serves it from the BC-field
     * index, with no sweep. */
    const auto bgzfData = workloads::silesiaLikeData( 1 * MiB, 13 );
    writeFile( directory + "/corpus-bgzf.gz", writeBgzf( bgzfData, 6 ) );
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
    const auto zstdData = workloads::silesiaLikeData( 1 * MiB, 12 );
    writeFile( directory + "/corpus.zst", formats::writeZstdSeekable( zstdData, 3, 128 * KiB ) );
#endif

    ServerConfiguration configuration;
    configuration.port = 0;  /* ephemeral */
    configuration.rootDirectory = directory;
    configuration.workerCount = 4;
    configuration.cacheBytes = 64 * MiB;
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 128 * KiB;

    Server server( std::move( configuration ) );
    server.start();
    const auto port = server.port();
    REQUIRE( port != 0 );
    std::thread loop( [&server] () { server.run(); } );

    /* Full body. */
    const auto full = simpleRequest( port, "GET", "/corpus.gz" );
    REQUIRE( full.status == 200 );
    REQUIRE( full.body.size() == gzipData.size() );
    REQUIRE( std::memcmp( full.body.data(), gzipData.data(), gzipData.size() ) == 0 );

    /* Exact ranges, RFC response metadata included. */
    const auto ranged = simpleRequest( port, "GET", "/corpus.gz", "Range: bytes=100000-100063\r\n" );
    REQUIRE( ranged.status == 206 );
    REQUIRE( ranged.body.size() == 64 );
    REQUIRE( std::memcmp( ranged.body.data(), gzipData.data() + 100000, 64 ) == 0 );
    REQUIRE( ranged.headers.at( "content-range" )
             == "bytes 100000-100063/" + std::to_string( gzipData.size() ) );

    const auto suffix = simpleRequest( port, "GET", "/corpus.gz", "Range: bytes=-50\r\n" );
    REQUIRE( suffix.status == 206 );
    REQUIRE( suffix.body.size() == 50 );
    REQUIRE( std::memcmp( suffix.body.data(),
                          gzipData.data() + gzipData.size() - 50, 50 ) == 0 );

    /* Multi-range falls back to the full representation per the RFC. */
    const auto multi = simpleRequest( port, "GET", "/corpus.gz", "Range: bytes=0-1,10-11\r\n" );
    REQUIRE( multi.status == 200 );
    REQUIRE( multi.body.size() == gzipData.size() );

    /* An overflowing first-byte position (2^64 + 1) is IGNORED, not wrapped
     * to "bytes=1-": the daemon must answer 200 with the FULL file. The
     * pre-fix parser wrapped it and served a bogus off-by-one 206. */
    const auto overflow = simpleRequest( port, "GET", "/corpus.gz",
                                         "Range: bytes=18446744073709551617-\r\n" );
    REQUIRE( overflow.status == 200 );
    REQUIRE( overflow.body.size() == gzipData.size() );
    REQUIRE( std::memcmp( overflow.body.data(), gzipData.data(), gzipData.size() ) == 0 );

    /* HEAD announces the decompressed size without a body. */
    const auto head = simpleRequest( port, "HEAD", "/corpus.gz" );
    REQUIRE( head.status == 200 );
    REQUIRE( head.headers.at( "content-length" ) == std::to_string( gzipData.size() ) );
    REQUIRE( head.body.empty() );

    /* Error paths. */
    REQUIRE( simpleRequest( port, "GET", "/missing.gz" ).status == 404 );
    REQUIRE( simpleRequest( port, "GET", "/../testServe" ).status == 404 );
    REQUIRE( simpleRequest( port, "POST", "/corpus.gz" ).status == 405 );
    const auto unsatisfiable =
        simpleRequest( port, "GET", "/corpus.gz", "Range: bytes=99999999-\r\n" );
    REQUIRE( unsatisfiable.status == 416 );
    REQUIRE( unsatisfiable.headers.at( "content-range" )
             == "bytes */" + std::to_string( gzipData.size() ) );
    {
        HttpClient bad( port );
        bad.send( "GARBAGE\r\n\r\n" );
        ClientResponse response;
        REQUIRE( bad.readResponse( response ) );
        REQUIRE( response.status == 400 );
        REQUIRE( response.headers.at( "connection" ) == "close" );
    }

    const auto bgzfRanged =
        simpleRequest( port, "GET", "/corpus-bgzf.gz", "Range: bytes=300000-300999\r\n" );
    REQUIRE( bgzfRanged.status == 206 );
    REQUIRE( bgzfRanged.body.size() == 1000 );
    REQUIRE( std::memcmp( bgzfRanged.body.data(), bgzfData.data() + 300000, 1000 ) == 0 );
    REQUIRE( bgzfRanged.headers.at( "content-range" )
             == "bytes 300000-300999/" + std::to_string( bgzfData.size() ) );

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
    const auto zstdRanged =
        simpleRequest( port, "GET", "/corpus.zst", "Range: bytes=400000-400999\r\n" );
    REQUIRE( zstdRanged.status == 206 );
    REQUIRE( zstdRanged.body.size() == 1000 );
    REQUIRE( std::memcmp( zstdRanged.body.data(), zstdData.data() + 400000, 1000 ) == 0 );
#endif

    /* Keep-alive: several requests over ONE connection. */
    {
        HttpClient client( port );
        for ( int i = 0; i < 3; ++i ) {
            const std::size_t offset = 1000 + 777 * static_cast<std::size_t>( i );
            client.send( "GET /corpus.gz HTTP/1.1\r\nHost: t\r\nRange: bytes="
                         + std::to_string( offset ) + "-" + std::to_string( offset + 99 )
                         + "\r\n\r\n" );
            ClientResponse response;
            REQUIRE( client.readResponse( response ) );
            REQUIRE( response.status == 206 );
            REQUIRE( response.headers.at( "connection" ) == "keep-alive" );
            REQUIRE( std::memcmp( response.body.data(), gzipData.data() + offset, 100 ) == 0 );
        }
    }

    /* Pipelining: two requests in one write, two in-order responses. */
    {
        HttpClient client( port );
        client.send( "GET /corpus.gz HTTP/1.1\r\nHost: t\r\nRange: bytes=0-9\r\n\r\n"
                     "GET /corpus.gz HTTP/1.1\r\nHost: t\r\nRange: bytes=10-19\r\n\r\n" );
        ClientResponse first;
        ClientResponse second;
        REQUIRE( client.readResponse( first ) );
        REQUIRE( client.readResponse( second ) );
        REQUIRE( ( first.status == 206 ) && ( second.status == 206 ) );
        REQUIRE( std::memcmp( first.body.data(), gzipData.data(), 10 ) == 0 );
        REQUIRE( std::memcmp( second.body.data(), gzipData.data() + 10, 10 ) == 0 );
    }

    /* Concurrent ranged reads from many clients, byte-compared. */
    {
        std::atomic<int> mismatches{ 0 };
        std::vector<std::thread> clients;
        for ( std::size_t t = 0; t < 8; ++t ) {
            clients.emplace_back( [&, t] () {
                Xorshift64 rng( 100 + t );
                HttpClient client( port );
                for ( int i = 0; i < 16; ++i ) {
                    const auto offset = rng.below( gzipData.size() - 256 );
                    const auto length = 1 + rng.below( 256 );
                    client.send( "GET /corpus.gz HTTP/1.1\r\nHost: t\r\nRange: bytes="
                                 + std::to_string( offset ) + "-"
                                 + std::to_string( offset + length - 1 ) + "\r\n\r\n" );
                    ClientResponse response;
                    if ( !client.readResponse( response )
                         || ( response.status != 206 )
                         || ( response.body.size() != length )
                         || ( std::memcmp( response.body.data(), gzipData.data() + offset,
                                           length ) != 0 ) ) {
                        ++mismatches;
                        return;
                    }
                }
            } );
        }
        for ( auto& client : clients ) {
            client.join();
        }
        REQUIRE( mismatches.load() == 0 );
    }

    /* Peers that close mid-write (request a large body, then vanish without
     * reading) must not wedge or kill the server: the flush sees the reset,
     * the connection is reaped, and unrelated requests keep working. */
    {
        for ( int i = 0; i < 4; ++i ) {
            HttpClient goner( port );
            goner.send( "GET /corpus.gz HTTP/1.1\r\nHost: t\r\n\r\n" );
            /* Destructor closes with ~1 MiB of unread response in flight:
             * the kernel turns that into an RST for the server's send. */
        }
        std::this_thread::sleep_for( std::chrono::milliseconds( 50 ) );
        const auto survivor = simpleRequest( port, "GET", "/corpus.gz",
                                             "Range: bytes=5000-5099\r\n" );
        REQUIRE( survivor.status == 206 );
        REQUIRE( std::memcmp( survivor.body.data(), gzipData.data() + 5000, 100 ) == 0 );
    }

    /* The shared tier absorbed the repeat traffic. */
    const auto cacheStats = server.sharedCache().statistics();
    REQUIRE( cacheStats.insertions > 0 );
    REQUIRE( cacheStats.hits > 0 );

    const auto metrics = simpleRequest( port, "GET", "/metrics" );
    REQUIRE( metrics.status == 200 );
    REQUIRE( metrics.body.find( "rapidgzip_serve_requests_total" ) != std::string::npos );
    REQUIRE( metrics.body.find( "rapidgzip_serve_cache_hits" ) != std::string::npos );
    REQUIRE( metrics.body.find( "rapidgzip_serve_responses_2xx" ) != std::string::npos );

    server.stop();
    loop.join();
}

/** This process's thread count, from the Threads: line of /proc/self/status. */
[[nodiscard]] std::size_t
threadCount()
{
    std::FILE* const status = std::fopen( "/proc/self/status", "r" );
    REQUIRE( status != nullptr );
    std::size_t count = 0;
    char line[256];
    while ( std::fgets( line, sizeof( line ), status ) != nullptr ) {
        if ( std::strncmp( line, "Threads:", 8 ) == 0 ) {
            count = static_cast<std::size_t>( std::atoll( line + 8 ) );
        }
    }
    REQUIRE( std::fclose( status ) == 0 );
    return count;
}

/**
 * Readers on the shared tier own no threads: every decode runs on the chunk
 * cache's one pool. After one range of each of 64 archives, the daemon runs
 * as many threads as after the first archive's, where a pool per reader
 * would have added the readers' parallelism per archive.
 */
void
testServeThreadsDoNotGrowWithArchives()
{
    std::signal( SIGPIPE, SIG_IGN );
    constexpr std::size_t ARCHIVES = 64;
    const auto directory = makeTempDirectory();
    const auto data = workloads::base64Data( 64 * KiB, 64 );
    const auto compressed = compressPigzLike( data, 6, 16 * KiB );
    for ( std::size_t i = 0; i < ARCHIVES; ++i ) {
        writeFile( directory + "/" + std::to_string( i ) + ".gz", compressed );
    }

    ServerConfiguration configuration;
    configuration.port = 0;
    configuration.rootDirectory = directory;
    configuration.workerCount = 2;
    configuration.maxArchives = ARCHIVES;
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 16 * KiB;
    Server server( configuration );
    server.start();
    std::thread loop( [&server] () { server.run(); } );

    std::size_t threadsAfterFirst = 0;
    for ( std::size_t i = 0; i < ARCHIVES; ++i ) {
        const auto response = simpleRequest( server.port(), "GET", "/" + std::to_string( i ) + ".gz",
                                             "Range: bytes=1000-1063\r\n" );
        REQUIRE( ( response.status == 206 ) && ( response.body.size() == 64 ) );
        REQUIRE( std::memcmp( response.body.data(), data.data() + 1000, 64 ) == 0 );
        if ( i == 0 ) {
            threadsAfterFirst = threadCount();
        }
    }
    REQUIRE( threadCount() == threadsAfterFirst );

    server.stop();
    loop.join();
}

/* --- answers on the shard loop --------------------------------------- */

[[nodiscard]] std::string
rangeGet( const std::string& target, std::size_t first, std::size_t length )
{
    return "GET " + target + " HTTP/1.1\r\nHost: t\r\nRange: bytes=" + std::to_string( first ) + "-"
           + std::to_string( first + length - 1 ) + "\r\n\r\n";
}

void
expectRange( HttpClient& client, const std::vector<std::uint8_t>& data, std::size_t first,
             std::size_t length )
{
    ClientResponse response;
    REQUIRE( client.readResponse( response ) );
    REQUIRE( response.status == 206 );
    REQUIRE( response.body.size() == length );
    REQUIRE( std::memcmp( response.body.data(), data.data() + first, length ) == 0 );
}

[[nodiscard]] std::uint64_t
requestsOnLoop()
{
    return telemetry::Registry::instance().counterTotal( "rapidgzip_serve_requests_on_loop_total" );
}

/** Tasks any thread pool started: a pool samples a task's queue wait as the
 * task starts. */
[[nodiscard]] std::uint64_t
poolTasksStarted()
{
    return telemetry::Registry::instance().histogram( "rapidgzip_pool_task_wait_seconds" ).snapshot().count;
}

/** An archive with a sidecar index in a fresh directory; returns the
 * directory and the uncompressed offset of the archive's last chunk. */
[[nodiscard]] std::pair<std::string, std::size_t>
writeSidecarArchive( const std::vector<std::uint8_t>& data, const ChunkFetcherConfiguration& configuration )
{
    const auto directory = makeTempDirectory();
    const auto path = directory + "/corpus.gz";
    writeFile( path, compressPigzLike( data, 6, 128 * KiB ) );
    const auto decompressor = formats::openArchive( path, configuration );
    REQUIRE( decompressor->size() == data.size() );
    formats::writeSidecarIndex( *decompressor, path );
    const auto seekPoints = decompressor->seekPoints();
    REQUIRE( seekPoints.size() >= 4 );
    return { directory, seekPoints.back().uncompressedOffset };
}

void
testServeAnswersHitsOnLoop()
{
    std::signal( SIGPIPE, SIG_IGN );
    failsafe::disarmAll();

    const auto data = workloads::base64Data( 1 * MiB, 51 );
    ServerConfiguration configuration;
    configuration.port = 0;
    configuration.workerCount = 1;
    configuration.shardCount = 1;
    configuration.cacheBytes = 64 * MiB;
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 128 * KiB;
    const auto [directory, lastChunk] = writeSidecarArchive( data, configuration.readerConfiguration );
    configuration.rootDirectory = directory;

    Server server( std::move( configuration ) );
    server.start();
    const auto port = server.port();
    std::thread loop( [&server] () { server.run(); } );

    /* Nothing is prefetched after the last chunk, and nothing prefetches
     * the first. */
    const auto cached = lastChunk;
    const auto uncached = std::size_t( 1000 );
    constexpr std::size_t LENGTH = 4096;

    /* The first request opens the archive: a worker answers it. */
    const auto onLoopBefore = requestsOnLoop();
    HttpClient client( port );
    client.send( rangeGet( "/corpus.gz", cached, LENGTH ) );
    expectRange( client, data, cached, LENGTH );
    REQUIRE( requestsOnLoop() == onLoopBefore );

    /* Open, sized from the sidecar and decoded: the shard answers the same
     * range itself, and no pool starts a task. */
    const auto tasksBefore = poolTasksStarted();
    client.send( rangeGet( "/corpus.gz", cached, LENGTH ) );
    expectRange( client, data, cached, LENGTH );
    REQUIRE( requestsOnLoop() == onLoopBefore + 1 );
    REQUIRE( poolTasksStarted() == tasksBefore );

    /* An uncached range parks the only worker in a slow decode. The shard
     * answers a cached range on another connection meanwhile: no request
     * that needs a decode runs on the loop. */
    failsafe::configure( failsafe::FaultPoint::CHUNK_DECODE, 1.0, /* seed */ 71,
                         /* latency */ 800'000 );
    HttpClient missing( port );
    missing.send( rangeGet( "/corpus.gz", uncached, LENGTH ) );
    std::this_thread::sleep_for( std::chrono::milliseconds( 100 ) );
    HttpClient hit( port );
    hit.send( rangeGet( "/corpus.gz", cached, LENGTH ) );
    expectRange( hit, data, cached, LENGTH );
    REQUIRE( requestsOnLoop() == onLoopBefore + 2 );
    REQUIRE( !missing.readable( 0 ) );

    /* A request waits unstarted in the worker queue: a hit that arrives now
     * queues behind it instead of overtaking it. */
    HttpClient queued( port );
    queued.send( "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" );
    std::this_thread::sleep_for( std::chrono::milliseconds( 50 ) );
    HttpClient behind( port );
    behind.send( rangeGet( "/corpus.gz", cached, LENGTH ) );
    REQUIRE( !behind.readable( 100 ) );
    REQUIRE( !missing.readable( 0 ) );

    /* The decode retries without the fault, and the worker answers all
     * three in turn, the uncached range byte-exact. */
    failsafe::disarmAll();
    expectRange( missing, data, uncached, LENGTH );
    ClientResponse health;
    REQUIRE( queued.readResponse( health ) );
    REQUIRE( health.status == 200 );
    expectRange( behind, data, cached, LENGTH );
    REQUIRE( requestsOnLoop() == onLoopBefore + 2 );

    server.stop();
    loop.join();
}

void
testServePipelinedHitsTakeTurns()
{
    std::signal( SIGPIPE, SIG_IGN );

    const auto data = workloads::base64Data( 1 * MiB, 53 );
    ServerConfiguration configuration;
    configuration.port = 0;
    configuration.workerCount = 2;
    configuration.shardCount = 1;
    configuration.cacheBytes = 64 * MiB;
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 128 * KiB;
    configuration.rootDirectory = writeSidecarArchive( data, configuration.readerConfiguration ).first;

    Server server( std::move( configuration ) );
    server.start();
    const auto port = server.port();
    std::thread loop( [&server] () { server.run(); } );

    /* One full read decodes every chunk into the shared cache. */
    REQUIRE( simpleRequest( port, "GET", "/corpus.gz" ).body.size() == data.size() );

    /* Eight pipelined hits on one connection and one hit on another. The
     * single answer is read first: had the shard answered the whole batch
     * before it, all eight answers would have arrived by then. The shard
     * answers one request per connection per round, so the single one comes
     * between them, unless this client looked too late; hence the
     * attempts. */
    constexpr std::size_t LENGTH = 4096;
    const auto onLoopBefore = requestsOnLoop();
    bool between = false;
    std::size_t answered = 0;
    for ( std::size_t attempt = 0; ( attempt < 20 ) && !between; ++attempt ) {
        HttpClient batch( port );
        HttpClient single( port );
        std::string requests;
        for ( std::size_t i = 0; i < 8; ++i ) {
            requests += rangeGet( "/corpus.gz", i * 120'000 + attempt, LENGTH );
        }
        batch.send( requests );
        single.send( rangeGet( "/corpus.gz", 777'777 + attempt, 100 ) );
        expectRange( single, data, 777'777 + attempt, 100 );
        between = batch.arrivedResponses() < 8;
        for ( std::size_t i = 0; i < 8; ++i ) {
            expectRange( batch, data, i * 120'000 + attempt, LENGTH );
        }
        answered += 9;
    }
    REQUIRE( between );
    REQUIRE( requestsOnLoop() == onLoopBefore + answered );

    server.stop();
    loop.join();
}

void
testServePipelinedFloodKeepsBackpressure()
{
    std::signal( SIGPIPE, SIG_IGN );

    const auto data = workloads::base64Data( 1 * MiB, 57 );
    ServerConfiguration configuration;
    configuration.port = 0;
    configuration.workerCount = 1;
    configuration.shardCount = 1;
    configuration.cacheBytes = 16 * MiB;
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 128 * KiB;
    configuration.rootDirectory = writeSidecarArchive( data, configuration.readerConfiguration ).first;

    Server server( std::move( configuration ) );
    server.start();
    const auto port = server.port();
    std::thread loop( [&server] () { server.run(); } );

    /* Padded 4 KiB requests for one cached byte: every answer is the same
     * bytes. The first opens the archive and decodes its chunk. */
    const auto request = "GET /corpus.gz HTTP/1.1\r\nHost: t\r\nRange: bytes=0-0\r\nX-Padding: "
                         + std::string( 4000, 'p' ) + "\r\n\r\n";
    HttpClient client( port );
    const auto fd = client.fd();
    std::string answer;
    for ( int i = 0; i < 2; ++i ) {
        client.send( request );
        answer.clear();
        while ( ( answer.find( "\r\n\r\n" ) == std::string::npos )
                || ( answer.size() < answer.find( "\r\n\r\n" ) + 5 ) ) {
            char buffer[4096];
            const auto got = ::recv( fd, buffer, sizeof( buffer ), 0 );
            REQUIRE( got > 0 );
            if ( got <= 0 ) {
                break;
            }
            answer.append( buffer, static_cast<std::size_t>( got ) );
        }
    }
    REQUIRE( answer.compare( 0, 13, "HTTP/1.1 206 " ) == 0 );
    REQUIRE( answer.back() == static_cast<char>( data[0] ) );

    /* Pipeline 32 MiB of them while reading every answer. One read takes
     * the parser past a header block's worth at most, and the shard reads no
     * more of a connection while a request of it waits in the parser, so
     * the requests run ahead of their answers by the socket buffers and one
     * read at most. A read that ran until the socket was empty would take in
     * the flood as fast as the client sent it, while the shard answers one
     * request per round. */
    const int sendBuffer = 64 * KiB;
    REQUIRE( ::setsockopt( fd, SOL_SOCKET, SO_SNDBUF, &sendBuffer, sizeof( sendBuffer ) ) == 0 );
    constexpr std::size_t REQUESTS = 8192;
    constexpr std::size_t AHEAD_LIMIT = 8 * MiB;
    const auto streamBytes = REQUESTS * request.size();
    const auto onLoopBefore = requestsOnLoop();
    std::size_t sent = 0;
    std::size_t received = 0;
    std::size_t maxAhead = 0;
    bool intact = true;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes( 2 );
    while ( ( received < REQUESTS * answer.size() ) && ( maxAhead <= AHEAD_LIMIT ) && intact
            && ( std::chrono::steady_clock::now() < deadline ) ) {
        while ( sent < streamBytes ) {
            const auto offset = sent % request.size();
            const auto got = ::send( fd, request.data() + offset, request.size() - offset,
                                     MSG_NOSIGNAL | MSG_DONTWAIT );
            if ( got <= 0 ) {
                break;
            }
            sent += static_cast<std::size_t>( got );
        }
        char buffer[64 * 1024];
        ssize_t got = 0;
        while ( ( got = ::recv( fd, buffer, sizeof( buffer ), MSG_DONTWAIT ) ) > 0 ) {
            for ( std::size_t i = 0; i < static_cast<std::size_t>( got ); ++i ) {
                intact = intact && ( buffer[i] == answer[( received + i ) % answer.size()] );
            }
            received += static_cast<std::size_t>( got );
        }
        maxAhead = std::max( maxAhead, sent - received / answer.size() * request.size() );
        pollfd entry{ fd, static_cast<short>( sent < streamBytes ? POLLIN | POLLOUT : POLLIN ), 0 };
        (void)::poll( &entry, 1, 100 );
    }
    REQUIRE( intact );
    REQUIRE( maxAhead <= AHEAD_LIMIT );
    REQUIRE( received == REQUESTS * answer.size() );
    REQUIRE( requestsOnLoop() == onLoopBefore + REQUESTS );

    server.stop();
    loop.join();
}

/* --- multi-shard: SO_REUSEPORT event loops, eviction churn, drain ------- */

void
testServeMultiShard()
{
    std::signal( SIGPIPE, SIG_IGN );

    const auto directory = makeTempDirectory();
    const auto data = workloads::base64Data( 1 * MiB, 31 );
    writeFile( directory + "/corpus.gz", compressPigzLike( data, 6, 128 * KiB ) );

    ServerConfiguration configuration;
    configuration.port = 0;
    configuration.rootDirectory = directory;
    configuration.workerCount = 4;
    configuration.shardCount = 4;
    /* A budget of ~3 chunks over an 8-chunk archive: eviction churns
     * CONSTANTLY while responses are in flight. Byte-exact bodies under
     * this regime prove the refcounted spans pin their chunks across
     * eviction — the zero-copy lifetime argument, exercised end to end. */
    configuration.cacheBytes = 3 * ( 128 * KiB + LruChunkCache::PER_ENTRY_OVERHEAD );
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 128 * KiB;

    Server server( std::move( configuration ) );
    server.start();
    const auto port = server.port();
    REQUIRE( port != 0 );
    REQUIRE( server.shardCount() == 4 );
    std::thread loop( [&server] () { server.run(); } );

    const auto zeroCopyBefore = server.metrics().zeroCopyBytes.total();

    /* Concurrent ranged GETs from many keep-alive clients, byte-compared.
     * With SO_REUSEPORT the kernel spreads these across all four shards. */
    std::atomic<int> mismatches{ 0 };
    std::vector<std::thread> clients;
    for ( std::size_t t = 0; t < 8; ++t ) {
        clients.emplace_back( [&, t] () {
            Xorshift64 rng( 500 + t );
            HttpClient client( port );
            for ( int i = 0; i < 24; ++i ) {
                const auto offset = rng.below( data.size() - 4096 );
                const auto length = 1 + rng.below( 4096 );
                client.send( "GET /corpus.gz HTTP/1.1\r\nHost: t\r\nRange: bytes="
                             + std::to_string( offset ) + "-"
                             + std::to_string( offset + length - 1 ) + "\r\n\r\n" );
                ClientResponse response;
                if ( !client.readResponse( response )
                     || ( response.status != 206 )
                     || ( response.body.size() != length )
                     || ( std::memcmp( response.body.data(), data.data() + offset,
                                       length ) != 0 ) ) {
                    ++mismatches;
                    return;
                }
            }
        } );
    }
    for ( auto& client : clients ) {
        client.join();
    }
    REQUIRE( mismatches.load() == 0 );

    /* The tiny budget really did churn while writes were in flight. */
    REQUIRE( server.sharedCache().statistics().evictions > 0 );

    /* Keep-alive + pipelining against whichever shard accepted. */
    {
        HttpClient client( port );
        client.send( "GET /corpus.gz HTTP/1.1\r\nHost: t\r\nRange: bytes=0-9\r\n\r\n"
                     "GET /corpus.gz HTTP/1.1\r\nHost: t\r\nRange: bytes=10-19\r\n\r\n" );
        ClientResponse first;
        ClientResponse second;
        REQUIRE( client.readResponse( first ) );
        REQUIRE( client.readResponse( second ) );
        REQUIRE( ( first.status == 206 ) && ( second.status == 206 ) );
        REQUIRE( first.headers.at( "connection" ) == "keep-alive" );
        REQUIRE( std::memcmp( first.body.data(), data.data(), 10 ) == 0 );
        REQUIRE( std::memcmp( second.body.data(), data.data() + 10, 10 ) == 0 );

        /* The same connection still serves a third, separate request. */
        client.send( "GET /corpus.gz HTTP/1.1\r\nHost: t\r\nRange: bytes=20-29\r\n\r\n" );
        ClientResponse third;
        REQUIRE( client.readResponse( third ) );
        REQUIRE( third.status == 206 );
        REQUIRE( std::memcmp( third.body.data(), data.data() + 20, 10 ) == 0 );
    }

    /* Bodies were lent out of cached chunks, not copied. */
    REQUIRE( server.metrics().zeroCopyBytes.total() > zeroCopyBefore );

    server.stop();
    loop.join();
}

void
testServeMultiShardDrain()
{
    std::signal( SIGPIPE, SIG_IGN );
    failsafe::disarmAll();

    const auto directory = makeTempDirectory();
    const auto data = workloads::base64Data( 256 * KiB, 41 );
    writeFile( directory + "/small.gz", compressPigzLike( data, 6, 64 * KiB ) );

    ServerConfiguration configuration;
    configuration.port = 0;
    configuration.rootDirectory = directory;
    configuration.workerCount = 2;
    configuration.shardCount = 3;
    configuration.cacheBytes = 32 * MiB;
    configuration.drainTimeoutMs = 5'000;
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 64 * KiB;

    Server server( std::move( configuration ) );
    server.start();
    const auto port = server.port();
    REQUIRE( port != 0 );
    REQUIRE( server.shardCount() == 3 );
    std::thread loop( [&server] () { server.run(); } );

    /* Park every request in the worker pool for 200 ms so drain begins
     * while they are in flight. With connections spread over three shards,
     * this proves the drain transition reaches EVERY shard: each parked
     * request still completes byte-exact, every readiness probe answers
     * 503 process-wide, and run() returns once the LAST shard's
     * connection table empties. */
    failsafe::configure( failsafe::FaultPoint::POOL_TASK, 1.0, /* seed */ 62,
                         /* latency */ 200'000 );

    std::vector<std::unique_ptr<HttpClient> > probes;
    std::vector<std::unique_ptr<HttpClient> > inflight;
    for ( std::size_t i = 0; i < 6; ++i ) {
        probes.emplace_back( std::make_unique<HttpClient>( port ) );
        probes.back()->send( "GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n" );
        inflight.emplace_back( std::make_unique<HttpClient>( port ) );
        inflight.back()->send( "GET /small.gz HTTP/1.1\r\nHost: t\r\nRange: bytes="
                               + std::to_string( 1000 * ( i + 1 ) ) + "-"
                               + std::to_string( 1000 * ( i + 1 ) + 63 ) + "\r\n\r\n" );
    }

    std::this_thread::sleep_for( std::chrono::milliseconds( 60 ) );
    server.beginDrain();
    REQUIRE( server.draining() );

    for ( auto& probe : probes ) {
        ClientResponse ready;
        REQUIRE( probe->readResponse( ready ) );
        REQUIRE( ready.status == 503 );
        REQUIRE( ready.body == "draining\n" );
    }
    for ( std::size_t i = 0; i < inflight.size(); ++i ) {
        ClientResponse ranged;
        REQUIRE( inflight[i]->readResponse( ranged ) );
        REQUIRE( ranged.status == 206 );
        REQUIRE( ranged.body.size() == 64 );
        REQUIRE( std::memcmp( ranged.body.data(), data.data() + 1000 * ( i + 1 ), 64 ) == 0 );
    }

    /* Every shard wound its connections down: run() returns on its own. */
    loop.join();
    failsafe::disarmAll();
}

/* --- hardening: health endpoints, deadlines, admission, negative cache -- */

void
testServeHardening()
{
    std::signal( SIGPIPE, SIG_IGN );

    const auto directory = makeTempDirectory();
    const auto data = workloads::base64Data( 256 * KiB, 21 );
    writeFile( directory + "/small.gz", compressPigzLike( data, 6, 64 * KiB ) );
    /* No known magic: openArchive fails, feeding the negative open cache. */
    writeFile( directory + "/garbage.bin",
               std::vector<std::uint8_t>( 1024, std::uint8_t( 0x55 ) ) );
    /* A gzip header over a reserved block type: it opens, and its first
     * read fails. */
    std::vector<std::uint8_t> corrupt{ 0x1F, 0x8B, 0x08, 0, 0, 0, 0, 0, 0, 0xFF };
    corrupt.resize( 1024, 0xFF );
    writeFile( directory + "/corrupt.gz", corrupt );

    ServerConfiguration configuration;
    configuration.port = 0;
    configuration.rootDirectory = directory;
    configuration.workerCount = 2;
    configuration.cacheBytes = 16 * MiB;
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 64 * KiB;
    configuration.maxConnections = 3;
    configuration.headerReadTimeoutMs = 200;
    configuration.idleTimeoutMs = 400;
    configuration.writeTimeoutMs = 2000;
    configuration.drainTimeoutMs = 2000;
    configuration.failedOpenBackoffMs = 60'000;  /* second request surely inside the window */

    Server server( std::move( configuration ) );
    server.start();
    const auto port = server.port();
    std::thread loop( [&server] () { server.run(); } );

    /* Health endpoints. */
    REQUIRE( simpleRequest( port, "GET", "/healthz" ).status == 200 );
    REQUIRE( simpleRequest( port, "HEAD", "/healthz" ).status == 200 );
    const auto ready = simpleRequest( port, "GET", "/readyz" );
    REQUIRE( ready.status == 200 );
    REQUIRE( ready.body == "ready\n" );

    /* Slow loris: half a request line, then silence — the header-read
     * deadline answers 408 and closes instead of pinning the slot open. */
    {
        HttpClient slow( port );
        slow.send( "GET /small.gz HTTP/1.1\r\nHost:" );
        ClientResponse response;
        REQUIRE( slow.readResponse( response ) );
        REQUIRE( response.status == 408 );
        REQUIRE( response.headers.at( "connection" ) == "close" );
    }

    /* Admission: with every slot held, the next connection is told 503 with
     * Retry-After instead of hanging. */
    {
        HttpClient first( port );
        HttpClient second( port );
        HttpClient third( port );
        /* Prove the held connections are really established server-side. */
        first.send( "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" );
        ClientResponse ok;
        REQUIRE( first.readResponse( ok ) );
        REQUIRE( ok.status == 200 );

        HttpClient rejected( port );
        rejected.send( "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" );
        ClientResponse refusal;
        REQUIRE( rejected.readResponse( refusal ) );
        REQUIRE( refusal.status == 503 );
        REQUIRE( refusal.headers.at( "retry-after" ) == "1" );
    }

    /* The held clients just closed; the loop reaps them on its next wake.
     * Retry until a slot frees, then check the hardening counters. */
    {
        ClientResponse metrics;
        for ( int attempt = 0; attempt < 100; ++attempt ) {
            HttpClient client( port );
            client.send( "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" );
            if ( client.readResponse( metrics ) && ( metrics.status == 200 ) ) {
                break;
            }
            metrics = ClientResponse{};
            std::this_thread::sleep_for( std::chrono::milliseconds( 20 ) );
        }
        REQUIRE( metrics.status == 200 );
        REQUIRE( metrics.body.find( "rapidgzip_serve_timeouts_total" ) != std::string::npos );
        REQUIRE( metrics.body.find( "rapidgzip_serve_rejected_total{reason=\"max_connections\"}" )
                 != std::string::npos );
    }

    /* Failed opens are negative-cached: the retry inside the backoff window
     * is refused from the cache without re-probing the file. A failed open
     * is no archive request; every request for an opened archive is, a
     * read that fails included. */
    const auto archiveRequests = [] () {
        return telemetry::Registry::instance().counterTotal( "rapidgzip_serve_archive_requests_total" );
    };
    const auto archiveRequestsBefore = archiveRequests();
    REQUIRE( simpleRequest( port, "GET", "/garbage.bin" ).status == 500 );
    const auto cached = simpleRequest( port, "GET", "/garbage.bin" );
    REQUIRE( cached.status == 500 );
    REQUIRE( cached.body.find( "cached failure" ) != std::string::npos );
    REQUIRE( archiveRequests() == archiveRequestsBefore );
    REQUIRE( simpleRequest( port, "GET", "/corrupt.gz" ).status == 500 );
    REQUIRE( simpleRequest( port, "GET", "/corrupt.gz", "Range: bytes=0-9\r\n" ).status == 500 );
    REQUIRE( archiveRequests() == archiveRequestsBefore + 2 );

    /* Idle keep-alive connections are reaped by the idle deadline. */
    {
        HttpClient idle( port );
        idle.send( "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" );
        ClientResponse response;
        REQUIRE( idle.readResponse( response ) );
        REQUIRE( response.status == 200 );
        ClientResponse none;
        REQUIRE( !idle.readResponse( none ) );  /* server closes, no response */
    }

    /* Graceful drain: beginDrain() stops accepting and run() returns once
     * the remaining connections finish (all are closed by now). */
    server.beginDrain();
    REQUIRE( server.draining() );
    loop.join();
}

}  // namespace

int
main()
{
    testRequestParserBasics();
    testRequestParserIncrementalAndPipelined();
    testRequestParserFailures();
    testRangeResolution();
    testLruCacheBudgetInvariant();
    testLruCacheCounting();
    testLruCacheEvictionOrder();
    testLruCacheSingleFlight();
    testSpanLifetimeAcrossEviction();
    testSharedCacheAcrossReaders();
    testPrefetchSkipsResidentChunks();
    testSidecarAdoption();
    testRegistryDropClosesArchive();
    testServeEndToEnd();
    testServeThreadsDoNotGrowWithArchives();
    testServeAnswersHitsOnLoop();
    testServePipelinedHitsTakeTurns();
    testServePipelinedFloodKeepsBackpressure();
    testServeMultiShard();
    testServeMultiShardDrain();
    testServeHardening();
    return rapidgzip::test::finish( "testServe" );
}
