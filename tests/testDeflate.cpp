/**
 * deflate layer: the from-scratch two-stage decoder must reproduce zlib's
 * output exactly on every synthetic workload — from the stream start with an
 * empty window, and from arbitrary mid-stream block offsets with marker
 * replacement. The §3.3 fallback must trigger where back-references die out
 * (base64) and must NOT trigger where markers persist (FASTQ's long-range
 * header repeats), and marker replacement itself must honor the window
 * indexing convention end to end. Stored blocks and the output limit are
 * checked on hand-built streams against the reference loop and zlib, and
 * steady-state decoding must not allocate per block.
 */

#include <zlib.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "blockfinder/DynamicBlockFinderNaive.hpp"
#include "deflate/DecodedData.hpp"
#include "deflate/DeflateDecoder.hpp"
#include "gzip/DeflateBlockWriter.hpp"
#include "gzip/GzipHeader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

/* Every heap allocation of this test binary is counted, so a test can assert
 * how often a stretch of decoding allocates. The operators stay out of line:
 * inlined, GCC pairs each delete's free() with the new-expression it came
 * from and warns about a mismatch that the replacement pair rules out. */
namespace {
std::atomic<std::size_t> g_allocationCount{ 0 };
}  // namespace

[[gnu::noinline]] void*
operator new( std::size_t size )
{
    g_allocationCount.fetch_add( 1, std::memory_order_relaxed );
    if ( void* const pointer = std::malloc( size == 0 ? 1 : size ) ) {
        return pointer;
    }
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete( void* pointer ) noexcept
{
    std::free( pointer );
}

[[gnu::noinline]] void
operator delete( void* pointer, std::size_t /* size */ ) noexcept
{
    std::free( pointer );
}

using namespace rapidgzip;

namespace {

[[nodiscard]] BufferView
deflateStream( const std::vector<std::uint8_t>& gz )
{
    const auto start = parseGzipHeader( { gz.data(), gz.size() } );
    return { gz.data() + start, gz.size() - start };
}

/** Serial decode with the custom decoder (known empty window) vs reference. */
void
checkSerialRoundTrip( const std::vector<std::uint8_t>& data, int level )
{
    const auto gz = compressGzipLike( { data.data(), data.size() }, level );
    const auto stream = deflateStream( gz );

    BitReader reader( stream.data(), stream.size() );
    deflate::Decoder decoder;
    decoder.setInitialWindow( {} );
    deflate::DecodedData decoded;
    const auto result = decoder.decode( reader, decoded );

    REQUIRE( result.error == Error::NONE );
    REQUIRE( result.reachedFinalBlock );
    REQUIRE( result.blockCount > 0 );
    REQUIRE( decoded.marked.empty() );  /* known window => no 16-bit stage */

    std::vector<std::uint8_t> resolved;
    deflate::resolveInto( decoded, {}, resolved );
    REQUIRE( resolved == data );

    /* The reported end boundary must point at the footer. */
    const auto footerByte = ceilDiv<std::size_t>( result.endBitOffset, 8 );
    REQUIRE( footerByte + GZIP_FOOTER_SIZE <= stream.size() );
    const auto footer = parseGzipFooter( stream, footerByte + GZIP_FOOTER_SIZE );
    REQUIRE( footer.uncompressedSizeModulo32 == static_cast<std::uint32_t>( data.size() ) );
}

/**
 * Windowless decode from a mid-stream block offset; after replaceMarkers
 * with the true window the bytes must equal the serial decode's tail.
 * Returns the decoded data for fallback-behavior assertions.
 */
[[nodiscard]] deflate::DecodedData
checkMidStreamStart( const std::vector<std::uint8_t>& data )
{
    const auto gz = compressGzipLike( { data.data(), data.size() }, 6 );
    const auto stream = deflateStream( gz );

    const blockfinder::DynamicBlockFinderNaive finder;
    const auto blockBit = finder.find( stream, stream.size() / 2 * 8 );
    REQUIRE( blockBit != blockfinder::NOT_FOUND );

    BitReader reader( stream.data(), stream.size() );
    reader.seek( blockBit );
    deflate::Decoder decoder;
    deflate::DecodedData decoded;
    const auto result = decoder.decode( reader, decoded );
    REQUIRE( result.error == Error::NONE );
    REQUIRE( result.reachedFinalBlock );

    const auto total = decoded.totalSize();
    REQUIRE( total > 0 );
    REQUIRE( total < data.size() );
    const auto tailStart = data.size() - total;
    REQUIRE( tailStart >= deflate::WINDOW_SIZE );

    const BufferView window( data.data() + tailStart - deflate::WINDOW_SIZE,
                             deflate::WINDOW_SIZE );
    std::vector<std::uint8_t> resolved;
    deflate::resolveInto( decoded, window, resolved );
    REQUIRE( std::equal( resolved.begin(), resolved.end(), data.begin() + tailStart ) );
    return decoded;
}

/** zlib raw inflate, the oracle for hand-built streams. */
struct ZlibInflated
{
    std::vector<std::uint8_t> output;
    bool complete{ false };  /**< reached the final block without error */
};

[[nodiscard]] ZlibInflated
inflateRawWithZlib( BufferView stream )
{
    z_stream zstream{};
    REQUIRE( inflateInit2( &zstream, -15 ) == Z_OK );
    zstream.next_in = const_cast<Bytef*>( stream.data() );
    zstream.avail_in = static_cast<uInt>( stream.size() );
    ZlibInflated result;
    std::vector<std::uint8_t> buffer( 64 * KiB );
    int status = Z_OK;
    while ( status == Z_OK ) {
        zstream.next_out = buffer.data();
        zstream.avail_out = static_cast<uInt>( buffer.size() );
        status = inflate( &zstream, Z_NO_FLUSH );
        result.output.insert( result.output.end(), buffer.data(),
                              buffer.data() + ( buffer.size() - zstream.avail_out ) );
        if ( ( status == Z_OK ) && ( zstream.avail_in == 0 ) && ( zstream.avail_out != 0 ) ) {
            break;  /* input exhausted before the final block */
        }
    }
    result.complete = status == Z_STREAM_END;
    inflateEnd( &zstream );
    return result;
}

/** Raw Deflate of @p parts, each at its own zlib level. Switching levels
 * ends the block in progress; the window carries over, so a part may
 * reference earlier ones. Level 0 emits stored blocks. */
[[nodiscard]] std::vector<std::uint8_t>
deflateRawParts( const std::vector<std::pair<int, std::vector<std::uint8_t> > >& parts )
{
    std::size_t totalSize = 0;
    for ( const auto& part : parts ) {
        totalSize += part.second.size();
    }
    std::vector<std::uint8_t> output( compressBound( static_cast<uLong>( totalSize ) )
                                      + 1024 * parts.size() );
    z_stream zstream{};
    REQUIRE( deflateInit2( &zstream, parts.front().first, Z_DEFLATED, -15, 8,
                           Z_DEFAULT_STRATEGY ) == Z_OK );
    zstream.next_out = output.data();
    zstream.avail_out = static_cast<uInt>( output.size() );
    for ( std::size_t i = 0; i < parts.size(); ++i ) {
        if ( i > 0 ) {
            REQUIRE( deflateParams( &zstream, parts[i].first, Z_DEFAULT_STRATEGY ) == Z_OK );
        }
        zstream.next_in = const_cast<Bytef*>( parts[i].second.data() );
        zstream.avail_in = static_cast<uInt>( parts[i].second.size() );
        const auto isLast = i + 1 == parts.size();
        const auto status = ::deflate( &zstream, isLast ? Z_FINISH : Z_NO_FLUSH );
        REQUIRE( isLast ? status == Z_STREAM_END : status == Z_OK );
        REQUIRE( zstream.avail_in == 0 );
    }
    output.resize( output.size() - zstream.avail_out );
    deflateEnd( &zstream );
    return output;
}

struct BlockStart
{
    std::size_t bitOffset{ 0 };
    std::uint64_t type{ 0 };
    std::size_t outputOffset{ 0 };  /**< decoded bytes before the block */
};

/** Start offset, BTYPE and output offset of every block, found by decoding
 * one block at a time. */
[[nodiscard]] std::vector<BlockStart>
blockStarts( BufferView stream )
{
    std::vector<BlockStart> starts;
    BitReader reader( stream.data(), stream.size() );
    deflate::Decoder decoder;
    decoder.setInitialWindow( {} );
    deflate::DecodedData decoded;
    while ( true ) {
        const auto start = reader.tell();
        const auto header = BitReader::peekAt( stream.data(), stream.size(), start, 3 );
        const auto outputOffset = decoder.totalDecoded();
        const auto result = decoder.decode( reader, decoded, start + 1 );
        REQUIRE( result.error == Error::NONE );
        REQUIRE( result.blockCount == 1 );
        starts.push_back( { start, ( header >> 1U ) & 0b11U, outputOffset } );
        if ( result.reachedFinalBlock ) {
            return starts;
        }
    }
}

/** Everything one decode() call leaves behind, for fast-vs-reference
 * comparisons. */
struct DecodeOutcome
{
    deflate::Decoder::Result result;
    deflate::DecodedData decoded;
    std::size_t readerPosition{ 0 };
    std::size_t totalDecoded{ 0 };
};

struct DecodeSetup
{
    std::size_t fromBit{ 0 };
    bool windowKnown{ true };
    BufferView window{};  /**< the seeded window when windowKnown */
    bool startAtStoredData{ false };
    std::size_t maxBytes{ std::numeric_limits<std::size_t>::max() };
};

[[nodiscard]] DecodeOutcome
decodeOnce( BufferView stream, const DecodeSetup& setup, bool reference )
{
    BitReader reader( stream.data(), stream.size() );
    reader.seek( setup.fromBit );
    deflate::Decoder decoder;
    decoder.setReferenceHuffmanDecoding( reference );
    decoder.setStartAtStoredData( setup.startAtStoredData );
    if ( setup.windowKnown ) {
        decoder.setInitialWindow( setup.window );
    }
    DecodeOutcome outcome;
    outcome.result = decoder.decode( reader, outcome.decoded,
                                     std::numeric_limits<std::size_t>::max(), setup.maxBytes );
    outcome.readerPosition = reader.tell();
    outcome.totalDecoded = decoder.totalDecoded();
    return outcome;
}

/** The bulk stored copy and the fast Huffman loop against the reference
 * loops: same error, block count, boundary, reader position and symbols.
 * Returns the fast outcome. */
DecodeOutcome
decodeFastAndReference( BufferView stream, const DecodeSetup& setup )
{
    auto fast = decodeOnce( stream, setup, false );
    const auto reference = decodeOnce( stream, setup, true );
    REQUIRE( fast.result.error == reference.result.error );
    REQUIRE( fast.result.blockCount == reference.result.blockCount );
    REQUIRE( fast.result.endBitOffset == reference.result.endBitOffset );
    REQUIRE( fast.result.reachedFinalBlock == reference.result.reachedFinalBlock );
    REQUIRE( fast.readerPosition == reference.readerPosition );
    REQUIRE( fast.totalDecoded == reference.totalDecoded );
    REQUIRE( fast.decoded.marked.size() == reference.decoded.marked.size() );
    REQUIRE( std::equal( fast.decoded.marked.begin(), fast.decoded.marked.end(),
                         reference.decoded.marked.begin() ) );
    REQUIRE( fast.decoded.plain.size() == reference.decoded.plain.size() );
    for ( std::size_t i = 0; i < fast.decoded.plain.size(); ++i ) {
        REQUIRE( fast.decoded.plain[i].data.size() == reference.decoded.plain[i].data.size() );
        REQUIRE( std::equal( fast.decoded.plain[i].data.begin(), fast.decoded.plain[i].data.end(),
                             reference.decoded.plain[i].data.begin() ) );
    }
    return fast;
}

/** The decode setups every fast-loop exit is checked in: plain mode from
 * the stream start, and marker mode from the first Dynamic block at or
 * after the middle of @p stream (from its start when there is none). */
[[nodiscard]] std::vector<DecodeSetup>
bothModes( BufferView stream )
{
    DecodeSetup plain;
    DecodeSetup marked;
    marked.windowKnown = false;
    const blockfinder::DynamicBlockFinderNaive finder;
    const auto blockBit = finder.find( stream, stream.size() / 2 * 8 );
    marked.fromBit = blockBit == blockfinder::NOT_FOUND ? 0 : blockBit;
    return { plain, marked };
}

/**
 * Output limits inside Huffman blocks: maxBytes = 1 000 + 997·k for k < 200
 * on 256 KiB base64, silesia-like and FASTQ level-6 streams, in both modes.
 * The fast loop must stop at exactly the symbol where the reference loop
 * stops, which is the first to reach maxBytes + 2 · MAX_MATCH_LENGTH.
 */
void
testOutputLimitSweep()
{
    constexpr std::size_t SIZE = 256 * KiB;
    std::size_t exceeded = 0;
    for ( const auto& data : { workloads::base64Data( SIZE, 0x1A01 ), workloads::silesiaLikeData( SIZE, 0x1A02 ),
                               workloads::fastqData( SIZE, 0x1A03 ) } ) {
        const auto gz = compressGzipLike( { data.data(), data.size() }, 6 );
        const auto stream = deflateStream( gz );
        for ( auto setup : bothModes( stream ) ) {
            for ( std::size_t k = 0; k < 200; ++k ) {
                setup.maxBytes = 1000 + 997 * k;
                const auto outcome = decodeFastAndReference( stream, setup );
                const auto hardLimit = setup.maxBytes + 2 * deflate::MAX_MATCH_LENGTH;
                if ( outcome.result.error == Error::EXCEEDED_OUTPUT_LIMIT ) {
                    ++exceeded;
                    REQUIRE( outcome.totalDecoded >= hardLimit );
                    REQUIRE( outcome.totalDecoded < hardLimit + deflate::MAX_MATCH_LENGTH );
                } else {
                    REQUIRE( outcome.result.error == Error::NONE );
                }
            }
        }
    }
    std::printf( "  output limit sweep: %zu of 1200 decodes stopped inside a block\n", exceeded );
    REQUIRE( exceeded >= 600 );
}

/** A Deflate stream cut at each of its last 64 bytes: the fast loop hands
 * the input tail to the reference loop, which reports the truncation. */
void
testTruncatedTail()
{
    for ( const auto& data : { workloads::silesiaLikeData( 64 * KiB, 0x1A04 ),
                               workloads::base64Data( 64 * KiB, 0x1A05 ) } ) {
        const auto gz = compressGzipLike( { data.data(), data.size() }, 6 );
        const auto stream = deflateStream( gz );
        const auto deflateSize = stream.size() - GZIP_FOOTER_SIZE;
        const auto modes = bothModes( { stream.data(), deflateSize } );
        for ( auto cut = deflateSize - 64; cut < deflateSize; ++cut ) {
            for ( const auto& setup : modes ) {
                const auto outcome = decodeFastAndReference( { stream.data(), cut }, setup );
                REQUIRE( outcome.result.error == Error::TRUNCATED_STREAM );
                REQUIRE( !outcome.result.reachedFinalBlock );
            }
        }
    }
}

/** Complete code lengths for @p count symbols: the symbols before
 * @p longCount get 12–15 bits, and the others, in the order of
 * @p shortOrder, are shortened one by one from 15 bits as far as the Kraft
 * sum allows, until it is exactly 1. */
[[nodiscard]] std::vector<std::uint8_t>
completeCodeLengths( std::size_t count, std::size_t longCount, const std::vector<std::size_t>& shortOrder )
{
    constexpr std::size_t KRAFT_ONE = std::size_t( 1 ) << 15U;
    std::vector<std::uint8_t> lengths( count, 15 );
    for ( std::size_t i = 0; i < longCount; ++i ) {
        lengths[i] = static_cast<std::uint8_t>( 12 + i % 4 );
    }
    std::size_t units = 0;
    for ( const auto length : lengths ) {
        units += KRAFT_ONE >> length;
    }
    for ( const auto symbol : shortOrder ) {
        auto& length = lengths[symbol];
        while ( ( length > 1 ) && ( units + ( KRAFT_ONE >> length ) <= KRAFT_ONE ) ) {
            units += KRAFT_ONE >> length;
            --length;
        }
    }
    REQUIRE( units == KRAFT_ONE );
    return lengths;
}

/** Canonical Huffman codes of @p lengths (RFC 1951 §3.2.2). */
[[nodiscard]] std::vector<std::uint32_t>
canonicalCodes( const std::vector<std::uint8_t>& lengths )
{
    std::array<std::uint32_t, 17> lengthCount{};
    for ( const auto length : lengths ) {
        ++lengthCount[length];
    }
    lengthCount[0] = 0;
    std::array<std::uint32_t, 17> nextCode{};
    for ( std::size_t length = 1; length < nextCode.size(); ++length ) {
        nextCode[length] = ( nextCode[length - 1] + lengthCount[length - 1] ) << 1U;
    }
    std::vector<std::uint32_t> codes( lengths.size() );
    for ( std::size_t symbol = 0; symbol < lengths.size(); ++symbol ) {
        if ( lengths[symbol] != 0 ) {
            codes[symbol] = nextCode[lengths[symbol]]++;
        }
    }
    return codes;
}

/**
 * One final Dynamic block, built by hand, whose codes reach past both cached
 * tables: 64 literals with 12–15-bit codes, most other literals at 14–15
 * bits, and 8 distance codes (distances 1–16) with 12–15 bits. Its symbols
 * mix those literals with matches of 3–258 bytes at distances up to 32 KiB,
 * 40% of them at a long-code distance. Returns the raw stream and the bytes
 * it decodes to.
 */
[[nodiscard]] std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t> >
longCodeStream( std::size_t symbolCount, std::uint64_t seed )
{
    std::vector<std::size_t> literalOrder;
    for ( std::size_t symbol = deflate::END_OF_BLOCK; symbol < deflate::MAX_LITERAL_SYMBOLS; ++symbol ) {
        literalOrder.push_back( symbol );
    }
    for ( std::size_t symbol = 64; symbol < deflate::END_OF_BLOCK; ++symbol ) {
        literalOrder.push_back( symbol );
    }
    std::vector<std::size_t> distanceOrder;
    for ( std::size_t symbol = 8; symbol < deflate::MAX_DISTANCE_SYMBOLS; ++symbol ) {
        distanceOrder.push_back( symbol );
    }
    const auto literalLengths = completeCodeLengths( deflate::MAX_LITERAL_SYMBOLS, 64, literalOrder );
    const auto distanceLengths = completeCodeLengths( deflate::MAX_DISTANCE_SYMBOLS, 8, distanceOrder );
    const auto literalCodes = canonicalCodes( literalLengths );
    const auto distanceCodes = canonicalCodes( distanceLengths );

    std::vector<std::uint8_t> stream;
    std::vector<std::uint8_t> decoded;
    deflatewriter::LsbBitWriter writer( stream );
    writer.writeBits( 1, 1 );  /* BFINAL */
    writer.writeBits( static_cast<std::uint32_t>( deflate::BLOCK_TYPE_DYNAMIC ), 2 );
    writer.writeBits( deflate::MAX_LITERAL_SYMBOLS - 257, 5 );
    writer.writeBits( deflate::MAX_DISTANCE_SYMBOLS - 1, 5 );
    writer.writeBits( deflate::PRECODE_SYMBOLS - 4, 4 );
    /* The precode: 4-bit codes for the lengths 0–15, so precode symbol s
     * is written as s itself. */
    for ( const auto symbol : deflate::PRECODE_ORDER ) {
        writer.writeBits( symbol < 16 ? 4 : 0, deflate::PRECODE_BITS );
    }
    for ( const auto* lengths : { &literalLengths, &distanceLengths } ) {
        for ( const auto length : *lengths ) {
            writer.writeCode( length, 4 );
        }
    }

    Xorshift64 random( seed );
    const auto writeLiteral = [&] ( std::size_t symbol ) {
        writer.writeCode( literalCodes[symbol], literalLengths[symbol] );
        decoded.push_back( static_cast<std::uint8_t>( symbol ) );
    };
    for ( std::size_t i = 0; i < symbolCount; ++i ) {
        const auto choice = random.below( 10 );
        if ( ( choice < 5 ) || ( decoded.size() < 16 ) ) {
            writeLiteral( choice < 3 ? random.below( 64 ) : random.below( 256 ) );
            continue;
        }
        const auto length = random.below( 8 ) == 0 ? 3 + random.below( 256 ) : 3 + random.below( 14 );
        const auto distance = choice < 7 ? 1 + random.below( 16 )
                                         : 1 + random.below( std::min<std::size_t>( decoded.size(),
                                                                                     deflate::WINDOW_SIZE ) );
        const auto lengthIndex = static_cast<std::size_t>(
            std::upper_bound( deflate::LENGTH_BASE.begin(), deflate::LENGTH_BASE.end(), length )
            - deflate::LENGTH_BASE.begin() - 1 );
        writer.writeCode( literalCodes[257 + lengthIndex], literalLengths[257 + lengthIndex] );
        writer.writeBits( static_cast<std::uint32_t>( length - deflate::LENGTH_BASE[lengthIndex] ),
                          deflate::LENGTH_EXTRA_BITS[lengthIndex] );
        const auto distanceIndex = static_cast<std::size_t>(
            std::upper_bound( deflate::DISTANCE_BASE.begin(), deflate::DISTANCE_BASE.end(), distance )
            - deflate::DISTANCE_BASE.begin() - 1 );
        writer.writeCode( distanceCodes[distanceIndex], distanceLengths[distanceIndex] );
        writer.writeBits( static_cast<std::uint32_t>( distance - deflate::DISTANCE_BASE[distanceIndex] ),
                          deflate::DISTANCE_EXTRA_BITS[distanceIndex] );
        for ( std::size_t j = 0; j < length; ++j ) {
            decoded.push_back( decoded[decoded.size() - distance] );
        }
    }
    writer.writeCode( literalCodes[deflate::END_OF_BLOCK], literalLengths[deflate::END_OF_BLOCK] );
    writer.alignToByte();
    return { std::move( stream ), std::move( decoded ) };
}

/**
 * Codes longer than the cached tables reach, so that the fast loop takes
 * both tables' FALLBACK entries (longCodeStream()): decoded in both modes
 * against the reference loop and zlib.
 */
void
testLongCodes()
{
    const auto [stream, expected] = longCodeStream( 20000, 0x1A06 );
    const BufferView view( stream.data(), stream.size() );
    {
        BitReader reader( stream.data(), stream.size() );
        reader.seek( 3 );
        deflate::DynamicHuffmanCodings codings;
        REQUIRE( deflate::readDynamicCodings( reader, codings ) == Error::NONE );
        REQUIRE( codings.literal.maxCodeLength() > HuffmanCodingMultiCached::CACHE_BITS );
        REQUIRE( codings.distance.maxCodeLength() > HuffmanCodingDistanceCached::CACHE_BITS );
    }
    const auto zlib = inflateRawWithZlib( view );
    REQUIRE( zlib.complete );
    REQUIRE( zlib.output == expected );
    std::printf( "  long codes: %zu bytes decode to %zu\n", stream.size(), expected.size() );

    for ( const auto& setup : bothModes( view ) ) {
        const auto outcome = decodeFastAndReference( view, setup );
        REQUIRE( outcome.result.error == Error::NONE );
        REQUIRE( outcome.result.reachedFinalBlock );
        std::vector<std::uint8_t> resolved;
        deflate::resolveInto( outcome.decoded, {}, resolved );
        REQUIRE( resolved == expected );
    }
}

/**
 * A short seeded window of 1 000 bytes: a raw stream written against it as
 * a preset dictionary holds a match of distance 1 005 after 5 fresh bytes,
 * which reaches exactly the window's first byte, then a match of distance
 * 55 that starts in the window's last 10 bytes and runs on into the output.
 * With the window minus its first byte, the first match reaches one byte
 * past it: EXCEEDED_WINDOW. In marker mode both come out as markers.
 */
void
testWindowEdges()
{
    /* zlib finds no match at the first byte of its dictionary (its hash
     * chains end at position 0), so the dictionary has one byte more. */
    const auto dictionary = workloads::randomData( 1001, 0x1A07 );
    const std::vector<std::uint8_t> window( dictionary.begin() + 1, dictionary.end() );
    auto data = workloads::randomData( 5, 0x1A08 );
    data.insert( data.end(), window.begin(), window.begin() + 40 );
    data.insert( data.end(), window.end() - 10, window.end() );
    for ( std::size_t i = 0; i < 30; ++i ) {
        data.push_back( data[i] );
    }
    const auto tail = workloads::randomData( 300, 0x1A09 );
    data.insert( data.end(), tail.begin(), tail.end() );

    std::vector<std::uint8_t> stream( compressBound( static_cast<uLong>( data.size() ) ) + 64 );
    {
        z_stream zstream{};
        REQUIRE( deflateInit2( &zstream, 9, Z_DEFLATED, -15, 8, Z_DEFAULT_STRATEGY ) == Z_OK );
        REQUIRE( deflateSetDictionary( &zstream, dictionary.data(), static_cast<uInt>( dictionary.size() ) )
                 == Z_OK );
        zstream.next_in = const_cast<Bytef*>( data.data() );
        zstream.avail_in = static_cast<uInt>( data.size() );
        zstream.next_out = stream.data();
        zstream.avail_out = static_cast<uInt>( stream.size() );
        REQUIRE( ::deflate( &zstream, Z_FINISH ) == Z_STREAM_END );
        stream.resize( stream.size() - zstream.avail_out );
        deflateEnd( &zstream );
    }
    /* Room for the fast loop: it leaves the last 24 bytes to the reference
     * loop, and the matches open the stream. */
    REQUIRE( stream.size() > 300 );
    const BufferView view( stream.data(), stream.size() );

    DecodeSetup exact;
    exact.window = { window.data(), window.size() };
    const auto plain = decodeFastAndReference( view, exact );
    REQUIRE( plain.result.error == Error::NONE );
    std::vector<std::uint8_t> resolved;
    deflate::resolveInto( plain.decoded, {}, resolved );
    REQUIRE( resolved == data );

    DecodeSetup shortByOne;
    shortByOne.window = { window.data() + 1, window.size() - 1 };
    const auto failed = decodeFastAndReference( view, shortByOne );
    REQUIRE( failed.result.error == Error::EXCEEDED_WINDOW );
    REQUIRE( failed.totalDecoded == 5 );

    DecodeSetup marked;
    marked.windowKnown = false;
    const auto markers = decodeFastAndReference( view, marked );
    REQUIRE( markers.result.error == Error::NONE );
    REQUIRE( markers.decoded.marked.size() == data.size() );
    REQUIRE( markers.decoded.marked[5] == deflate::MARKER_BASE + deflate::WINDOW_SIZE - 1000 );
    resolved.clear();
    deflate::resolveInto( markers.decoded, { window.data(), window.size() }, resolved );
    REQUIRE( resolved == data );
}

/** Append a stored block; @p complement overrides NLEN. */
void
writeStoredBlock( std::vector<std::uint8_t>& stream, deflatewriter::LsbBitWriter& writer,
                  bool isFinal, const std::vector<std::uint8_t>& payload,
                  std::optional<std::uint16_t> complement = std::nullopt )
{
    const auto length = static_cast<std::uint16_t>( payload.size() );
    writer.writeBits( isFinal ? 1U : 0U, 1 );
    writer.writeBits( 0, 2 );
    writer.alignToByte();
    writer.writeBits( length, 16 );
    writer.writeBits( complement.value_or( static_cast<std::uint16_t>( ~length ) ), 16 );
    stream.insert( stream.end(), payload.begin(), payload.end() );
}

/** Stored blocks with LEN 0, 1 and 65535, corrupt NLEN, cut-off payloads,
 * and every output limit around each stored block's end. */
void
testStoredBlocks()
{
    /* Stored blocks with LEN 0, 1, 700, 1200 and 65535; each header's 3
     * bits are followed by padding to the LEN field's byte boundary. */
    const std::vector<std::size_t> lengths{ 0, 1, 700, 1200, 65535 };
    std::vector<std::uint8_t> stream;
    std::vector<std::uint8_t> expected;
    {
        deflatewriter::LsbBitWriter writer( stream );
        for ( std::size_t i = 0; i < lengths.size(); ++i ) {
            const auto block = workloads::randomData( lengths[i], 0x5701 + i );
            writeStoredBlock( stream, writer, i + 1 == lengths.size(), block );
            expected.insert( expected.end(), block.begin(), block.end() );
        }
    }
    const BufferView view( stream.data(), stream.size() );
    {
        const auto zlib = inflateRawWithZlib( view );
        REQUIRE( zlib.complete );
        REQUIRE( zlib.output == expected );

        const auto plain = decodeFastAndReference( view, {} );
        REQUIRE( plain.result.error == Error::NONE );
        REQUIRE( plain.result.reachedFinalBlock );
        REQUIRE( plain.result.blockCount == 5 );
        REQUIRE( plain.result.endBitOffset == stream.size() * 8 );
        std::vector<std::uint8_t> resolved;
        deflate::resolveInto( plain.decoded, {}, resolved );
        REQUIRE( resolved == expected );

        /* Windowless: every block comes out as 16-bit symbols; the fallback
         * to plain bytes is checked only after a block ends. */
        DecodeSetup windowless;
        windowless.windowKnown = false;
        const auto marked = decodeFastAndReference( view, windowless );
        REQUIRE( marked.result.error == Error::NONE );
        REQUIRE( marked.decoded.marked.size() == expected.size() );
        resolved.clear();
        deflate::resolveInto( marked.decoded, {}, resolved );
        REQUIRE( resolved == expected );
    }

    /* Output limits: every maxBytes from just before a stored block's end to
     * just past it, with the hard limit (maxBytes + 2 * MAX_MATCH_LENGTH)
     * swept across the same end, in both output modes. */
    {
        std::size_t blockEnd = 0;
        for ( const auto length : lengths ) {
            blockEnd += length;
            const auto slack = 2 * deflate::MAX_MATCH_LENGTH;
            const auto first = blockEnd > slack + 1 ? blockEnd - slack - 1 : 0;
            for ( auto maxBytes = first; maxBytes <= blockEnd + 1; ++maxBytes ) {
                for ( const bool windowKnown : { true, false } ) {
                    DecodeSetup setup;
                    setup.windowKnown = windowKnown;
                    setup.maxBytes = maxBytes;
                    const auto outcome = decodeFastAndReference( view, setup );
                    const auto hardLimit = maxBytes + slack;
                    if ( outcome.result.error == Error::EXCEEDED_OUTPUT_LIMIT ) {
                        REQUIRE( outcome.totalDecoded == hardLimit );
                    } else {
                        REQUIRE( outcome.result.error == Error::NONE );
                        REQUIRE( outcome.totalDecoded >= std::min( maxBytes, expected.size() ) );
                    }
                    std::vector<std::uint8_t> resolved;
                    deflate::resolveInto( outcome.decoded, {}, resolved );
                    REQUIRE( resolved.size() == outcome.totalDecoded );
                    REQUIRE( std::equal( resolved.begin(), resolved.end(), expected.begin() ) );
                }
            }
        }
    }

    /* NLEN that is not the complement of LEN. */
    {
        std::vector<std::uint8_t> corrupt;
        deflatewriter::LsbBitWriter writer( corrupt );
        writeStoredBlock( corrupt, writer, false, workloads::randomData( 10, 1 ) );
        writeStoredBlock( corrupt, writer, true, workloads::randomData( 10, 2 ),
                          std::uint16_t( 0x1234 ) );
        const BufferView corruptView( corrupt.data(), corrupt.size() );
        REQUIRE( !inflateRawWithZlib( corruptView ).complete );
        for ( const bool windowKnown : { true, false } ) {
            DecodeSetup setup;
            setup.windowKnown = windowKnown;
            const auto outcome = decodeFastAndReference( corruptView, setup );
            REQUIRE( outcome.result.error == Error::INVALID_STORED_LENGTH );
            REQUIRE( outcome.result.blockCount == 1 );
            REQUIRE( outcome.totalDecoded == 10 );
        }
    }

    /* A payload cut short by the end of input, at every cut inside it. */
    {
        std::vector<std::uint8_t> full;
        deflatewriter::LsbBitWriter writer( full );
        writeStoredBlock( full, writer, false, workloads::randomData( 5, 3 ) );
        writeStoredBlock( full, writer, true, workloads::randomData( 300, 4 ) );
        const auto payloadStart = full.size() - 300;
        for ( auto size = payloadStart - 4; size < full.size(); ++size ) {
            const BufferView cut( full.data(), size );
            REQUIRE( !inflateRawWithZlib( cut ).complete );
            for ( const bool windowKnown : { true, false } ) {
                DecodeSetup setup;
                setup.windowKnown = windowKnown;
                const auto outcome = decodeFastAndReference( cut, setup );
                REQUIRE( outcome.result.error == Error::TRUNCATED_STREAM );
                REQUIRE( outcome.result.blockCount == 1 );
                REQUIRE( outcome.totalDecoded == 5 );
            }
        }
    }
}

/** Stored blocks next to Dynamic blocks, from zlib streams that switch
 * levels mid-stream. */
void
testStoredAndDynamicBlocks()
{
    const auto text = workloads::silesiaLikeData( 96 * KiB, 0x5702 );

    /* A stored block, then a Dynamic block whose matches reach back into
     * it: the second part starts by repeating the first. */
    {
        const std::vector<std::uint8_t> head( text.begin(), text.begin() + 20 * KiB );
        std::vector<std::uint8_t> tail = head;
        tail.insert( tail.end(), text.begin() + 20 * KiB, text.begin() + 40 * KiB );
        std::vector<std::uint8_t> data = head;
        data.insert( data.end(), tail.begin(), tail.end() );
        const auto stream = deflateRawParts( { { 0, head }, { 9, tail } } );
        const BufferView view( stream.data(), stream.size() );
        const auto starts = blockStarts( view );
        REQUIRE( starts.size() >= 2 );
        REQUIRE( starts[0].type == deflate::BLOCK_TYPE_STORED );
        const auto dynamic = std::find_if( starts.begin(), starts.end(), [&] ( const auto& start ) {
            return start.outputOffset == head.size();
        } );
        REQUIRE( dynamic != starts.end() );
        REQUIRE( dynamic->type == deflate::BLOCK_TYPE_DYNAMIC );

        const auto zlib = inflateRawWithZlib( view );
        REQUIRE( zlib.complete );
        REQUIRE( zlib.output == data );
        for ( const bool windowKnown : { true, false } ) {
            DecodeSetup setup;
            setup.windowKnown = windowKnown;
            const auto outcome = decodeFastAndReference( view, setup );
            REQUIRE( outcome.result.error == Error::NONE );
            REQUIRE( outcome.result.reachedFinalBlock );
            std::vector<std::uint8_t> resolved;
            deflate::resolveInto( outcome.decoded, {}, resolved );
            REQUIRE( resolved == data );
        }

        /* The Dynamic block does reach back: without the stored bytes as
         * its window it cannot be decoded. */
        DecodeSetup alone;
        alone.fromBit = dynamic->bitOffset;
        REQUIRE( decodeOnce( view, alone, false ).result.error == Error::EXCEEDED_WINDOW );
    }

    /* Stored data in marker mode: after a windowless Dynamic block whose
     * matches reach before the decode start, and entered directly at a
     * stored block's LEN field. Switching levels ends a block, so every part
     * starts on a block boundary. */
    {
        const std::vector<std::uint8_t> first( text.begin(), text.begin() + 30 * KiB );
        std::vector<std::uint8_t> second( text.begin() + 10 * KiB, text.begin() + 20 * KiB );
        second.insert( second.end(), text.begin() + 30 * KiB, text.begin() + 40 * KiB );
        const auto incompressible = workloads::randomData( 40 * KiB, 0x5703 );
        const std::vector<std::uint8_t> last( text.begin() + 40 * KiB, text.begin() + 50 * KiB );
        std::vector<std::uint8_t> data = first;
        data.insert( data.end(), second.begin(), second.end() );
        data.insert( data.end(), incompressible.begin(), incompressible.end() );
        data.insert( data.end(), last.begin(), last.end() );
        const auto stream = deflateRawParts(
            { { 6, first }, { 1, second }, { 0, incompressible }, { 6, last } } );
        const BufferView view( stream.data(), stream.size() );
        REQUIRE( inflateRawWithZlib( view ).output == data );

        const auto starts = blockStarts( view );
        const auto blockAt = [&] ( std::size_t outputOffset ) {
            const auto match = std::find_if( starts.begin(), starts.end(),
                                             [&] ( const auto& start ) {
                                                 return start.outputOffset == outputOffset;
                                             } );
            REQUIRE( match != starts.end() );
            return *match;
        };
        const auto dynamic = blockAt( first.size() );
        REQUIRE( dynamic.type == deflate::BLOCK_TYPE_DYNAMIC );
        const auto firstStored = blockAt( first.size() + second.size() );
        REQUIRE( firstStored.type == deflate::BLOCK_TYPE_STORED );

        DecodeSetup windowless;
        windowless.windowKnown = false;
        windowless.fromBit = dynamic.bitOffset;
        const auto outcome = decodeFastAndReference( view, windowless );
        REQUIRE( outcome.result.error == Error::NONE );
        REQUIRE( outcome.result.reachedFinalBlock );
        const auto& marked = outcome.decoded.marked;
        REQUIRE( std::any_of( marked.begin(), marked.end(), [] ( std::uint16_t symbol ) {
            return symbol >= deflate::MARKER_BASE;
        } ) );
        REQUIRE( marked.size() > second.size() );  /* stored data came out as 16-bit symbols */
        std::vector<std::uint8_t> resolved;
        deflate::resolveInto( outcome.decoded, { first.data() + first.size() - deflate::WINDOW_SIZE,
                                                 deflate::WINDOW_SIZE }, resolved );
        REQUIRE( std::equal( resolved.begin(), resolved.end(), data.begin() + first.size(),
                             data.end() ) );

        /* setStartAtStoredData: decode from the LEN field of the first
         * (non-final) stored block, as after the non-compressed block
         * finder, with no window. */
        DecodeSetup atStored;
        atStored.windowKnown = false;
        atStored.startAtStoredData = true;
        atStored.fromBit = ceilDiv<std::size_t>( firstStored.bitOffset + 3, 8 ) * 8;
        const auto stored = decodeFastAndReference( view, atStored );
        REQUIRE( stored.result.error == Error::NONE );
        REQUIRE( stored.result.reachedFinalBlock );
        REQUIRE( !stored.decoded.marked.empty() );
        resolved.clear();
        deflate::resolveInto( stored.decoded, {}, resolved );
        REQUIRE( std::equal( resolved.begin(), resolved.end(),
                             data.begin() + first.size() + second.size(), data.end() ) );
    }
}

/**
 * One Decoder over a whole level-6 stream, output pre-reserved: the number
 * of heap allocations must not grow with the number of Dynamic blocks —
 * the header parse and the table builds reuse fixed-size and pooled
 * storage.
 */
void
testAllocationFreeDynamicHeaders()
{
    for ( const auto& data : { workloads::base64Data( 4 * MiB, 7 ),
                               workloads::silesiaLikeData( 4 * MiB, 7 ) } ) {
        const auto gz = compressGzipLike( { data.data(), data.size() }, 6 );
        const auto stream = deflateStream( gz );
        deflate::DecodedData decoded;
        decoded.plain.emplace_back();
        decoded.plain.front().data.reserve( data.size() + 1 * MiB );

        BitReader reader( stream.data(), stream.size() );
        const auto allocationsBefore = g_allocationCount.load();
        std::size_t blockCount = 0;
        {
            deflate::Decoder decoder;
            decoder.setInitialWindow( {} );
            const auto result = decoder.decode( reader, decoded );
            REQUIRE( result.error == Error::NONE );
            REQUIRE( result.reachedFinalBlock );
            blockCount = result.blockCount;
        }
        const auto allocations = g_allocationCount.load() - allocationsBefore;
        std::printf( "  %zu blocks decoded with %zu heap allocations\n", blockCount, allocations );
        REQUIRE( blockCount >= 100 );
        REQUIRE( allocations <= 16 );

        std::vector<std::uint8_t> resolved;
        deflate::resolveInto( decoded, {}, resolved );
        REQUIRE( resolved == data );
    }
}

}  // namespace

int
main()
{
    constexpr std::size_t SIZE = 4 * MiB;
    const auto base64 = workloads::base64Data( SIZE, 0xDEF1 );
    const auto fastq = workloads::fastqData( SIZE, 0xDEF2 );
    const auto silesia = workloads::silesiaLikeData( SIZE, 0xDEF3 );
    const auto random = workloads::randomData( SIZE, 0xDEF4 );

    /* Round trip vs zlib on all four synthetic workloads, several levels.
     * Level 1 favors Fixed blocks, level 9 Dynamic; random data produces
     * Stored blocks — all three block types are exercised. */
    for ( const auto* workload : { &base64, &fastq, &silesia, &random } ) {
        for ( const int level : { 1, 6, 9 } ) {
            checkSerialRoundTrip( *workload, level );
        }
    }
    checkSerialRoundTrip( std::vector<std::uint8_t>{}, 6 );  /* empty stream */

    /* Mid-stream start with marker replacement equals the serial decode. */
    {
        const auto decodedBase64 = checkMidStreamStart( base64 );
        const auto decodedFastq = checkMidStreamStart( fastq );
        (void)checkMidStreamStart( silesia );

        /* Fallback triggers on base64 (back-references die out: the marked
         * prefix stays small and plain segments follow) ... */
        REQUIRE( !decodedBase64.plain.empty() );
        REQUIRE( decodedBase64.marked.size() < 256 * KiB );
        REQUIRE( decodedBase64.totalSize() > 1 * MiB );

        /* ... but NOT on the marker-persistent workload: FASTQ's repeating
         * headers keep copying pre-chunk history forward, so the trailing
         * window never becomes marker-free and everything stays 16-bit. */
        REQUIRE( decodedFastq.plain.empty() );
        REQUIRE( decodedFastq.marked.size() == decodedFastq.totalSize() );
        const auto markerCount = std::count_if(
            decodedFastq.marked.begin(), decodedFastq.marked.end(),
            [] ( std::uint16_t symbol ) { return symbol >= deflate::MARKER_BASE; } );
        REQUIRE( markerCount > 0 );
    }

    /* replaceMarkers indexing convention: marker k resolves to window[k]
     * for a full window, and offsets shift for short windows. */
    {
        std::vector<std::uint8_t> window( deflate::WINDOW_SIZE );
        for ( std::size_t i = 0; i < window.size(); ++i ) {
            window[i] = static_cast<std::uint8_t>( i * 31 + 7 );
        }
        const std::vector<std::uint16_t> symbols = {
            'a',
            static_cast<std::uint16_t>( deflate::MARKER_BASE + 0 ),
            static_cast<std::uint16_t>( deflate::MARKER_BASE + deflate::WINDOW_SIZE - 1 ),
            'z',
            static_cast<std::uint16_t>( deflate::MARKER_BASE + 1234 ),
        };
        std::vector<std::uint8_t> output( symbols.size() );
        deflate::replaceMarkers( { symbols.data(), symbols.size() },
                                 { window.data(), window.size() }, output.data() );
        REQUIRE( output[0] == 'a' );
        REQUIRE( output[1] == window.front() );
        REQUIRE( output[2] == window.back() );
        REQUIRE( output[3] == 'z' );
        REQUIRE( output[4] == window[1234] );

        /* Short window: the missing (oldest) part is unaddressable. */
        const BufferView shortWindow( window.data() + window.size() - 2000, 2000 );
        deflate::replaceMarkers( { symbols.data(), symbols.size() }, shortWindow, output.data() );
        REQUIRE( output[1] == 0 );  /* marker 0 reaches before the short window */
        REQUIRE( output[2] == window.back() );
    }

    /* Truncated input surfaces as TRUNCATED_STREAM, not as wrong bytes. */
    {
        const auto gz = compressGzipLike( { base64.data(), base64.size() }, 6 );
        const auto stream = deflateStream( gz );
        BitReader reader( stream.data(), stream.size() / 2 );
        deflate::Decoder decoder;
        decoder.setInitialWindow( {} );
        deflate::DecodedData decoded;
        const auto result = decoder.decode( reader, decoded );
        REQUIRE( result.error == Error::TRUNCATED_STREAM );
        REQUIRE( !result.reachedFinalBlock );
    }

    /* untilBitOffset stops exactly at a block boundary, and resuming from
     * that boundary yields the identical remainder. */
    {
        const auto gz = compressGzipLike( { silesia.data(), silesia.size() }, 6 );
        const auto stream = deflateStream( gz );

        BitReader reader( stream.data(), stream.size() );
        deflate::Decoder first;
        first.setInitialWindow( {} );
        deflate::DecodedData head;
        const auto headResult = first.decode( reader, head, stream.size() * 8 / 2 );
        REQUIRE( headResult.error == Error::NONE );
        REQUIRE( !headResult.reachedFinalBlock );
        REQUIRE( headResult.endBitOffset >= stream.size() * 8 / 2 );

        std::vector<std::uint8_t> headBytes;
        deflate::resolveInto( head, {}, headBytes );

        BitReader tailReader( stream.data(), stream.size() );
        tailReader.seek( headResult.endBitOffset );
        deflate::Decoder second;
        second.setInitialWindow( { headBytes.data(), headBytes.size() } );
        deflate::DecodedData tail;
        const auto tailResult = second.decode( tailReader, tail );
        REQUIRE( tailResult.error == Error::NONE );
        REQUIRE( tailResult.reachedFinalBlock );

        deflate::resolveInto( tail, {}, headBytes );  /* append remainder */
        REQUIRE( headBytes == silesia );
    }

    /* Fast loop vs reference loop (PR 4): bit-exact output equivalence on
     * every workload, in both marker and plain mode, including the marker
     * symbols themselves — the multi-symbol LUT, the unsafe BitReader path,
     * the bulk LZ77 copies, and the cached distance table must be invisible. */
    {
        const auto decodeBoth = [] ( BufferView stream, std::size_t fromBit, bool windowKnown ) {
            std::vector<deflate::DecodedData> results;
            for ( const bool reference : { false, true } ) {
                BitReader reader( stream.data(), stream.size() );
                reader.seek( fromBit );
                deflate::Decoder decoder;
                decoder.setReferenceHuffmanDecoding( reference );
                if ( windowKnown ) {
                    decoder.setInitialWindow( {} );
                }
                deflate::DecodedData decoded;
                const auto result = decoder.decode( reader, decoded );
                REQUIRE( result.error == Error::NONE );
                results.push_back( std::move( decoded ) );
            }
            REQUIRE( results[0].marked.size() == results[1].marked.size() );
            REQUIRE( std::equal( results[0].marked.begin(), results[0].marked.end(),
                                 results[1].marked.begin() ) );
            REQUIRE( results[0].plain.size() == results[1].plain.size() );
            for ( std::size_t i = 0; i < results[0].plain.size(); ++i ) {
                REQUIRE( results[0].plain[i].data.size() == results[1].plain[i].data.size() );
                REQUIRE( std::equal( results[0].plain[i].data.begin(),
                                     results[0].plain[i].data.end(),
                                     results[1].plain[i].data.begin() ) );
            }
        };

        for ( const auto* workload : { &base64, &fastq, &silesia, &random } ) {
            for ( const int level : { 1, 9 } ) {
                const auto gz = compressGzipLike( { workload->data(), workload->size() }, level );
                const auto stream = deflateStream( gz );
                decodeBoth( stream, 0, /* windowKnown */ true );

                const blockfinder::DynamicBlockFinderNaive finder;
                const auto blockBit = finder.find( stream, stream.size() / 2 * 8 );
                if ( blockBit != blockfinder::NOT_FOUND ) {
                    decodeBoth( stream, blockBit, /* windowKnown */ false );
                }
            }
        }
    }

    /* Unchecked-append path at exact capacity boundaries (PR 4): the fast
     * sinks jump to the buffer's existing capacity and grow in slabs; seed
     * the output buffers with adversarial capacities around the exact
     * decoded size and around the sink's growth granularity, and require
     * byte-identical output every time. */
    {
        const auto gz = compressGzipLike( { silesia.data(), silesia.size() }, 6 );
        const auto stream = deflateStream( gz );

        std::vector<std::uint8_t> expected;
        {
            BitReader reader( stream.data(), stream.size() );
            deflate::Decoder decoder;
            decoder.setInitialWindow( {} );
            deflate::DecodedData decoded;
            REQUIRE( decoder.decode( reader, decoded ).error == Error::NONE );
            deflate::resolveInto( decoded, {}, expected );
            REQUIRE( expected == silesia );
        }

        for ( const std::size_t capacity :
              { std::size_t( 1 ), std::size_t( 2 ), std::size_t( 4095 ), std::size_t( 4096 ),
                expected.size() - 1, expected.size(), expected.size() + 1,
                expected.size() + deflate::MAX_MATCH_LENGTH } ) {
            deflate::DecodedData decoded;
            decoded.plain.emplace_back();
            decoded.plain.front().data.reserve( capacity );
            BitReader reader( stream.data(), stream.size() );
            deflate::Decoder decoder;
            decoder.setInitialWindow( {} );
            REQUIRE( decoder.decode( reader, decoded ).error == Error::NONE );
            std::vector<std::uint8_t> resolved;
            deflate::resolveInto( decoded, {}, resolved );
            REQUIRE( resolved == expected );
        }

        /* Same discipline for the 16-bit marker buffer. */
        const blockfinder::DynamicBlockFinderNaive finder;
        const auto blockBit = finder.find( stream, stream.size() / 2 * 8 );
        REQUIRE( blockBit != blockfinder::NOT_FOUND );
        deflate::DecodedData baseline;
        {
            BitReader reader( stream.data(), stream.size() );
            reader.seek( blockBit );
            deflate::Decoder decoder;
            REQUIRE( decoder.decode( reader, baseline ).error == Error::NONE );
            REQUIRE( baseline.totalSize() > 0 );
        }
        for ( const std::size_t capacity :
              { std::size_t( 3 ), std::size_t( 8191 ), baseline.marked.size(),
                baseline.marked.size() + 1 } ) {
            deflate::DecodedData decoded;
            decoded.marked.reserve( capacity );
            BitReader reader( stream.data(), stream.size() );
            reader.seek( blockBit );
            deflate::Decoder decoder;
            REQUIRE( decoder.decode( reader, decoded ).error == Error::NONE );
            REQUIRE( decoded.marked.size() == baseline.marked.size() );
            REQUIRE( std::equal( decoded.marked.begin(), decoded.marked.end(),
                                 baseline.marked.begin() ) );
        }
    }

    testStoredBlocks();
    testStoredAndDynamicBlocks();
    testAllocationFreeDynamicHeaders();
    testOutputLimitSweep();
    testTruncatedTail();
    testLongCodes();
    testWindowEdges();

    return rapidgzip::test::finish( "testDeflate" );
}
