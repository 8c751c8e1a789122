/**
 * Huffman layer: canonical code construction, decode correctness for both
 * LUT layouts against a reference encoder, Kraft validation, EOF and
 * invalid-code behavior — including the 15-bit pathological shape whose
 * construction cost motivates the two-level layout. The cached Deflate
 * tables are checked exhaustively, slot by slot, against two-level decodes
 * of the same bits, for every Dynamic header of the synthetic corpora and
 * for hand-shaped corner cases.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "bits/BitReader.hpp"
#include "deflate/DeflateDecoder.hpp"
#include "deflate/definitions.hpp"
#include "gzip/GzipHeader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "huffman/HuffmanCoding.hpp"
#include "huffman/HuffmanCodingDistanceCached.hpp"
#include "huffman/HuffmanCodingDoubleLUT.hpp"
#include "huffman/HuffmanCodingMultiCached.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

using namespace rapidgzip;

namespace {

/** Reference encoder: canonical codes, written LSB-first (Deflate order). */
class BitWriter
{
public:
    void
    write( std::uint32_t bits, unsigned count )
    {
        for ( unsigned i = 0; i < count; ++i ) {
            /* Canonical codes are written MSB-first into the stream. */
            const auto bit = ( bits >> ( count - 1 - i ) ) & 1U;
            m_current |= bit << m_bitCount;
            if ( ++m_bitCount == 8 ) {
                m_bytes.push_back( static_cast<std::uint8_t>( m_current ) );
                m_current = 0;
                m_bitCount = 0;
            }
        }
    }

    [[nodiscard]] std::vector<std::uint8_t>
    finish()
    {
        if ( m_bitCount > 0 ) {
            m_bytes.push_back( static_cast<std::uint8_t>( m_current ) );
        }
        return m_bytes;
    }

private:
    std::vector<std::uint8_t> m_bytes;
    std::uint32_t m_current{ 0 };
    unsigned m_bitCount{ 0 };
};

struct CanonicalCodes
{
    std::vector<std::uint32_t> code;
    std::vector<std::uint8_t> length;
};

CanonicalCodes
assignCanonicalCodes( const std::vector<std::uint8_t>& lengths )
{
    CanonicalCodes result;
    result.length = lengths;
    result.code.resize( lengths.size(), 0 );

    std::uint32_t countPerLength[16] = {};
    for ( const auto length : lengths ) {
        ++countPerLength[length];
    }
    countPerLength[0] = 0;
    std::uint32_t nextCode[17] = {};
    std::uint32_t code = 0;
    for ( unsigned length = 1; length <= 15; ++length ) {
        code = ( code + countPerLength[length - 1] ) << 1U;
        nextCode[length] = code;
    }
    for ( std::size_t symbol = 0; symbol < lengths.size(); ++symbol ) {
        if ( lengths[symbol] > 0 ) {
            result.code[symbol] = nextCode[lengths[symbol]]++;
        }
    }
    return result;
}

/** Split-then-extend generator like the benchmark's makeCode. */
std::vector<std::uint8_t>
makeCompleteCode( std::size_t symbolCount, unsigned maxLength, std::uint64_t seed )
{
    Xorshift64 random( seed );
    std::vector<std::uint8_t> lengths( symbolCount, 0 );
    lengths[0] = 1;
    lengths[1] = 1;
    std::size_t used = 2;
    while ( used < symbolCount ) {
        const auto victim = random.below( used );
        if ( lengths[victim] >= maxLength ) {
            continue;
        }
        ++lengths[victim];
        lengths[used] = lengths[victim];
        ++used;
    }
    return lengths;
}

template<typename Coding>
void
checkRoundTrip( const std::vector<std::uint8_t>& lengths, std::uint64_t seed )
{
    const auto canonical = assignCanonicalCodes( lengths );

    /* Encode a pseudo-random symbol stream of the usable symbols. */
    std::vector<std::uint16_t> usable;
    for ( std::size_t symbol = 0; symbol < lengths.size(); ++symbol ) {
        if ( lengths[symbol] > 0 ) {
            usable.push_back( static_cast<std::uint16_t>( symbol ) );
        }
    }
    Xorshift64 random( seed );
    std::vector<std::uint16_t> symbols( 5000 );
    BitWriter writer;
    for ( auto& symbol : symbols ) {
        symbol = usable[random.below( usable.size() )];
        writer.write( canonical.code[symbol], canonical.length[symbol] );
    }
    const auto encoded = writer.finish();

    Coding coding;
    REQUIRE( coding.initializeFromLengths( { lengths.data(), lengths.size() } ) );
    REQUIRE( coding.maxCodeLength() >= 1 );

    BitReader reader( encoded.data(), encoded.size() );
    for ( std::size_t i = 0; i < symbols.size(); ++i ) {
        const auto decoded = coding.decode( reader );
        REQUIRE( decoded == static_cast<int>( symbols[i] ) );
    }
    /* Trailing padding decodes to at most a few bogus symbols, then EOF. */
    while ( true ) {
        const auto decoded = coding.decode( reader );
        if ( decoded < 0 ) {
            REQUIRE( decoded == Coding::DECODE_EOF || decoded == Coding::DECODE_INVALID );
            break;
        }
    }
}

/**
 * Decode @p data's bit stream to an EVENT stream over a Deflate-style
 * literal/length alphabet: literal bytes as 0..255, end-of-block as 256,
 * length symbols as 1000 + final length (base + extra bits read from the
 * stream). Events are the right granularity for cross-implementation
 * equivalence because the multi-symbol LUT may resolve two literals or a
 * length INCLUDING its extra bits in one step — symbol-by-symbol streams
 * would not be comparable.
 */
template<typename Coding>
std::vector<int>
decodeEventsReference( const Coding& coding, const std::vector<std::uint8_t>& data,
                       std::size_t maxEvents )
{
    std::vector<int> events;
    BitReader reader( data.data(), data.size() );
    while ( events.size() < maxEvents ) {
        const auto symbol = coding.decode( reader );
        if ( symbol < 0 ) {
            events.push_back( symbol );  /* DECODE_EOF / DECODE_INVALID terminator */
            break;
        }
        if ( symbol < 256 ) {
            events.push_back( symbol );
        } else if ( symbol == 256 ) {
            events.push_back( 256 );
            break;
        } else if ( symbol <= 285 ) {
            const auto lengthIndex = static_cast<std::size_t>( symbol - 257 );
            const auto extra = deflate::LENGTH_EXTRA_BITS[lengthIndex];
            if ( reader.bitsLeft() < extra ) {
                events.push_back( HuffmanCodingDoubleLUT::DECODE_EOF );
                break;
            }
            const auto length = deflate::LENGTH_BASE[lengthIndex]
                                + ( extra > 0 ? reader.read( extra ) : 0 );
            events.push_back( 1000 + static_cast<int>( length ) );
        } else {
            events.push_back( HuffmanCodingDoubleLUT::DECODE_INVALID );
            break;
        }
    }
    return events;
}

/** The same event stream decoded through the multi-symbol LUT with the
 * Decoder's fast-loop discipline (guaranteed-bits lookups, safe tail). */
std::vector<int>
decodeEventsMulti( const HuffmanCodingMultiCached& coding,
                   const std::vector<std::uint8_t>& data, std::size_t maxEvents )
{
    std::vector<int> events;
    BitReader reader( data.data(), data.size() );
    constexpr unsigned GUARANTEED_BITS = 15 + 5;  /* max code + max length extra */
    while ( events.size() < maxEvents ) {
        if ( !reader.ensureBits( GUARANTEED_BITS ) ) {
            /* Safe tail near EOF: the delegate path, symbol by symbol. */
            const auto symbol = coding.decode( reader );
            if ( symbol < 0 ) {
                events.push_back( symbol );
                break;
            }
            if ( symbol < 256 ) {
                events.push_back( symbol );
                continue;
            }
            if ( symbol == 256 ) {
                events.push_back( 256 );
                break;
            }
            if ( symbol > 285 ) {
                events.push_back( HuffmanCodingDoubleLUT::DECODE_INVALID );
                break;
            }
            const auto lengthIndex = static_cast<std::size_t>( symbol - 257 );
            const auto extra = deflate::LENGTH_EXTRA_BITS[lengthIndex];
            if ( reader.bitsLeft() < extra ) {
                events.push_back( HuffmanCodingDoubleLUT::DECODE_EOF );
                break;
            }
            events.push_back( 1000 + static_cast<int>(
                deflate::LENGTH_BASE[lengthIndex]
                + ( extra > 0 ? reader.read( extra ) : 0 ) ) );
            continue;
        }

        const auto& entry = coding.lookup( reader.peekUnsafe( coding.cacheBits() ) );
        reader.consumeUnsafe( entry.bitsConsumed );  /* 0 for FALLBACK */
        const auto kind = entry.kind();
        if ( kind == HuffmanCodingMultiCached::LITERALS ) {
            events.push_back( entry.payload & 0xFFU );
            if ( entry.count() == 2 ) {
                events.push_back( entry.payload >> 8U );
            }
        } else if ( kind == HuffmanCodingMultiCached::LENGTH ) {
            events.push_back( 1000 + static_cast<int>(
                entry.payload + reader.readUnsafe( entry.extraBits() ) ) );
        } else if ( kind == HuffmanCodingMultiCached::END_OF_BLOCK ) {
            events.push_back( 256 );
            break;
        } else {
            const auto symbol = coding.fallback().decodeUnsafe( reader );
            if ( symbol < 0 ) {
                events.push_back( symbol );
                break;
            }
            if ( symbol < 256 ) {
                events.push_back( symbol );
            } else if ( symbol == 256 ) {
                events.push_back( 256 );
                break;
            } else if ( symbol <= 285 ) {
                const auto lengthIndex = static_cast<std::size_t>( symbol - 257 );
                const auto extra = deflate::LENGTH_EXTRA_BITS[lengthIndex];
                events.push_back( 1000 + static_cast<int>(
                    deflate::LENGTH_BASE[lengthIndex] + reader.readUnsafe( extra ) ) );
            } else {
                events.push_back( HuffmanCodingDoubleLUT::DECODE_INVALID );
                break;
            }
        }
    }
    return events;
}

/**
 * The multi-symbol-LUT equivalence sweep: on the same coding and the same
 * bits, the event streams of the naive single-level LUT, the two-level LUT,
 * and the multi-symbol cached LUT must agree exactly — including the
 * terminal EOF/INVALID event at a truncated (EOF-at-boundary) stream.
 */
void
checkEventEquivalence( const std::vector<std::uint8_t>& lengths,
                       const std::vector<std::uint8_t>& bits )
{
    HuffmanCoding naive;
    HuffmanCodingDoubleLUT twoLevel;
    HuffmanCodingMultiCached multi;
    REQUIRE( naive.initializeFromLengths( { lengths.data(), lengths.size() } ) );
    REQUIRE( twoLevel.initializeFromLengths( { lengths.data(), lengths.size() } ) );
    REQUIRE( multi.initializeFromLengths( { lengths.data(), lengths.size() } ) );

    constexpr std::size_t MAX_EVENTS = 20000;
    const auto naiveEvents = decodeEventsReference( naive, bits, MAX_EVENTS );
    const auto twoLevelEvents = decodeEventsReference( twoLevel, bits, MAX_EVENTS );
    const auto multiEvents = decodeEventsMulti( multi, bits, MAX_EVENTS );
    REQUIRE( naiveEvents == twoLevelEvents );
    REQUIRE( twoLevelEvents == multiEvents );

    /* EOF at every boundary near the end: all three must agree bit-exactly
     * on the truncated streams too. */
    for ( std::size_t cut = 1; ( cut <= 8 ) && ( cut < bits.size() ); ++cut ) {
        const std::vector<std::uint8_t> truncated( bits.begin(), bits.end() - cut );
        const auto a = decodeEventsReference( naive, truncated, MAX_EVENTS );
        const auto b = decodeEventsReference( twoLevel, truncated, MAX_EVENTS );
        const auto c = decodeEventsMulti( multi, truncated, MAX_EVENTS );
        REQUIRE( a == b );
        REQUIRE( b == c );
    }
}

/** Symbol and code length the two-level LUT decodes from the low bits of
 * @p bits (zero-padded above bit 16). */
[[nodiscard]] std::pair<int, unsigned>
decodeTwoLevel( const HuffmanCodingDoubleLUT& coding, std::uint64_t bits )
{
    std::array<std::uint8_t, 8> bytes{};
    bytes[0] = static_cast<std::uint8_t>( bits & 0xFFU );
    bytes[1] = static_cast<std::uint8_t>( ( bits >> 8U ) & 0xFFU );
    BitReader reader( bytes.data(), bytes.size() );
    const auto symbol = coding.decode( reader );
    return { symbol, static_cast<unsigned>( reader.tell() ) };
}

[[nodiscard]] std::uint64_t
lowBits( std::uint64_t value, unsigned count )
{
    return value & ( ( std::uint64_t( 1 ) << count ) - 1U );
}

/**
 * What the literal/length cache slot for @p pattern must hold, derived from
 * two-level decodes of the same bits: kind, symbol(s), bits consumed and
 * extra-bit count. FALLBACK (all zero) wherever the first code is longer
 * than the cache, invalid, or the reserved symbol 286/287.
 */
[[nodiscard]] HuffmanCodingMultiCached::Entry
expectedLiteralEntry( const HuffmanCodingDoubleLUT& reference, std::uint64_t pattern )
{
    using Multi = HuffmanCodingMultiCached;
    constexpr auto BITS = Multi::CACHE_BITS;
    const auto makeEntry = [] ( unsigned payload, unsigned bits, unsigned kindAndAux ) {
        Multi::Entry entry;
        entry.payload = static_cast<std::uint16_t>( payload );
        entry.bitsConsumed = static_cast<std::uint8_t>( bits );
        entry.kindAndAux = static_cast<std::uint8_t>( kindAndAux );
        return entry;
    };
    const auto [symbol, length] = decodeTwoLevel( reference, pattern );
    if ( ( symbol < 0 ) || ( length > BITS ) || ( symbol > 285 ) ) {
        return Multi::Entry{};
    }
    if ( symbol < 256 ) {
        const auto [second, secondLength] = decodeTwoLevel( reference, pattern >> length );
        if ( ( second >= 0 ) && ( second < 256 ) && ( length + secondLength <= BITS ) ) {
            return makeEntry( static_cast<unsigned>( symbol | ( second << 8 ) ),
                              length + secondLength, Multi::LITERALS | ( 2U << 4U ) );
        }
        return makeEntry( static_cast<unsigned>( symbol ), length, Multi::LITERALS | ( 1U << 4U ) );
    }
    if ( symbol == 256 ) {
        return makeEntry( 0, length, Multi::END_OF_BLOCK );
    }
    const auto lengthIndex = static_cast<std::size_t>( symbol - 257 );
    const auto extra = deflate::LENGTH_EXTRA_BITS[lengthIndex];
    const auto base = deflate::LENGTH_BASE[lengthIndex];
    if ( length + extra <= BITS ) {
        return makeEntry( base + static_cast<unsigned>( lowBits( pattern >> length, extra ) ),
                          length + extra, Multi::LENGTH );
    }
    return makeEntry( base, length, Multi::LENGTH | ( extra << 4U ) );
}

/** The distance-side counterpart of expectedLiteralEntry(). */
[[nodiscard]] HuffmanCodingDistanceCached::Entry
expectedDistanceEntry( const HuffmanCodingDoubleLUT& reference, std::uint64_t pattern )
{
    using Distance = HuffmanCodingDistanceCached;
    constexpr auto BITS = Distance::CACHE_BITS;
    const auto [symbol, length] = decodeTwoLevel( reference, pattern );
    if ( ( symbol < 0 ) || ( length > BITS ) || ( symbol > 29 ) ) {
        return Distance::Entry{};
    }
    const auto extra = deflate::DISTANCE_EXTRA_BITS[static_cast<std::size_t>( symbol )];
    const auto base = deflate::DISTANCE_BASE[static_cast<std::size_t>( symbol )];
    Distance::Entry entry;
    entry.kindAndExtra = Distance::DISTANCE;
    if ( length + extra <= BITS ) {
        entry.payload = static_cast<std::uint16_t>( base + lowBits( pattern >> length, extra ) );
        entry.bitsConsumed = static_cast<std::uint8_t>( length + extra );
    } else {
        entry.payload = base;
        entry.bitsConsumed = static_cast<std::uint8_t>( length );
        entry.kindAndExtra = static_cast<std::uint8_t>( Distance::DISTANCE | ( extra << 4U ) );
    }
    return entry;
}

/** Peak bits a cached table's entries consume, for corner-case coverage. */
struct TableCoverage
{
    unsigned pairBits{ 0 };
    unsigned foldedLengthBits{ 0 };
    unsigned foldedDistanceBits{ 0 };
};

/** Every 12-bit pattern of @p table against a two-level LUT built
 * independently from @p lengths. */
void
checkLiteralTable( const HuffmanCodingMultiCached::Entry* table,
                   const std::vector<std::uint8_t>& lengths, TableCoverage& coverage )
{
    HuffmanCodingDoubleLUT reference;
    REQUIRE( reference.initializeFromLengths( { lengths.data(), lengths.size() } ) );
    for ( std::uint64_t pattern = 0; pattern < ( 1U << HuffmanCodingMultiCached::CACHE_BITS );
          ++pattern ) {
        const auto expected = expectedLiteralEntry( reference, pattern );
        const auto& actual = table[pattern];
        REQUIRE( actual.payload == expected.payload );
        REQUIRE( actual.bitsConsumed == expected.bitsConsumed );
        REQUIRE( actual.kindAndAux == expected.kindAndAux );
        if ( ( actual.kind() == HuffmanCodingMultiCached::LITERALS ) && ( actual.count() == 2 ) ) {
            coverage.pairBits = std::max<unsigned>( coverage.pairBits, actual.bitsConsumed );
        }
        if ( ( actual.kind() == HuffmanCodingMultiCached::LENGTH )
             && ( actual.extraBits() == 0 ) ) {
            coverage.foldedLengthBits = std::max<unsigned>( coverage.foldedLengthBits,
                                                            actual.bitsConsumed );
        }
    }
}

void
checkDistanceTable( const HuffmanCodingDistanceCached::Entry* table,
                    const std::vector<std::uint8_t>& lengths, TableCoverage& coverage )
{
    HuffmanCodingDoubleLUT reference;
    REQUIRE( reference.initializeFromLengths( { lengths.data(), lengths.size() } ) );
    for ( std::uint64_t pattern = 0; pattern < ( 1U << HuffmanCodingDistanceCached::CACHE_BITS );
          ++pattern ) {
        const auto expected = expectedDistanceEntry( reference, pattern );
        const auto& actual = table[pattern];
        REQUIRE( actual.payload == expected.payload );
        REQUIRE( actual.bitsConsumed == expected.bitsConsumed );
        REQUIRE( actual.kindAndExtra == expected.kindAndExtra );
        if ( ( actual.kind() == HuffmanCodingDistanceCached::DISTANCE )
             && ( actual.extraBits() == 0 ) ) {
            coverage.foldedDistanceBits = std::max<unsigned>( coverage.foldedDistanceBits,
                                                              actual.bitsConsumed );
        }
    }
}

/** Literal/length and distance code lengths of one Dynamic header, parsed
 * independently of deflate::readDynamicCodings. */
struct HeaderLengths
{
    std::vector<std::uint8_t> literal;
    std::vector<std::uint8_t> distance;
};

[[nodiscard]] HeaderLengths
parseHeaderLengths( BitReader& reader )
{
    const auto literalCount = 257 + reader.read( 5 );
    const auto distanceCount = 1 + reader.read( 5 );
    const auto precodeCount = 4 + reader.read( 4 );
    std::vector<std::uint8_t> precodeLengths( deflate::PRECODE_SYMBOLS, 0 );
    for ( std::size_t i = 0; i < precodeCount; ++i ) {
        precodeLengths[deflate::PRECODE_ORDER[i]] = static_cast<std::uint8_t>( reader.read( 3 ) );
    }
    HuffmanCoding precode;
    REQUIRE( precode.initializeFromLengths( { precodeLengths.data(), precodeLengths.size() } ) );
    std::vector<std::uint8_t> lengths;
    while ( lengths.size() < literalCount + distanceCount ) {
        const auto symbol = precode.decode( reader );
        REQUIRE( symbol >= 0 );
        if ( symbol <= 15 ) {
            lengths.push_back( static_cast<std::uint8_t>( symbol ) );
        } else if ( symbol == 16 ) {
            lengths.insert( lengths.end(), 3 + reader.read( 2 ), lengths.back() );
        } else {
            const auto repeat = symbol == 17 ? 3 + reader.read( 3 ) : 11 + reader.read( 7 );
            lengths.insert( lengths.end(), repeat, 0 );
        }
    }
    return { { lengths.begin(), lengths.begin() + static_cast<std::ptrdiff_t>( literalCount ) },
             { lengths.begin() + static_cast<std::ptrdiff_t>( literalCount ), lengths.end() } };
}

/** Every Dynamic header of a level-@p level gzip of @p data: the decoder's
 * own tables from deflate::readDynamicCodings against independently built
 * two-level LUTs, plus the event sweep on the literal coding. Returns the
 * number of headers checked. */
std::size_t
checkCorpusHeaders( const std::vector<std::uint8_t>& data, int level, TableCoverage& coverage )
{
    const auto gz = compressGzipLike( { data.data(), data.size() }, level );
    const auto start = parseGzipHeader( { gz.data(), gz.size() } );
    const BufferView stream( gz.data() + start, gz.size() - start );

    std::size_t headerCount = 0;
    BitReader blockReader( stream.data(), stream.size() );
    deflate::Decoder decoder;
    decoder.setInitialWindow( {} );
    deflate::DecodedData decoded;
    deflate::DynamicHuffmanCodings codings;
    while ( true ) {
        const auto blockStart = blockReader.tell();
        const auto header = BitReader::peekAt( stream.data(), stream.size(), blockStart, 3 );
        if ( ( ( header >> 1U ) & 0b11U ) == deflate::BLOCK_TYPE_DYNAMIC ) {
            BitReader reader( stream.data(), stream.size() );
            reader.seek( blockStart + 3 );
            const auto lengths = parseHeaderLengths( reader );
            reader.seek( blockStart + 3 );
            REQUIRE( deflate::readDynamicCodings( reader, codings ) == Error::NONE );
            checkLiteralTable( codings.literal.tableData(), lengths.literal, coverage );
            checkEventEquivalence( lengths.literal,
                                   workloads::randomData( 4 * KiB, blockStart ) );
            if ( codings.distanceUsable ) {
                checkDistanceTable( codings.distance.tableData(), lengths.distance, coverage );
            }
            ++headerCount;
        }
        const auto result = decoder.decode( blockReader, decoded, blockStart + 1 );
        REQUIRE( result.error == Error::NONE );
        if ( result.reachedFinalBlock ) {
            return headerCount;
        }
    }
}

/** Give each target symbol its wanted code length by swapping lengths with
 * a symbol that is no target. Permuting lengths keeps the code complete. */
void
placeLengths( std::vector<std::uint8_t>& lengths,
              const std::vector<std::pair<std::size_t, std::uint8_t> >& placements )
{
    const auto isTarget = [&] ( std::size_t symbol ) {
        return std::any_of( placements.begin(), placements.end(),
                            [symbol] ( const auto& placement ) {
                                return placement.first == symbol;
                            } );
    };
    for ( const auto& [symbol, wanted] : placements ) {
        std::size_t donor = 0;
        while ( ( donor < lengths.size() )
                && ( ( lengths[donor] != wanted ) || isTarget( donor ) ) ) {
            ++donor;
        }
        REQUIRE( donor < lengths.size() );
        std::swap( lengths[donor], lengths[symbol] );
    }
}

/** A synthetic literal/length coding: exhaustive table check and event
 * sweep. */
void
checkLiteralCoding( const std::vector<std::uint8_t>& lengths, std::uint64_t seed,
                    TableCoverage& coverage )
{
    HuffmanCodingMultiCached multi;
    REQUIRE( multi.initializeFromLengths( { lengths.data(), lengths.size() } ) );
    checkLiteralTable( multi.tableData(), lengths, coverage );
    checkEventEquivalence( lengths, workloads::randomData( 16 * KiB, seed ) );
}

void
checkDistanceCoding( const std::vector<std::uint8_t>& lengths, TableCoverage& coverage )
{
    HuffmanCodingDistanceCached distance;
    REQUIRE( distance.initializeFromLengths( { lengths.data(), lengths.size() } ) );
    checkDistanceTable( distance.tableData(), lengths, coverage );
}

}  // namespace

int
main()
{
    /* Hand-checkable code: lengths {1,2,3,3} over symbols {a,b,c,d}. */
    {
        const std::vector<std::uint8_t> lengths{ 1, 2, 3, 3 };
        checkRoundTrip<HuffmanCoding>( lengths, 1 );
        checkRoundTrip<HuffmanCodingDoubleLUT>( lengths, 1 );
    }

    /* Deflate-typical and pathological shapes; two-level layout must agree. */
    checkRoundTrip<HuffmanCoding>( makeCompleteCode( 286, 12, 0xCAFE ), 2 );
    checkRoundTrip<HuffmanCodingDoubleLUT>( makeCompleteCode( 286, 12, 0xCAFE ), 2 );
    checkRoundTrip<HuffmanCoding>( makeCompleteCode( 286, 15, 0xBEEF ), 3 );
    checkRoundTrip<HuffmanCodingDoubleLUT>( makeCompleteCode( 286, 15, 0xBEEF ), 3 );
    checkRoundTrip<HuffmanCoding>( makeCompleteCode( 19, 7, 0x1234 ), 4 );
    checkRoundTrip<HuffmanCodingDoubleLUT>( makeCompleteCode( 19, 7, 0x1234 ), 4 );

    /* Both decoders produce identical symbol streams on identical input. */
    {
        const auto lengths = makeCompleteCode( 286, 15, 0x77 );
        HuffmanCoding single;
        HuffmanCodingDoubleLUT twoLevel;
        REQUIRE( single.initializeFromLengths( { lengths.data(), lengths.size() } ) );
        REQUIRE( twoLevel.initializeFromLengths( { lengths.data(), lengths.size() } ) );

        const auto bits = workloads::randomData( 64 * KiB, 0x99 );
        BitReader readerA( bits.data(), bits.size() );
        BitReader readerB( bits.data(), bits.size() );
        while ( true ) {
            const auto a = single.decode( readerA );
            const auto b = twoLevel.decode( readerB );
            REQUIRE( a == b );
            if ( a < 0 ) {
                break;
            }
        }
    }

    /* Over-subscribed codes are rejected (Kraft violation). */
    {
        const std::vector<std::uint8_t> bad{ 1, 1, 1 };
        HuffmanCoding single;
        HuffmanCodingDoubleLUT twoLevel;
        REQUIRE( !single.initializeFromLengths( { bad.data(), bad.size() } ) );
        REQUIRE( !twoLevel.initializeFromLengths( { bad.data(), bad.size() } ) );
    }

    /* Incomplete codes: unmapped patterns decode as DECODE_INVALID. */
    {
        const std::vector<std::uint8_t> incomplete{ 2, 2, 2 };  /* codes 00,01,10; 11 unmapped */
        HuffmanCoding coding;
        REQUIRE( coding.initializeFromLengths( { incomplete.data(), incomplete.size() } ) );
        const std::uint8_t allOnes[] = { 0xFF };
        BitReader reader( allOnes, sizeof( allOnes ) );
        REQUIRE( coding.decode( reader ) == HuffmanCoding::DECODE_INVALID );

        HuffmanCodingDoubleLUT twoLevel;
        REQUIRE( twoLevel.initializeFromLengths( { incomplete.data(), incomplete.size() } ) );
        BitReader reader2( allOnes, sizeof( allOnes ) );
        REQUIRE( twoLevel.decode( reader2 ) == HuffmanCodingDoubleLUT::DECODE_INVALID );
    }

    /* All-zero lengths are rejected; EOF on an empty reader. */
    {
        const std::vector<std::uint8_t> zeros( 10, 0 );
        HuffmanCoding coding;
        REQUIRE( !coding.initializeFromLengths( { zeros.data(), zeros.size() } ) );

        const auto lengths = makeCompleteCode( 19, 7, 0x1 );
        REQUIRE( coding.initializeFromLengths( { lengths.data(), lengths.size() } ) );
        BitReader empty( static_cast<const std::uint8_t*>( nullptr ), 0 );
        REQUIRE( coding.decode( empty ) == HuffmanCoding::DECODE_EOF );
    }

    /* Multi-symbol LUT equivalence sweep (PR 4): naive vs two-level vs
     * multi-symbol cached event streams on randomized dynamic codings over
     * the full literal/length alphabet — including pathological 15-bit
     * codes — plus the fixed coding, on random bits and on truncated
     * streams (EOF at every boundary near the end). */
    {
        for ( const unsigned maxLength : { 9U, 10U, 12U, 15U } ) {
            for ( std::uint64_t seed = 1; seed <= 3; ++seed ) {
                const auto lengths =
                    makeCompleteCode( 286, maxLength, 0x5EED0 + seed * 17 + maxLength );
                const auto bits = workloads::randomData( 16 * KiB, seed * 31 + maxLength );
                checkEventEquivalence( lengths, bits );
            }
        }
        /* Small alphabets exercise deep multi-literal packing. */
        checkEventEquivalence( makeCompleteCode( 64, 7, 0xAB1E ),
                               workloads::randomData( 16 * KiB, 0xAB1F ) );

        /* The fixed (BTYPE 01) literal coding. */
        std::vector<std::uint8_t> fixedLengths( 288 );
        for ( std::size_t i = 0; i < 144; ++i ) { fixedLengths[i] = 8; }
        for ( std::size_t i = 144; i < 256; ++i ) { fixedLengths[i] = 9; }
        for ( std::size_t i = 256; i < 280; ++i ) { fixedLengths[i] = 7; }
        for ( std::size_t i = 280; i < 288; ++i ) { fixedLengths[i] = 8; }
        checkEventEquivalence( fixedLengths, workloads::randomData( 16 * KiB, 0xF1E0 ) );
    }

    /* Exhaustive cached-table equivalence: every 12-bit literal and 11-bit
     * distance peek pattern resolves through the cached table to what the
     * two-level LUT decodes from the same bits — first for every Dynamic
     * header the decoder meets on the synthetic corpora ... */
    {
        constexpr std::size_t SIZE = 4 * MiB;
        TableCoverage coverage;
        std::size_t headerCount = 0;
        for ( const auto& data : { workloads::base64Data( SIZE, 0x7AB1E ),
                                   workloads::silesiaLikeData( SIZE, 0x7AB1F ),
                                   workloads::fastqData( SIZE, 0x7AB20 ) } ) {
            for ( const int level : { 1, 6, 9 } ) {
                headerCount += checkCorpusHeaders( data, level, coverage );
            }
        }
        REQUIRE( headerCount > 500 );
        REQUIRE( coverage.pairBits == HuffmanCodingMultiCached::CACHE_BITS );
    }

    /* ... then for hand-shaped corner cases. */
    {
        TableCoverage coverage;

        /* 15-bit codes on both alphabets. */
        for ( std::uint64_t seed = 1; seed <= 3; ++seed ) {
            checkLiteralCoding( makeCompleteCode( 286, 15, 0x15B17 + seed ), 0x15B27 + seed,
                                coverage );
            checkDistanceCoding( makeCompleteCode( 30, 15, 0x15B37 + seed ), coverage );
        }

        /* All 288 symbols coded: HLIT's 286 plus the reserved 286 and 287,
         * which must stay FALLBACK entries. */
        {
            auto lengths = makeCompleteCode( 288, 10, 0x288 );
            placeLengths( lengths, { { 286, 4 } } );
            checkLiteralCoding( lengths, 0x289, coverage );
        }

        /* A single distance code — incomplete, legal — at symbols with no,
         * folded and unfolded extra bits. */
        for ( const std::size_t symbol : { 0, 7, 29 } ) {
            std::vector<std::uint8_t> lengths( 30, 0 );
            lengths[symbol] = 1;
            checkDistanceCoding( lengths, coverage );
        }

        /* Entries that use exactly the cache width: literal pairs of 6 + 6
         * and 5 + 7 bits, lengths of 7 code + 5 extra and 8 code + 4 extra
         * bits, and distances of 5 code + 6 extra bits. */
        {
            auto lengths = makeCompleteCode( 286, 12, 0x12B17 );
            /* 284 is a length symbol with 5 extra bits, 280 one with 4. */
            placeLengths( lengths, { { 'a', 6 }, { 'b', 5 }, { 'c', 7 }, { 284, 7 }, { 280, 8 } } );
            checkLiteralCoding( lengths, 0x12B18, coverage );

            auto distanceLengths = makeCompleteCode( 30, 11, 0x11B17 );
            placeLengths( distanceLengths, { { 14, 5 } } );  /* 6 extra bits */
            checkDistanceCoding( distanceLengths, coverage );
        }
        REQUIRE( coverage.pairBits == HuffmanCodingMultiCached::CACHE_BITS );
        REQUIRE( coverage.foldedLengthBits == HuffmanCodingMultiCached::CACHE_BITS );
        REQUIRE( coverage.foldedDistanceBits == HuffmanCodingDistanceCached::CACHE_BITS );
    }

    return rapidgzip::test::finish( "testHuffman" );
}
