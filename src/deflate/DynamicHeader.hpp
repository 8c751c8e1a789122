#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "../bits/BitReader.hpp"
#include "../common/Error.hpp"
#include "../huffman/HuffmanCoding.hpp"
#include "../huffman/HuffmanCodingDistanceCached.hpp"
#include "../huffman/HuffmanCodingDoubleLUT.hpp"
#include "../huffman/HuffmanCodingMultiCached.hpp"
#include "definitions.hpp"

namespace rapidgzip::deflate {

/**
 * The literal/length and distance codings of one Dynamic block. The
 * distance coding may legally be absent (HDIST = 0 with a zero length) or a
 * single incomplete code (RFC 1951 §3.2.7); `distanceUsable` distinguishes
 * "no distance code defined" from "defined but the symbol was invalid".
 *
 * Both sides use cached LUTs whose fallback IS the two-level coding, so
 * accept/reject behavior and the reference decode path are unchanged: the
 * literal/length side packs two literals or a folded length+extra into one
 * lookup, the distance side folds the distance extra bits the same way.
 *
 * Reused across headers, the codings allocate nothing in steady state: the
 * tables are fixed-size members, and the heap parts (the precode LUT, the
 * fallback subtables of codes longer than 9 bits) keep their capacity.
 */
struct DynamicHuffmanCodings
{
    HuffmanCodingMultiCached literal;
    HuffmanCodingDistanceCached distance;
    bool distanceUsable{ false };
    /** Header-parsing scratch: max length 7 -> at most a 128-entry LUT. */
    HuffmanCoding precode;
};

/**
 * Parse a Dynamic block header (everything after the 3 BFINAL/BTYPE bits)
 * and build the two Huffman codings. This is the single source of truth for
 * header acceptance: the naive block finder calls it directly and the rapid
 * finder's cascaded filters reproduce exactly its accept/reject behavior —
 * any divergence shows up as a false negative in testBlockFinder.
 *
 * Acceptance follows zlib (stricter than the letter of RFC 1951 where real
 * encoders are stricter too): the precode and the literal/length code must
 * be complete and not over-subscribed; the distance code must be complete
 * unless it has at most one symbol.
 */
[[nodiscard]] inline Error
readDynamicCodings( BitReader& reader, DynamicHuffmanCodings& codings,
                    bool buildCachedTables = true )
{
    if ( reader.bitsLeft() < MIN_DYNAMIC_HEADER_BITS - 3 ) {
        return Error::TRUNCATED_STREAM;
    }
    const auto literalCount = 257 + static_cast<unsigned>( reader.read( 5 ) );
    const auto distanceCount = 1 + static_cast<unsigned>( reader.read( 5 ) );
    if ( ( literalCount > MAX_LITERAL_SYMBOLS ) || ( distanceCount > MAX_DISTANCE_SYMBOLS ) ) {
        return Error::INVALID_CODE_COUNTS;
    }
    const auto precodeCount = 4 + static_cast<unsigned>( reader.read( 4 ) );

    std::array<std::uint8_t, PRECODE_SYMBOLS> precodeLengths{};
    if ( reader.bitsLeft() < precodeCount * PRECODE_BITS ) {
        return Error::TRUNCATED_STREAM;
    }
    for ( unsigned i = 0; i < precodeCount; ++i ) {
        precodeLengths[PRECODE_ORDER[i]] = static_cast<std::uint8_t>( reader.read( PRECODE_BITS ) );
    }

    auto& precode = codings.precode;
    if ( !precode.initializeFromLengths( { precodeLengths.data(), precodeLengths.size() } ) ) {
        return Error::INVALID_PRECODE;
    }
    if ( !precode.isCompleteCode() ) {
        return Error::NON_OPTIMAL_PRECODE;
    }

    /* Literal/length and distance code lengths form one contiguous
     * precode-encoded array; repeats may cross the boundary. */
    std::array<std::uint8_t, MAX_LITERAL_SYMBOLS + MAX_DISTANCE_SYMBOLS> lengths{};
    const std::size_t totalLengths = literalCount + distanceCount;
    std::size_t position = 0;
    while ( position < totalLengths ) {
        const auto symbol = precode.decode( reader );
        if ( symbol < 0 ) {
            /* A complete precode cannot produce DECODE_INVALID; only EOF. */
            return Error::TRUNCATED_STREAM;
        }
        if ( symbol <= 15 ) {
            lengths[position++] = static_cast<std::uint8_t>( symbol );
            continue;
        }
        std::size_t repeat = 0;
        std::uint8_t value = 0;
        if ( symbol == 16 ) {
            if ( position == 0 ) {
                return Error::INVALID_CODE_LENGTHS;  /* no previous length to repeat */
            }
            if ( reader.bitsLeft() < 2 ) {
                return Error::TRUNCATED_STREAM;
            }
            repeat = 3 + reader.read( 2 );
            value = lengths[position - 1];
        } else if ( symbol == 17 ) {
            if ( reader.bitsLeft() < 3 ) {
                return Error::TRUNCATED_STREAM;
            }
            repeat = 3 + reader.read( 3 );
        } else {  /* symbol == 18 */
            if ( reader.bitsLeft() < 7 ) {
                return Error::TRUNCATED_STREAM;
            }
            repeat = 11 + reader.read( 7 );
        }
        if ( position + repeat > totalLengths ) {
            return Error::INVALID_CODE_LENGTHS;
        }
        for ( std::size_t i = 0; i < repeat; ++i ) {
            lengths[position++] = value;
        }
    }

    /* Distance first: with only 30 symbols it is the cheaper check, which is
     * also why the rapid finder's cascade orders it before the literal code
     * (paper Table 1). A distance code may be entirely absent, and a
     * SINGLE-symbol distance code may be incomplete (RFC 1951 §3.2.7). */
    bool anyDistanceCode = false;
    for ( std::size_t i = 0; i < distanceCount; ++i ) {
        anyDistanceCode = anyDistanceCode || ( lengths[literalCount + i] != 0 );
    }
    codings.distanceUsable = anyDistanceCode;
    if ( anyDistanceCode ) {
        if ( !codings.distance.initializeFromLengths( { lengths.data() + literalCount,
                                                        distanceCount },
                                                      buildCachedTables ) ) {
            return Error::INVALID_DISTANCE_CODING;
        }
        if ( ( codings.distance.codeCount() > 1 ) && !codings.distance.isCompleteCode() ) {
            return Error::NON_OPTIMAL_DISTANCE_CODING;
        }
    }

    if ( !codings.literal.initializeFromLengths( { lengths.data(), literalCount },
                                                 buildCachedTables ) ) {
        return Error::INVALID_LITERAL_CODING;
    }
    if ( !codings.literal.isCompleteCode() ) {
        return Error::NON_OPTIMAL_LITERAL_CODING;
    }
    return Error::NONE;
}

}  // namespace rapidgzip::deflate
