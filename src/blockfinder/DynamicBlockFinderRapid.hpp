#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "../bits/BitReader.hpp"
#include "../common/Util.hpp"
#include "../deflate/definitions.hpp"
#include "BlockFinder.hpp"
#include "PrecodeLutCache.hpp"

namespace rapidgzip::blockfinder {

namespace detail {

/** One packed-histogram increment (see PRECODE_HISTOGRAM_INCREMENT). */
[[nodiscard]] constexpr std::uint64_t
precodeHistogramIncrement( unsigned length, unsigned laneBits, unsigned kraftShift ) noexcept
{
    return length == 0
           ? 0
           : ( ( std::uint64_t( 1 ) << ( ( length - 1 ) * laneBits ) )
               | ( ( std::uint64_t( 1 ) << ( 7 - length ) ) << kraftShift ) );
}

}  // namespace detail

/**
 * Per-filter rejection counters for paper Table 1. Each counter tallies how
 * many candidate positions the corresponding cascade stage rejected; stages
 * are ordered cheapest-first so the expensive ones run on a sharply shrinking
 * share of positions.
 */
struct FilterStatistics
{
    std::uint64_t positionsTested{ 0 };
    std::uint64_t invalidFinalBlock{ 0 };
    std::uint64_t invalidCompressionType{ 0 };
    std::uint64_t invalidPrecodeSize{ 0 };
    std::uint64_t invalidPrecodeCode{ 0 };
    std::uint64_t nonOptimalPrecodeCode{ 0 };
    std::uint64_t invalidPrecodeEncodedData{ 0 };
    std::uint64_t invalidDistanceCode{ 0 };
    std::uint64_t nonOptimalDistanceCode{ 0 };
    std::uint64_t invalidLiteralCode{ 0 };
    std::uint64_t nonOptimalLiteralCode{ 0 };
    std::uint64_t validHeaders{ 0 };
};

[[nodiscard]] inline bool
operator==( const FilterStatistics& a, const FilterStatistics& b ) noexcept
{
    return ( a.positionsTested == b.positionsTested )
           && ( a.invalidFinalBlock == b.invalidFinalBlock )
           && ( a.invalidCompressionType == b.invalidCompressionType )
           && ( a.invalidPrecodeSize == b.invalidPrecodeSize )
           && ( a.invalidPrecodeCode == b.invalidPrecodeCode )
           && ( a.nonOptimalPrecodeCode == b.nonOptimalPrecodeCode )
           && ( a.invalidPrecodeEncodedData == b.invalidPrecodeEncodedData )
           && ( a.invalidDistanceCode == b.invalidDistanceCode )
           && ( a.nonOptimalDistanceCode == b.nonOptimalDistanceCode )
           && ( a.invalidLiteralCode == b.invalidLiteralCode )
           && ( a.nonOptimalLiteralCode == b.nonOptimalLiteralCode )
           && ( a.validHeaders == b.validHeaders );
}

[[nodiscard]] inline bool
operator!=( const FilterStatistics& a, const FilterStatistics& b ) noexcept
{
    return !( a == b );
}

/**
 * "DBF rapidgzip" in paper Table 2 / §3.2: the cascaded-filter Dynamic block
 * finder. It accepts exactly the headers deflate::readDynamicCodings accepts
 * (zero false negatives vs the naive finder — enforced by testBlockFinder)
 * but rejects the overwhelming majority of positions with a few peeked bits
 * and NEVER builds the literal/distance lookup tables: after the precode
 * stage, code validity is decided from Kraft sums over the length counts
 * alone, which is the decisive cost difference vs the naive full parse.
 */
class DynamicBlockFinderRapid
{
public:
    /**
     * Run the full filter cascade on the candidate at @p position. This is
     * the hot entry point and it is POSITIONLESS: stages 1-4 read the
     * candidate's bits with direct (peekAt-style) loads from the underlying
     * memory — no BitReader state machine, no seek, no refill bookkeeping —
     * which is both faster and far less sensitive to surrounding codegen
     * than cursor-based probing. Only the rare stage-5 survivors construct
     * a reader. Returns true when the position holds a valid non-final
     * Dynamic block header. @p statistics may be nullptr.
     */
    [[nodiscard]] static bool
    testCandidate( BufferView data, std::size_t position, FilterStatistics* statistics )
    {
        FilterStatistics scratch;
        auto& stats = statistics != nullptr ? *statistics : scratch;
        ++stats.positionsTested;

        const auto totalBits = data.size() * 8;
        if ( ( position >= totalBits )
             || ( totalBits - position < deflate::MIN_DYNAMIC_HEADER_BITS ) ) {
            ++stats.invalidFinalBlock;  /* position not even probeable */
            return false;
        }
        const auto bitsLeft = totalBits - position;

        /* Stages 1-4 from ONE direct load: BFINAL, BTYPE, HLIT, HDIST,
         * HCLEN, and the first 13 of up to 19 precode lengths all sit in
         * the first 56 bits. The histogram lives in one 64-bit register
         * with a single table-indexed addition per 3-bit length, and the
         * SAME register accumulates the Kraft sum (see
         * PRECODE_HISTOGRAM_INCREMENT): the overwhelmingly common rejection
         * exits having executed one load, a handful of ALU ops, and zero
         * stores. */
        const auto header = loadBits( data.data(), data.size(), position, HEADER_PEEK_BITS );
        if ( ( header & 0b1U ) != 0 ) {
            ++stats.invalidFinalBlock;
            return false;
        }
        if ( ( ( header >> 1U ) & 0b11U ) != deflate::BLOCK_TYPE_DYNAMIC ) {
            ++stats.invalidCompressionType;
            return false;
        }
        const auto hlit = static_cast<unsigned>( ( header >> 3U ) & 0b11111U );
        if ( hlit > 29 ) {
            ++stats.invalidPrecodeSize;
            return false;
        }
        const auto hdist = static_cast<unsigned>( ( header >> 8U ) & 0b11111U );
        const auto precodeCount = 4 + static_cast<unsigned>( ( header >> 13U ) & 0b1111U );
        const auto precodeBits = precodeCount * deflate::PRECODE_BITS;
        if ( bitsLeft < HEADER_PREFIX_BITS + precodeBits ) {
            ++stats.invalidPrecodeCode;
            return false;
        }

        /* Mask away bits past the transmitted lengths and run FIXED-trip
         * accumulation loops with INDEPENDENT per-index shifts: masked-out
         * lengths are 0 and contribute nothing, the constant trip counts
         * unroll completely, and the independent shifts form an
         * ILP-friendly reduction instead of a serial add/shift chain. */
        std::uint64_t histogram = 0;
        const auto firstBatch = std::min( precodeCount, FIRST_LENGTH_BATCH );
        const auto lengthBits = ( header >> HEADER_PREFIX_BITS )
                                & ( ( std::uint64_t( 1 )
                                      << ( firstBatch * deflate::PRECODE_BITS ) ) - 1U );
        for ( unsigned i = 0; i < FIRST_LENGTH_BATCH; ++i ) {
            histogram += PRECODE_HISTOGRAM_INCREMENT[
                ( lengthBits >> ( i * deflate::PRECODE_BITS ) ) & 0b111U];
        }
        if ( precodeCount > FIRST_LENGTH_BATCH ) {
            /* Up to 6 more lengths (~1/3 of candidates): one more load. */
            const auto tailLengthBits = loadBits(
                data.data(), data.size(), position + HEADER_PEEK_BITS,
                ( precodeCount - FIRST_LENGTH_BATCH ) * deflate::PRECODE_BITS );
            for ( unsigned i = 0; i < deflate::PRECODE_SYMBOLS - FIRST_LENGTH_BATCH; ++i ) {
                histogram += PRECODE_HISTOGRAM_INCREMENT[
                    ( tailLengthBits >> ( i * deflate::PRECODE_BITS ) ) & 0b111U];
            }
        }

        /* The whole validity decision from the packed register — no
         * per-length loop, no early-exit branch chain. */
        const auto kraftSum = histogram >> KRAFT_SHIFT;
        if ( ( histogram == 0 ) || ( kraftSum > 128 ) ) {
            ++stats.invalidPrecodeCode;  /* no symbols at all / over-subscribed */
            return false;
        }
        if ( kraftSum != 128 ) {
            ++stats.nonOptimalPrecodeCode;  /* incomplete code */
            return false;
        }

        return testSurvivor( data, position, header, precodeCount, hlit, hdist, stats );
    }

    /** The pre-optimization cascade (checked reads, per-symbol counting
     * into a byte-array histogram), kept bit-exact as the reference that
     * testCandidate() must agree with on every position and every counter. */
    [[nodiscard]] static bool
    testCandidateScalar( BufferView data, std::size_t position, FilterStatistics* statistics )
    {
        BitReader reader( data.data(), data.size() );
        reader.seek( position );
        FilterStatistics scratch;
        auto& stats = statistics != nullptr ? *statistics : scratch;
        ++stats.positionsTested;

        if ( reader.bitsLeft() < deflate::MIN_DYNAMIC_HEADER_BITS ) {
            ++stats.invalidFinalBlock;  /* position not even probeable */
            return false;
        }

        /* Stage 1+2+3: one 8-bit peek covers BFINAL, BTYPE, and HLIT. */
        std::array<std::uint8_t, deflate::PRECODE_SYMBOLS> precodeLengths{};
        const auto prefix = reader.peek( 8 );
        if ( ( prefix & 0b1U ) != 0 ) {
            ++stats.invalidFinalBlock;
            return false;
        }
        if ( ( ( prefix >> 1U ) & 0b11U ) != deflate::BLOCK_TYPE_DYNAMIC ) {
            ++stats.invalidCompressionType;
            return false;
        }
        const auto hlit = static_cast<unsigned>( ( prefix >> 3U ) & 0b11111U );
        if ( hlit > 29 ) {
            ++stats.invalidPrecodeSize;
            return false;
        }
        reader.skip( 8 );
        const auto hdist = static_cast<unsigned>( reader.read( 5 ) );
        const auto precodeCount = 4 + static_cast<unsigned>( reader.read( 4 ) );

        /* Stage 4: per-symbol counting into a byte-array histogram. */
        const auto precodeBits = precodeCount * deflate::PRECODE_BITS;
        if ( reader.bitsLeft() < precodeBits ) {
            ++stats.invalidPrecodeCode;
            return false;
        }
        std::array<std::uint8_t, 8> precodeCountPerLength{};
        for ( unsigned i = 0; i < precodeCount; ++i ) {
            const auto length = static_cast<std::uint8_t>( reader.read( deflate::PRECODE_BITS ) );
            precodeLengths[deflate::PRECODE_ORDER[i]] = length;
            ++precodeCountPerLength[length];
        }
        std::int32_t available = 1;
        unsigned maxPrecodeLength = 0;
        for ( unsigned length = 1; length <= 7; ++length ) {
            available <<= 1;
            available -= precodeCountPerLength[length];
            if ( available < 0 ) {
                ++stats.invalidPrecodeCode;
                return false;
            }
            if ( precodeCountPerLength[length] > 0 ) {
                maxPrecodeLength = length;
            }
        }
        if ( maxPrecodeLength == 0 ) {
            ++stats.invalidPrecodeCode;  /* no symbols at all */
            return false;
        }
        /* Complete iff the Kraft remainder at the max used length is 0. */
        if ( ( available >> ( 7 - maxPrecodeLength ) ) != 0 ) {
            ++stats.nonOptimalPrecodeCode;
            return false;
        }
        return testEncodedData( reader, hlit, hdist, precodeLengths, stats );
    }

private:
    /**
     * Packed-histogram increments: lengths 1..7 occupy 5-bit frequency
     * lanes of one 64-bit accumulator (length 0 = unused symbol contributes
     * nothing), and the SAME addition accumulates the Kraft sum
     * sum(count[len] * 2^(7-len)) in the bits above KRAFT_SHIFT — so the
     * full frequency histogram AND the validity decision cost exactly ONE
     * table-indexed addition per 3-bit code length, no byte array, no
     * per-symbol stores, no per-length loop afterwards:
     *
     *   over-subscribed  <=> Kraft sum > 128  (partial sums of nonnegative
     *                        terms are monotone, so an intermediate-length
     *                        violation always shows in the total)
     *   complete         <=> Kraft sum == 128 (the sum is automatically a
     *                        multiple of 2^(7-maxLength), so saturation at
     *                        the maximum used length equals exact equality)
     *
     * Overflow guard: at most PRECODE_SYMBOLS = 19 codes exist and
     * 19 < 2^5 - 1, so a frequency lane can never carry into its neighbor;
     * the Kraft field's maximum 19 * 64 = 1216 fits its 11 bits with the
     * lanes ending at bit 35 < KRAFT_SHIFT (static_asserts below).
     */
    static constexpr unsigned HISTOGRAM_LANE_BITS = 5;
    static constexpr unsigned KRAFT_SHIFT = 40;
    static constexpr std::array<std::uint64_t, 8> PRECODE_HISTOGRAM_INCREMENT = {
        detail::precodeHistogramIncrement( 0, HISTOGRAM_LANE_BITS, KRAFT_SHIFT ),
        detail::precodeHistogramIncrement( 1, HISTOGRAM_LANE_BITS, KRAFT_SHIFT ),
        detail::precodeHistogramIncrement( 2, HISTOGRAM_LANE_BITS, KRAFT_SHIFT ),
        detail::precodeHistogramIncrement( 3, HISTOGRAM_LANE_BITS, KRAFT_SHIFT ),
        detail::precodeHistogramIncrement( 4, HISTOGRAM_LANE_BITS, KRAFT_SHIFT ),
        detail::precodeHistogramIncrement( 5, HISTOGRAM_LANE_BITS, KRAFT_SHIFT ),
        detail::precodeHistogramIncrement( 6, HISTOGRAM_LANE_BITS, KRAFT_SHIFT ),
        detail::precodeHistogramIncrement( 7, HISTOGRAM_LANE_BITS, KRAFT_SHIFT ),
    };
    static_assert( deflate::PRECODE_SYMBOLS < ( 1U << HISTOGRAM_LANE_BITS ) - 1,
                   "a histogram lane must never carry into its neighbor" );
    static_assert( 7 * HISTOGRAM_LANE_BITS <= KRAFT_SHIFT,
                   "frequency lanes must not reach into the Kraft field" );
    static_assert( deflate::PRECODE_SYMBOLS * 64ULL < ( std::uint64_t( 1 ) << ( 64 - KRAFT_SHIFT ) ),
                   "the Kraft field must not overflow" );
    static_assert( deflate::PRECODE_SYMBOLS * deflate::PRECODE_BITS <= BitReader::MAX_ENSURE_BITS,
                   "all precode lengths must fit one wide peek" );

    /** BFINAL + BTYPE + HLIT + HDIST + HCLEN. */
    static constexpr unsigned HEADER_PREFIX_BITS = 3 + 5 + 5 + 4;
    /** One wide peek covers the prefix plus the first 13 precode lengths. */
    static constexpr unsigned HEADER_PEEK_BITS = 56;
    static constexpr unsigned FIRST_LENGTH_BATCH =
        ( HEADER_PEEK_BITS - HEADER_PREFIX_BITS ) / deflate::PRECODE_BITS;

    /** Positionless zero-padded load — one shared implementation lives on
     * the reader. */
    [[nodiscard]] static std::uint64_t
    loadBits( const std::uint8_t* data, std::size_t sizeInBytes,
              std::size_t bitOffset, unsigned bitCount ) noexcept
    {
        return BitReader::peekAt( data, sizeInBytes, bitOffset, bitCount );
    }

    /**
     * Stage-4 survivor (~0.2% of positions entering the precode stage):
     * materialize the per-symbol lengths and hand stages 5-7 a real reader.
     * Out of line and cold so neither its stack traffic nor its size taxes
     * the rejection path.
     */
#if defined( __GNUC__ ) || defined( __clang__ )
    __attribute__(( noinline, cold ))
#endif
    [[nodiscard]] static bool
    testSurvivor( BufferView data, std::size_t position, std::uint64_t header,
                  unsigned precodeCount, unsigned hlit, unsigned hdist,
                  FilterStatistics& stats )
    {
        std::array<std::uint8_t, deflate::PRECODE_SYMBOLS> precodeLengths{};
        const auto firstBatch = std::min( precodeCount, FIRST_LENGTH_BATCH );
        auto fillBits = header >> HEADER_PREFIX_BITS;
        for ( unsigned i = 0; i < firstBatch; ++i ) {
            precodeLengths[deflate::PRECODE_ORDER[i]] =
                static_cast<std::uint8_t>( fillBits & 0b111U );
            fillBits >>= deflate::PRECODE_BITS;
        }
        auto tailLengthBits = loadBits(
            data.data(), data.size(), position + HEADER_PEEK_BITS,
            deflate::PRECODE_SYMBOLS * deflate::PRECODE_BITS
            - FIRST_LENGTH_BATCH * deflate::PRECODE_BITS );
        for ( unsigned i = FIRST_LENGTH_BATCH; i < precodeCount; ++i ) {
            precodeLengths[deflate::PRECODE_ORDER[i]] =
                static_cast<std::uint8_t>( tailLengthBits & 0b111U );
            tailLengthBits >>= deflate::PRECODE_BITS;
        }

        BitReader reader( data.data(), data.size() );
        reader.seek( position + HEADER_PREFIX_BITS
                     + precodeCount * deflate::PRECODE_BITS );
        return testEncodedData( reader, hlit, hdist, precodeLengths, stats );
    }

    /**
     * Stages 5-7, reached by ~0.2% of the positions that enter stage 4:
     * kept out of line (and out of the inliner's budget) so the hot packed
     * prefix + histogram path stays small enough to inline into the probe
     * loops — measurably decisive for the per-position cost.
     */
#if defined( __GNUC__ ) || defined( __clang__ )
    __attribute__(( noinline, cold ))
#endif
    [[nodiscard]] static bool
    testEncodedData( BitReader& reader,
                     unsigned hlit,
                     unsigned hdist,
                     const std::array<std::uint8_t, deflate::PRECODE_SYMBOLS>& precodeLengths,
                     FilterStatistics& stats )
    {
        /* Stage 5: decode the run-length-encoded code lengths. Only length
         * COUNTS are accumulated — no literal/distance table is ever built.
         * The precode is capped at 7-bit codes, so a cached 128-entry LUT
         * replaces the heap-allocating general HuffmanCoding; encoders reuse
         * length assignments across blocks, so most survivors hit a LUT that
         * an earlier position already built (PrecodeLutCache). */
        const auto& precode = PrecodeLutCache::get( precodeLengths );
        const std::size_t literalCount = 257 + hlit;
        const std::size_t totalLengths = literalCount + 1 + hdist;
        std::array<std::uint16_t, 16> literalCountPerLength{};
        std::array<std::uint16_t, 16> distanceCountPerLength{};
        std::size_t position = 0;
        std::uint8_t previousLength = 0;
        const auto record = [&] ( std::uint8_t length, std::size_t repeat ) {
            if ( length > 0 ) {
                /* Count into whichever side(s) of the literal/distance
                 * boundary the run covers. */
                while ( ( repeat > 0 ) && ( position < literalCount ) ) {
                    ++literalCountPerLength[length];
                    ++position;
                    --repeat;
                }
                distanceCountPerLength[length] =
                    static_cast<std::uint16_t>( distanceCountPerLength[length] + repeat );
                position += repeat;
            } else {
                position += repeat;
            }
        };
        while ( position < totalLengths ) {
            /* peek() zero-pads past the end, and a too-long code is caught by
             * the bitsLeft() comparison — same outcomes as HuffmanCoding's
             * decode() (EOF / invalid pattern / truncated code all reject). */
            const auto entry = precode.entry( reader.peek( PrecodeLut::MAX_PRECODE_LENGTH ) );
            if ( ( entry.length == 0 ) || ( entry.length > reader.bitsLeft() ) ) {
                ++stats.invalidPrecodeEncodedData;
                return false;
            }
            reader.skip( entry.length );
            const auto symbol = entry.symbol;
            if ( symbol <= 15 ) {
                record( static_cast<std::uint8_t>( symbol ), 1 );
                previousLength = static_cast<std::uint8_t>( symbol );
                continue;
            }
            std::size_t repeat = 0;
            std::uint8_t value = 0;
            if ( symbol == 16 ) {
                if ( ( position == 0 ) || ( reader.bitsLeft() < 2 ) ) {
                    ++stats.invalidPrecodeEncodedData;
                    return false;
                }
                repeat = 3 + reader.read( 2 );
                value = previousLength;
            } else if ( symbol == 17 ) {
                if ( reader.bitsLeft() < 3 ) {
                    ++stats.invalidPrecodeEncodedData;
                    return false;
                }
                repeat = 3 + reader.read( 3 );
                previousLength = 0;  /* a following symbol 16 repeats the zero */
            } else {
                if ( reader.bitsLeft() < 7 ) {
                    ++stats.invalidPrecodeEncodedData;
                    return false;
                }
                repeat = 11 + reader.read( 7 );
                previousLength = 0;
            }
            if ( position + repeat > totalLengths ) {
                ++stats.invalidPrecodeEncodedData;
                return false;
            }
            record( value, repeat );
        }

        /* Stage 6: distance code from counts (HDIST range folded in here,
         * matching the paper's cascade order). */
        if ( hdist > 29 ) {
            ++stats.invalidDistanceCode;
            return false;
        }
        if ( !checkCode( distanceCountPerLength, /* singleCodeMayBeIncomplete */ true,
                         stats.invalidDistanceCode, stats.nonOptimalDistanceCode ) ) {
            return false;
        }

        /* Stage 7: literal/length code from counts. */
        if ( !checkCode( literalCountPerLength, /* singleCodeMayBeIncomplete */ false,
                         stats.invalidLiteralCode, stats.nonOptimalLiteralCode ) ) {
            return false;
        }

        ++stats.validHeaders;
        return true;
    }

public:
    /**
     * First valid header in the bit range [@p fromBit, @p untilBit), or
     * NOT_FOUND. Word-parallel: one load yields the stage 1-3 verdicts
     * (BFINAL = 0, BTYPE = Dynamic, HLIT <= 29) of STRIDE_LANES consecutive
     * positions as one bitmask, and only its survivors (~12%) run
     * testCandidate — so the per-position branch chain on BFINAL and BTYPE
     * is gone. The statistics stay exactly those of a per-position
     * testCandidate loop over the scanned range: the mask-rejected lanes are
     * tallied by popcount, and on the stride that returns a hit only the
     * lanes before it. The range tail shorter than one stride runs the
     * per-position loop.
     */
    [[nodiscard]] std::size_t
    find( BufferView data, std::size_t fromBit, std::size_t untilBit = NOT_FOUND )
    {
        const auto sizeBits = data.size() * 8;
        if ( sizeBits < deflate::MIN_DYNAMIC_HEADER_BITS ) {
            return NOT_FOUND;
        }
        const auto end = std::min( untilBit, sizeBits - deflate::MIN_DYNAMIC_HEADER_BITS + 1 );
        auto offset = fromBit;
        for ( ; ( offset < end ) && ( end - offset >= STRIDE_LANES ); offset += STRIDE_LANES ) {
            const auto bits = loadBits( data.data(), data.size(), offset, HEADER_PEEK_BITS );
            const auto dynamicType = ~bits & ~( bits >> 1U ) & ( bits >> 2U );
            /* HLIT is bits 3-7; 30 and 31 are the only values with bits 4-7 all set. */
            const auto hlitTooLarge = ( bits >> 4U ) & ( bits >> 5U ) & ( bits >> 6U ) & ( bits >> 7U );
            for ( auto survivors = dynamicType & ~hlitTooLarge & STRIDE_MASK; survivors != 0;
                  survivors &= survivors - 1 ) {
                const auto lane = static_cast<unsigned>( __builtin_ctzll( survivors ) );
                if ( testCandidate( data, offset + lane, &m_statistics ) ) {
                    tallyMaskRejections( bits, dynamicType, hlitTooLarge,
                                         ( std::uint64_t( 1 ) << lane ) - 1U );
                    return offset + lane;
                }
            }
            tallyMaskRejections( bits, dynamicType, hlitTooLarge, STRIDE_MASK );
        }
        for ( ; offset < end; ++offset ) {
            if ( testCandidate( data, offset, &m_statistics ) ) {
                return offset;
            }
        }
        return NOT_FOUND;
    }

    [[nodiscard]] const FilterStatistics&
    statistics() const noexcept
    {
        return m_statistics;
    }

private:
    /**
     * Positions per find() stride. Lane i reads bits i..i+7 of one
     * HEADER_PEEK_BITS load; a multiple of 8 keeps the load's sub-byte shift
     * the same for every stride of a scan.
     */
    static constexpr unsigned STRIDE_LANES = 48;
    static constexpr std::uint64_t STRIDE_MASK = ( std::uint64_t( 1 ) << STRIDE_LANES ) - 1U;
    static_assert( STRIDE_LANES + 7 < HEADER_PEEK_BITS, "every lane must see its HLIT bits" );

    /** Stage 1-3 rejections of the mask-filtered @p lanes, as the
     * per-position cascade would have counted them. */
    void
    tallyMaskRejections( std::uint64_t bits, std::uint64_t dynamicType, std::uint64_t hlitTooLarge,
                         std::uint64_t lanes ) noexcept
    {
        const auto finalBlock = popcount( bits & lanes );
        const auto otherType = popcount( ~bits & ~dynamicType & lanes );
        const auto precodeSize = popcount( dynamicType & hlitTooLarge & lanes );
        m_statistics.positionsTested += finalBlock + otherType + precodeSize;
        m_statistics.invalidFinalBlock += finalBlock;
        m_statistics.invalidCompressionType += otherType;
        m_statistics.invalidPrecodeSize += precodeSize;
    }

    [[nodiscard]] static std::uint64_t
    popcount( std::uint64_t value ) noexcept
    {
        return static_cast<std::uint64_t>( __builtin_popcountll( value ) );
    }

    /**
     * Kraft-sum validity from per-length symbol counts: over-subscribed is
     * invalid, incomplete is "non-optimal" (rejected — real encoders emit
     * complete codes), except the legal single-symbol distance code.
     */
    [[nodiscard]] static bool
    checkCode( const std::array<std::uint16_t, 16>& countPerLength,
               bool singleCodeMayBeIncomplete,
               std::uint64_t& invalidCounter,
               std::uint64_t& nonOptimalCounter )
    {
        std::int32_t available = 1;
        unsigned maxLength = 0;
        std::size_t codeCount = 0;
        for ( unsigned length = 1; length <= 15; ++length ) {
            available <<= 1;
            available -= countPerLength[length];
            if ( available < 0 ) {
                ++invalidCounter;
                return false;
            }
            if ( countPerLength[length] > 0 ) {
                maxLength = length;
                codeCount += countPerLength[length];
            }
        }
        if ( codeCount == 0 ) {
            if ( singleCodeMayBeIncomplete ) {
                return true;  /* no distance code at all is legal */
            }
            ++nonOptimalCounter;  /* empty literal code can never be complete */
            return false;
        }
        const bool complete = ( available >> ( 15 - maxLength ) ) == 0;
        if ( !complete && !( singleCodeMayBeIncomplete && ( codeCount == 1 ) ) ) {
            ++nonOptimalCounter;
            return false;
        }
        return true;
    }

    FilterStatistics m_statistics;
};

}  // namespace rapidgzip::blockfinder
