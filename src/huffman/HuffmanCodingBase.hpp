#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "../bits/BitReader.hpp"
#include "../common/Util.hpp"

namespace rapidgzip {

/** One code of a canonical coding, stored bit-reversed (see HuffmanCodingBase). */
struct CanonicalCode
{
    std::uint16_t symbol;
    std::uint16_t reversedCode;
    std::uint8_t length;
};

/**
 * Canonical code assignment and Kraft validation, computed ONCE per
 * alphabet and shared by every table built from it: the cached Deflate
 * codings build their two-level fallback and their wide cache from the same
 * instance. Fixed capacity — a local on the caller's stack, no heap
 * allocation. Codes are kept in canonical order (by length, then symbol),
 * so withLength( L ) is one contiguous run and, within it, literal symbols
 * precede the length/end-of-block symbols.
 */
class CanonicalCodes
{
public:
    static constexpr unsigned MAX_CODE_LENGTH = 15;  /* Deflate limit */
    /** Deflate's largest alphabet: literal/length including the reserved 286/287. */
    static constexpr std::size_t MAX_SYMBOLS = 288;

    /**
     * Assign canonical codes to per-symbol code lengths (length 0 = symbol
     * unused). Returns false for more than MAX_SYMBOLS lengths, for lengths
     * above MAX_CODE_LENGTH, for no used symbol, and for over-subscribed
     * distributions; incomplete codes are accepted and reported by
     * kraftRemainder().
     */
    [[nodiscard]] bool
    assign( VectorView<std::uint8_t> codeLengths ) noexcept
    {
        if ( codeLengths.size() > MAX_SYMBOLS ) {
            return false;
        }
        std::array<std::uint16_t, MAX_CODE_LENGTH + 1> countPerLength{};
        for ( const auto length : codeLengths ) {
            if ( length > MAX_CODE_LENGTH ) {
                return false;
            }
            ++countPerLength[length];
        }
        countPerLength[0] = 0;
        m_maxLength = 0;
        for ( unsigned length = 1; length <= MAX_CODE_LENGTH; ++length ) {
            if ( countPerLength[length] > 0 ) {
                m_maxLength = length;
            }
        }
        if ( m_maxLength == 0 ) {
            return false;
        }

        /* Kraft inequality: reject over-subscribed codes. The remainder at
         * the maximum length is kept so callers can distinguish complete
         * codes (remainder 0) from incomplete ones — Deflate encoders only
         * emit complete codes (except the single-distance-code case), so the
         * block finders reject incomplete codes as "non-optimal". */
        std::int64_t available = 1;
        for ( unsigned length = 1; length <= m_maxLength; ++length ) {
            available <<= 1U;
            available -= countPerLength[length];
            if ( available < 0 ) {
                return false;
            }
        }
        m_kraftRemainder = available;

        /* Canonical first code per length; a counting sort by length places
         * each code at its canonical rank while assigning in symbol order. */
        std::array<std::uint16_t, MAX_CODE_LENGTH + 1> nextCode{};
        std::array<std::uint16_t, MAX_CODE_LENGTH + 1> nextIndex{};
        std::uint16_t code = 0;
        m_begin[0] = 0;
        m_begin[1] = 0;
        for ( unsigned length = 1; length <= MAX_CODE_LENGTH; ++length ) {
            code = static_cast<std::uint16_t>( ( code + countPerLength[length - 1] ) << 1U );
            nextCode[length] = code;
            nextIndex[length] = m_begin[length];
            m_begin[length + 1] =
                static_cast<std::uint16_t>( m_begin[length] + countPerLength[length] );
        }
        for ( std::size_t symbol = 0; symbol < codeLengths.size(); ++symbol ) {
            const auto length = codeLengths[symbol];
            if ( length == 0 ) {
                continue;
            }
            m_codes[nextIndex[length]++] = { static_cast<std::uint16_t>( symbol ),
                                             reverseBits( nextCode[length]++, length ),
                                             length };
        }
        return true;
    }

    [[nodiscard]] std::size_t
    size() const noexcept
    {
        return m_begin[MAX_CODE_LENGTH + 1];
    }

    [[nodiscard]] unsigned
    maxLength() const noexcept
    {
        return m_maxLength;
    }

    [[nodiscard]] std::int64_t
    kraftRemainder() const noexcept
    {
        return m_kraftRemainder;
    }

    /** Every code, in canonical order. */
    [[nodiscard]] VectorView<CanonicalCode>
    all() const noexcept
    {
        return { m_codes.data(), size() };
    }

    /** The codes of exactly @p length bits (1..MAX_CODE_LENGTH), in symbol order. */
    [[nodiscard]] VectorView<CanonicalCode>
    withLength( unsigned length ) const noexcept
    {
        return { m_codes.data() + m_begin[length],
                 static_cast<std::size_t>( m_begin[length + 1] - m_begin[length] ) };
    }

    /** The codes longer than @p length bits, in canonical order. */
    [[nodiscard]] VectorView<CanonicalCode>
    longerThan( unsigned length ) const noexcept
    {
        const auto first = m_begin[std::min( length, MAX_CODE_LENGTH ) + 1];
        return { m_codes.data() + first, size() - first };
    }

private:
    [[nodiscard]] static std::uint16_t
    reverseBits( std::uint16_t value, unsigned bitCount ) noexcept
    {
        const auto reversed16 = static_cast<unsigned>( REVERSED_BYTES[value & 0xFFU] << 8U )
                                | REVERSED_BYTES[value >> 8U];
        return static_cast<std::uint16_t>( reversed16 >> ( 16U - bitCount ) );
    }

    static constexpr std::array<std::uint8_t, 256> REVERSED_BYTES = [] () {
        std::array<std::uint8_t, 256> table{};
        for ( unsigned value = 0; value < 256; ++value ) {
            unsigned reversed = 0;
            for ( unsigned bit = 0; bit < 8; ++bit ) {
                reversed |= ( ( value >> bit ) & 1U ) << ( 7U - bit );
            }
            table[value] = static_cast<std::uint8_t>( reversed );
        }
        return table;
    }();

    std::array<CanonicalCode, MAX_SYMBOLS> m_codes{};
    /** m_begin[L]: canonical rank of the first code of length L. */
    std::array<std::uint16_t, MAX_CODE_LENGTH + 2> m_begin{};
    unsigned m_maxLength{ 0 };
    std::int64_t m_kraftRemainder{ 0 };
};

/**
 * Fill a lookup table of 2^@p bits entries, indexed by peeked LSB-first
 * bits, by doubling: at level L the table holds 2^L entries, one memcpy
 * doubles it to level L+1, and @p writeLevel( L+1 ) then stores every entry
 * that consumes exactly L+1 bits at its single index below 2^(L+1). The
 * doubling replicates each entry into every slot whose low bits it matches,
 * so each entry is written once, no loop has a data-dependent stride, and
 * a longer entry written later overwrites the replicas of a shorter one
 * exactly where it applies. Slots no entry claims keep Entry{}.
 */
template<typename Entry, typename WriteLevel>
void
buildTableByDoubling( Entry* table, unsigned bits, WriteLevel&& writeLevel )
{
    table[0] = Entry{};
    for ( unsigned level = 1; level <= bits; ++level ) {
        const auto half = std::size_t( 1 ) << ( level - 1U );
        std::memcpy( table + half, table, half * sizeof( Entry ) );
        writeLevel( level );
    }
}

/**
 * A cached-table entry (HuffmanCodingMultiCached::Entry,
 * HuffmanCodingDistanceCached::Entry: bitsConsumed, a kind nibble, an aux
 * nibble and a 16-bit payload) as one 32-bit value: bitsConsumed in bits
 * 0–7, kind in 8–11, aux in 12–15, payload in 16–31. A hot loop keeps an
 * entry in one register this way, and consumes it with one shift by its low
 * byte.
 */
class PackedEntry
{
public:
    template<typename Entry>
    [[nodiscard]] static PackedEntry
    load( const Entry& entry ) noexcept
    {
        static_assert( sizeof( Entry ) == sizeof( std::uint32_t ) );
    #if defined( __BYTE_ORDER__ ) && ( __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__ )
        /* The field order of Entry is the value's byte order. */
        std::uint32_t value;
        std::memcpy( &value, &entry, sizeof( value ) );
        return PackedEntry( value );
    #else
        const auto* const bytes = reinterpret_cast<const std::uint8_t*>( &entry );
        std::uint16_t payload;
        std::memcpy( &payload, bytes + 2, sizeof( payload ) );
        return PackedEntry( bytes[0] | ( std::uint32_t( bytes[1] ) << 8U ) | ( std::uint32_t( payload ) << 16U ) );
    #endif
    }

    [[nodiscard]] unsigned
    bitsConsumed() const noexcept
    {
        return m_value & 0xFFU;
    }

    [[nodiscard]] unsigned
    kind() const noexcept
    {
        return ( m_value >> 8U ) & 0x0FU;
    }

    /** A literal count or an extra-bit count. */
    [[nodiscard]] unsigned
    aux() const noexcept
    {
        return ( m_value >> 12U ) & 0x0FU;
    }

    [[nodiscard]] std::uint16_t
    payload() const noexcept
    {
        return static_cast<std::uint16_t>( m_value >> 16U );
    }

private:
    explicit constexpr PackedEntry( std::uint32_t value ) noexcept :
        m_value( value )
    {}

    std::uint32_t m_value;
};

/**
 * Shared canonical-Huffman machinery (CRTP). Derived classes only decide the
 * lookup-table layout, built by buildLookupTables( const CanonicalCodes& );
 * code assignment, Kraft validation, and the decode() result conventions
 * live here so every decoder variant is interchangeable in the benchmarks
 * and in the Deflate decoder:
 *
 *   decode() >= 0 : decoded symbol
 *   DECODE_EOF    : the BitReader ran out of input before this symbol
 *   DECODE_INVALID: the peeked bits do not start a valid code
 *
 * Codes are stored bit-reversed because Deflate writes Huffman codes
 * MSB-first into an LSB-first bit stream, so an LSB-first reader sees the
 * reversed code — exactly the form a LUT indexed by peeked bits needs.
 */
template<typename Derived>
class HuffmanCodingBase
{
public:
    static constexpr int DECODE_EOF = -1;
    static constexpr int DECODE_INVALID = -2;

    static constexpr unsigned MAX_CODE_LENGTH = CanonicalCodes::MAX_CODE_LENGTH;

    /**
     * Build decoding tables from per-symbol code lengths (length 0 = symbol
     * unused). Returns false and leaves the coding unusable for
     * over-subscribed length distributions; incomplete codes are accepted
     * (unmapped bit patterns decode to DECODE_INVALID), matching Deflate's
     * rules for distance codes.
     */
    [[nodiscard]] bool
    initializeFromLengths( VectorView<std::uint8_t> codeLengths )
    {
        CanonicalCodes codes;
        return codes.assign( codeLengths ) && initializeFromCodes( codes );
    }

    /** Build decoding tables from codes another coding already assigned. */
    [[nodiscard]] bool
    initializeFromCodes( const CanonicalCodes& codes )
    {
        m_maxLength = codes.maxLength();
        m_codeCount = codes.size();
        m_kraftRemainder = codes.kraftRemainder();
        return static_cast<Derived*>( this )->buildLookupTables( codes );
    }

    [[nodiscard]] unsigned
    maxCodeLength() const noexcept
    {
        return m_maxLength;
    }

    /** Number of symbols with a non-zero code length. */
    [[nodiscard]] std::size_t
    codeCount() const noexcept
    {
        return m_codeCount;
    }

    /**
     * True when the code saturates the Kraft inequality — every bit pattern
     * decodes to a symbol. Only meaningful after initializeFromLengths()
     * returned true.
     */
    [[nodiscard]] bool
    isCompleteCode() const noexcept
    {
        return m_kraftRemainder == 0;
    }

protected:
    unsigned m_maxLength{ 0 };
    std::size_t m_codeCount{ 0 };
    std::int64_t m_kraftRemainder{ 0 };
};

}  // namespace rapidgzip
