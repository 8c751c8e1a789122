#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "HuffmanCodingBase.hpp"
#include "HuffmanCodingDoubleLUT.hpp"

namespace rapidgzip {

/**
 * Cached LUT for the Deflate distance alphabet — the distance-side
 * counterpart of HuffmanCodingMultiCached: one lookup indexed by
 * CACHE_BITS peeked bits resolves the common cases completely:
 *
 *  - a distance symbol INCLUDING its extra bits when code + extra fit into
 *    the window (payload is the final distance 1..32768 — no second read);
 *  - a distance symbol whose extra bits overflow the window (payload is the
 *    base distance; the entry carries the extra-bit count for one more
 *    read).
 *
 * Codes longer than CACHE_BITS, invalid patterns, and the invalid symbols
 * 30/31 fall back to the embedded two-level HuffmanCodingDoubleLUT, which
 * also serves the reference decode path via decode(). Matches dominate
 * decode time on compressible data (two thirds of silesia's output bytes
 * come from matches), so folding the extra-bits read into the same table
 * hit pays exactly like it does for lengths.
 *
 * Built by doubling (buildTableByDoubling) like HuffmanCodingMultiCached:
 * each entry is written once, at the level of the bits it consumes (code
 * length, or code length plus extra bits when they fold).
 */
class HuffmanCodingDistanceCached final
    : public HuffmanCodingBase<HuffmanCodingDistanceCached>
{
    friend class HuffmanCodingBase<HuffmanCodingDistanceCached>;

public:
    static constexpr unsigned CACHE_BITS = 11;

    enum Kind : std::uint8_t
    {
        FALLBACK = 0,       /**< long code, invalid pattern, or symbol > 29: use fallback() */
        DISTANCE = 1,       /**< payload = base distance; add extraBits() more stream bits
                             *   (0 = final distance, extra already folded in) */
    };

    /** Fields in PackedEntry's byte order. */
    struct Entry
    {
        std::uint8_t bitsConsumed{ 0 };   /**< stream bits this entry accounts for */
        std::uint8_t kindAndExtra{ 0 };   /**< kind in low nibble, extra-bit count in high */
        std::uint16_t payload{ 0 };

        constexpr Entry() noexcept = default;

        constexpr Entry( std::uint16_t payload_, std::uint8_t bitsConsumed_, std::uint8_t kindAndExtra_ ) noexcept :
            bitsConsumed( bitsConsumed_ ),
            kindAndExtra( kindAndExtra_ ),
            payload( payload_ )
        {}

        [[nodiscard]] Kind kind() const noexcept
        { return static_cast<Kind>( kindAndExtra & 0x0FU ); }

        [[nodiscard]] unsigned extraBits() const noexcept
        { return kindAndExtra >> 4U; }
    };

    /** One canonical code assignment serves the fallback and the cache;
     * @p buildCache false skips the cache build (see
     * HuffmanCodingMultiCached::initializeFromLengths). */
    [[nodiscard]] bool
    initializeFromLengths( VectorView<std::uint8_t> codeLengths, bool buildCache = true )
    {
        CanonicalCodes codes;
        if ( !codes.assign( codeLengths ) || !m_fallback.initializeFromCodes( codes ) ) {
            return false;
        }
        m_buildCache = buildCache;
        return initializeFromCodes( codes );
    }

    [[nodiscard]] const Entry*
    tableData() const noexcept
    {
        return m_table.data();
    }

    /** Reference single-symbol decode — identical semantics to the two-level
     * LUT (it IS the two-level LUT). */
    [[nodiscard]] int
    decode( BitReader& bitReader ) const
    {
        return m_fallback.decode( bitReader );
    }

    [[nodiscard]] const HuffmanCodingDoubleLUT&
    fallback() const noexcept
    {
        return m_fallback;
    }

private:
    /** Deflate distance tables, duplicated from deflate/definitions.hpp so
     * the huffman layer stays below the deflate layer; the Decoder's
     * fast-vs-reference equivalence tests pin the two copies together. */
    static constexpr std::uint16_t DISTANCE_BASES[30] = {
        1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
        257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577
    };
    static constexpr std::uint8_t DISTANCE_EXTRAS[30] = {
        0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
        7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13
    };

    [[nodiscard]] bool
    buildLookupTables( const CanonicalCodes& codes )
    {
        if ( !m_buildCache ) {
            return true;
        }
        auto* const table = m_table.data();
        buildTableByDoubling( table, CACHE_BITS, [&, table] ( unsigned level ) {
            /* Entries consuming exactly `level` bits: codes with their extra
             * bits folded (one entry per extra-bit pattern), or unfolded at
             * their own length. Symbols 30/31 stay FALLBACK entries and are
             * rejected downstream. */
            for ( const auto& code : codes.all() ) {
                if ( code.length > level ) {
                    break;  /* canonical order: nothing further is this short */
                }
                if ( code.symbol > 29 ) {
                    continue;
                }
                const auto extra = DISTANCE_EXTRAS[code.symbol];
                if ( code.length + extra <= CACHE_BITS ) {
                    if ( code.length + extra != level ) {
                        continue;
                    }
                    for ( std::size_t extraValue = 0; extraValue < ( std::size_t( 1 ) << extra );
                          ++extraValue ) {
                        table[code.reversedCode | ( extraValue << code.length )] = Entry{
                            static_cast<std::uint16_t>( DISTANCE_BASES[code.symbol] + extraValue ),
                            static_cast<std::uint8_t>( level ), DISTANCE };
                    }
                } else if ( code.length == level ) {
                    table[code.reversedCode] = Entry{
                        DISTANCE_BASES[code.symbol], code.length,
                        static_cast<std::uint8_t>( DISTANCE | ( extra << 4U ) ) };
                }
            }
        } );
        return true;
    }

    HuffmanCodingDoubleLUT m_fallback;
    std::array<Entry, std::size_t( 1 ) << CACHE_BITS> m_table;
    bool m_buildCache{ true };
};

}  // namespace rapidgzip
