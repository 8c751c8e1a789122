#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "HuffmanCodingBase.hpp"
#include "HuffmanCodingDoubleLUT.hpp"

namespace rapidgzip {

/**
 * Multi-symbol cached LUT for the Deflate literal/length alphabet — the
 * paper's "most decode time is symbol-by-symbol Huffman decoding" hot path
 * (Table 2) collapsed into one table hit per 1-2 output bytes. One lookup
 * indexed by cacheBits() peeked bits resolves the COMMON cases completely:
 *
 *  - two literal symbols whose codes both fit into the peeked window
 *    (payload packs both bytes; one lookup emits two output bytes);
 *  - one literal symbol;
 *  - a length symbol INCLUDING its extra bits when code + extra fit into
 *    the window (payload is the final match length 3..258 — no second read);
 *  - a length symbol whose extra bits overflow the window (payload is the
 *    base length; the entry carries the extra-bit count for one more read);
 *  - end-of-block.
 *
 * Codes longer than cacheBits() (rare by construction: canonical codings put
 * long codes on rare symbols) fall back to the embedded two-level
 * HuffmanCodingDoubleLUT, which also serves the reference decode path —
 * decode() delegates to it wholesale, so this class is a drop-in replacement
 * wherever the two-level coding was used, with lookup() as the additional
 * fast-path interface.
 *
 * Construction is by DOUBLING (buildTableByDoubling): at each level L the
 * entries that consume exactly L bits are written at their single index —
 * a code of that length (single literal, end-of-block, or a length whose
 * extra bits do not fit), a literal pair with len1 + len2 = L (overwriting
 * the replicas of its first literal exactly where the second code
 * follows), or a length code with its extra bits folded in
 * (len + extra = L, one entry per extra-bit pattern). Every entry is stored
 * once and ~16 KiB are copied. CACHE_BITS = 12 balances reach
 * (two 6-bit codes — base64's whole alphabet — and most length codes plus
 * their extra bits) against the 16 KiB footprint that must share L1 with
 * the distance table, the output stream, and the window.
 */
class HuffmanCodingMultiCached final : public HuffmanCodingBase<HuffmanCodingMultiCached>
{
    friend class HuffmanCodingBase<HuffmanCodingMultiCached>;

public:
    static constexpr unsigned CACHE_BITS = 12;

    /**
     * Entry kinds for lookup(). FALLBACK entries have bitsConsumed == 0, so
     * an unconditional consumeUnsafe( bitsConsumed ) before dispatch is
     * correct for every kind. Single and double literals share ONE kind —
     * the emit path always writes both payload bytes and advances the
     * cursor by count(), which keeps the hottest dispatch branch
     * (literal vs not) highly predictable instead of a 1-vs-2-symbol coin
     * flip. LENGTH entries with their extra bits folded in simply carry
     * extraBits() == 0, unifying them with the overflow case. Each kind but
     * FALLBACK is one bit, so that testing an entry for LITERALS tests one
     * bit.
     */
    enum Kind : std::uint8_t
    {
        FALLBACK = 0,      /**< long code, invalid pattern, or symbol > 285: use fallback() */
        LITERALS = 1,      /**< payload = byte0 | byte1 << 8; emit count() bytes */
        LENGTH = 2,        /**< payload = base length; add extraBits() more stream bits */
        END_OF_BLOCK = 4,  /**< symbol 256 */
    };

    /** Fields in PackedEntry's byte order. */
    struct Entry
    {
        std::uint8_t bitsConsumed{ 0 };   /**< stream bits this entry accounts for */
        std::uint8_t kindAndAux{ 0 };     /**< kind in low nibble, count/extra in high */
        std::uint16_t payload{ 0 };

        constexpr Entry() noexcept = default;

        constexpr Entry( std::uint16_t payload_, std::uint8_t bitsConsumed_, std::uint8_t kindAndAux_ ) noexcept :
            bitsConsumed( bitsConsumed_ ),
            kindAndAux( kindAndAux_ ),
            payload( payload_ )
        {}

        [[nodiscard]] Kind kind() const noexcept
        { return static_cast<Kind>( kindAndAux & 0x0FU ); }

        /** LITERALS: number of packed literal bytes (1 or 2). */
        [[nodiscard]] unsigned count() const noexcept
        { return kindAndAux >> 4U; }

        /** LENGTH: extra bits still to read (0 = folded into payload). */
        [[nodiscard]] unsigned extraBits() const noexcept
        { return kindAndAux >> 4U; }
    };

    /** Build both the fallback two-level tables and the multi-symbol cache
     * from one canonical code assignment. Accept/reject behavior is
     * identical to HuffmanCodingDoubleLUT. @p buildCache false skips the
     * cache build (lookup() is then unusable): the reference decode path
     * builds only the two-level tables it decodes with. */
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

    /** Fast-path lookup; @p bits must hold at least cacheBits() peeked bits
     * (extra high bits are ignored). */
    [[nodiscard]] const Entry&
    lookup( std::uint64_t bits ) const noexcept
    {
        return m_table[bits & ( ( std::uint64_t( 1 ) << CACHE_BITS ) - 1U )];
    }

    /** Raw table for hot loops that hoist the pointer into a local — going
     * through lookup() would recompute it from the coding object around
     * every output store (byte stores alias everything). Index with the low
     * CACHE_BITS peeked bits. */
    [[nodiscard]] const Entry*
    tableData() const noexcept
    {
        return m_table.data();
    }

    [[nodiscard]] static constexpr unsigned
    cacheBits() noexcept
    {
        return CACHE_BITS;
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
    /** Deflate length-symbol tables, duplicated from deflate/definitions.hpp
     * so the huffman layer stays below the deflate layer; the Decoder's
     * fast-vs-reference equivalence tests pin the two copies together. */
    static constexpr std::uint16_t LENGTH_BASES[29] = {
        3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
        35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258
    };
    static constexpr std::uint8_t LENGTH_EXTRAS[29] = {
        0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
        3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0
    };

    [[nodiscard]] bool
    buildLookupTables( const CanonicalCodes& codes )
    {
        if ( !m_buildCache ) {
            return true;
        }
        /* Length codes whose extra bits fold in below the cache width wait
         * here until the level of their combined length. */
        std::array<CanonicalCode, 29> folded{};
        std::size_t foldedCount = 0;

        /* Canonical order puts the literals of each length first. */
        std::array<std::size_t, CACHE_BITS + 1> literalCount{};
        for ( unsigned length = 1; length < CACHE_BITS; ++length ) {
            for ( const auto& code : codes.withLength( length ) ) {
                if ( code.symbol >= 256 ) {
                    break;
                }
                ++literalCount[length];
            }
        }

        auto* const table = m_table.data();
        buildTableByDoubling( table, CACHE_BITS, [&, table] ( unsigned level ) {
            /* Codes of exactly this length. */
            for ( const auto& code : codes.withLength( level ) ) {
                if ( code.symbol < 256 ) {
                    table[code.reversedCode] = Entry{
                        code.symbol, code.length,
                        static_cast<std::uint8_t>( LITERALS | ( 1U << 4U ) ) };
                } else if ( code.symbol == 256 ) {
                    table[code.reversedCode] = Entry{ 0, code.length, END_OF_BLOCK };
                } else if ( code.symbol <= 285 ) {
                    const auto lengthIndex = static_cast<std::size_t>( code.symbol - 257 );
                    const auto extra = LENGTH_EXTRAS[lengthIndex];
                    if ( level + extra > CACHE_BITS ) {
                        table[code.reversedCode] = Entry{
                            LENGTH_BASES[lengthIndex], code.length,
                            static_cast<std::uint8_t>( LENGTH | ( extra << 4U ) ) };
                    } else {
                        folded[foldedCount++] = code;
                    }
                }
                /* else: 286/287 — valid code, invalid Deflate symbol. Left as
                 * a FALLBACK entry: the two-level decode returns the raw
                 * symbol and the decoder rejects it exactly like the
                 * reference path. */
            }

            /* Lengths with their extra bits folded: one entry per pattern. */
            for ( std::size_t i = 0; i < foldedCount; ++i ) {
                const auto& code = folded[i];
                const auto lengthIndex = static_cast<std::size_t>( code.symbol - 257 );
                const auto extra = LENGTH_EXTRAS[lengthIndex];
                if ( code.length + extra != level ) {
                    continue;
                }
                for ( std::size_t extraValue = 0; extraValue < ( std::size_t( 1 ) << extra );
                      ++extraValue ) {
                    table[code.reversedCode | ( extraValue << code.length )] = Entry{
                        static_cast<std::uint16_t>( LENGTH_BASES[lengthIndex] + extraValue ),
                        static_cast<std::uint8_t>( level ), LENGTH };
                }
            }

            /* Literal pairs of this combined length. */
            for ( unsigned firstLength = 1; firstLength < level; ++firstLength ) {
                const auto* const firsts = codes.withLength( firstLength ).data();
                const auto* const seconds = codes.withLength( level - firstLength ).data();
                const auto secondCount = literalCount[level - firstLength];
                for ( std::size_t i = 0; i < literalCount[firstLength]; ++i ) {
                    /* Locals: the byte-sized table stores may alias the codes. */
                    const std::size_t firstCode = firsts[i].reversedCode;
                    const unsigned firstSymbol = firsts[i].symbol;
                    for ( std::size_t j = 0; j < secondCount; ++j ) {
                        const auto& second = seconds[j];
                        table[firstCode | ( std::size_t( second.reversedCode ) << firstLength )] =
                            Entry{ static_cast<std::uint16_t>( firstSymbol | ( second.symbol << 8U ) ),
                                   static_cast<std::uint8_t>( level ),
                                   static_cast<std::uint8_t>( LITERALS | ( 2U << 4U ) ) };
                    }
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
