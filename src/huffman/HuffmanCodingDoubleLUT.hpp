#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "HuffmanCodingBase.hpp"

namespace rapidgzip {

/**
 * Two-level zlib-style LUT decoder: a root table indexed by the first
 * ROOT_BITS peeked bits resolves short codes directly; longer codes chain
 * into per-prefix subtables sized for the longest code sharing that prefix.
 * Construction touches only 2^ROOT_BITS + small subtables instead of
 * 2^maxCodeLength entries, so rebuilding the tables every Dynamic Deflate
 * block (~every 50-100 KiB of output) stays cheap even for pathological
 * 15-bit codes — at the price of one extra dependent load when decoding a
 * long code.
 */
class HuffmanCodingDoubleLUT final : public HuffmanCodingBase<HuffmanCodingDoubleLUT>
{
    friend class HuffmanCodingBase<HuffmanCodingDoubleLUT>;

public:
    static constexpr unsigned ROOT_BITS = 9;

    [[nodiscard]] int
    decode( BitReader& bitReader ) const
    {
        if ( bitReader.eof() ) {
            return DECODE_EOF;
        }
        const auto bits = bitReader.peek( m_maxLength );
        const auto& root = m_rootTable[bits & m_rootMask];
        if ( !root.isSubtable ) {
            if ( root.length == 0 ) {
                return DECODE_INVALID;
            }
            if ( root.length > bitReader.bitsLeft() ) {
                return DECODE_EOF;  /* matched only thanks to EOF zero-padding */
            }
            bitReader.skip( root.length );
            return static_cast<int>( root.value );
        }
        const auto subIndex = ( bits >> m_rootBits ) & ( ( std::uint64_t( 1 ) << root.length ) - 1U );
        const auto& sub = m_subTable[root.value + subIndex];
        if ( sub.length == 0 ) {
            return DECODE_INVALID;
        }
        if ( sub.length > bitReader.bitsLeft() ) {
            return DECODE_EOF;
        }
        bitReader.skip( sub.length );
        return sub.symbol;
    }

    /**
     * decode() under the BitReader guaranteed-bits contract: the caller has
     * ensureBits()-guaranteed at least maxCodeLength() buffered bits, so the
     * EOF checks and refills are skipped entirely. Never returns DECODE_EOF.
     * Templated so it works on BitReader and BitReader::RegisterCursor alike.
     */
    template<typename Reader>
    [[nodiscard]] int
    decodeUnsafe( Reader& bitReader ) const noexcept
    {
        const auto bits = bitReader.peekUnsafe( m_maxLength );
        const auto& root = m_rootTable[bits & m_rootMask];
        if ( !root.isSubtable ) {
            if ( root.length == 0 ) {
                return DECODE_INVALID;
            }
            bitReader.consumeUnsafe( root.length );
            return static_cast<int>( root.value );
        }
        const auto subIndex = ( bits >> m_rootBits ) & ( ( std::uint64_t( 1 ) << root.length ) - 1U );
        const auto& sub = m_subTable[root.value + subIndex];
        if ( sub.length == 0 ) {
            return DECODE_INVALID;
        }
        bitReader.consumeUnsafe( sub.length );
        return sub.symbol;
    }

private:
    struct RootEntry
    {
        std::uint16_t value{ 0 };   /* symbol, or subtable offset when isSubtable */
        std::uint8_t length{ 0 };   /* code length, or subtable index bit count */
        std::uint8_t isSubtable{ 0 };
    };

    struct SubEntry
    {
        std::uint16_t symbol{ 0 };
        std::uint8_t length{ 0 };  /* FULL code length (root + sub bits consumed) */
    };

    [[nodiscard]] bool
    buildLookupTables( const CanonicalCodes& codes )
    {
        m_rootBits = std::min( ROOT_BITS, m_maxLength );
        m_rootMask = ( std::uint64_t( 1 ) << m_rootBits ) - 1U;

        /* Short codes resolve in the root table alone. */
        auto* const root = m_rootTable.data();
        buildTableByDoubling( root, m_rootBits, [&, root] ( unsigned level ) {
            for ( const auto& code : codes.withLength( level ) ) {
                root[code.reversedCode] = RootEntry{ code.symbol, code.length, 0 };
            }
        } );

        /* Long codes: size each prefix's subtable by its longest member.
         * Codes come in canonical order, so the last code per prefix is the
         * longest; the root entries double as the scratch for that size.
         * Prefix-freeness guarantees no short code owns these root slots. */
        m_subTable.clear();
        const auto longCodes = codes.longerThan( m_rootBits );
        for ( const auto& code : longCodes ) {
            root[code.reversedCode & m_rootMask] =
                RootEntry{ 0, static_cast<std::uint8_t>( code.length - m_rootBits ), 0 };
        }
        std::size_t subTableSize = 0;
        for ( const auto& code : longCodes ) {
            auto& entry = root[code.reversedCode & m_rootMask];
            if ( entry.isSubtable != 0 ) {
                continue;
            }
            const auto size = std::size_t( 1 ) << entry.length;
            if ( subTableSize + size > UINT16_MAX + std::size_t( 1 ) ) {
                return false;  /* cannot address the subtable from a uint16_t */
            }
            entry = RootEntry{ static_cast<std::uint16_t>( subTableSize ), entry.length, 1 };
            subTableSize += size;
        }
        m_subTable.resize( subTableSize );
        for ( const auto& code : longCodes ) {
            const auto& entry = root[code.reversedCode & m_rootMask];
            const auto subCode = code.reversedCode >> m_rootBits;
            const auto stride = std::size_t( 1 ) << ( code.length - m_rootBits );
            const auto subSize = std::size_t( 1 ) << entry.length;
            for ( std::size_t index = subCode; index < subSize; index += stride ) {
                m_subTable[entry.value + index] = SubEntry{ code.symbol, code.length };
            }
        }
        return true;
    }

    /* Fixed size: rebuilding per Dynamic block allocates nothing; only the
     * subtables of long codes live on the heap, reusing their capacity. */
    std::array<RootEntry, std::size_t( 1 ) << ROOT_BITS> m_rootTable;
    std::vector<SubEntry> m_subTable;
    unsigned m_rootBits{ ROOT_BITS };
    std::uint64_t m_rootMask{ 0 };
};

}  // namespace rapidgzip
