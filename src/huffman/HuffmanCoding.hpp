#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "HuffmanCodingBase.hpp"

namespace rapidgzip {

/**
 * Single-level full-length LUT decoder: one table with 2^maxCodeLength
 * entries, each holding (symbol, code length), indexed directly by the
 * peeked bits. Decoding is one load per symbol — the fastest possible — but
 * construction (by doubling) fills all 2^maxLength entries, which gets
 * expensive for 15-bit codes. The ablation benchmark quantifies exactly this
 * trade-off against the two-level layout.
 */
class HuffmanCoding final : public HuffmanCodingBase<HuffmanCoding>
{
    friend class HuffmanCodingBase<HuffmanCoding>;

public:
    [[nodiscard]] int
    decode( BitReader& bitReader ) const
    {
        if ( bitReader.eof() ) {
            return DECODE_EOF;
        }
        const auto bits = bitReader.peek( m_maxLength );
        const auto entry = m_lookupTable[bits];
        if ( entry.length == 0 ) {
            return DECODE_INVALID;
        }
        if ( entry.length > bitReader.bitsLeft() ) {
            return DECODE_EOF;  /* matched only thanks to EOF zero-padding */
        }
        bitReader.skip( entry.length );
        return entry.symbol;
    }

private:
    struct Entry
    {
        std::uint16_t symbol{ 0 };
        std::uint8_t length{ 0 };  /* 0 = invalid bit pattern */
    };

    [[nodiscard]] bool
    buildLookupTables( const CanonicalCodes& codes )
    {
        m_lookupTable.resize( std::size_t( 1 ) << m_maxLength );
        auto* const table = m_lookupTable.data();
        buildTableByDoubling( table, m_maxLength, [&, table] ( unsigned level ) {
            for ( const auto& code : codes.withLength( level ) ) {
                table[code.reversedCode] = Entry{ code.symbol, code.length };
            }
        } );
        return true;
    }

    std::vector<Entry> m_lookupTable;
};

}  // namespace rapidgzip
