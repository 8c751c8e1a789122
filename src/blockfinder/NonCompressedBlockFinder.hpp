#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "../common/Util.hpp"
#include "BlockFinder.hpp"

namespace rapidgzip::blockfinder {

/**
 * "NBF" in paper Table 2: finds non-compressed (stored) Deflate blocks by
 * scanning BYTE offsets for the LEN/NLEN complement pair that begins a
 * stored block's byte-aligned payload header. The 3 BFINAL/BTYPE bits sit at
 * an unknown sub-byte position in the padding before LEN, so the finder
 * reports the bit offset of LEN itself; the decoder enters via
 * setStartAtStoredData() and assumes BFINAL = 0 (a wrong assumption is
 * caught by the chunk fetcher's re-decode/verification layers).
 *
 * A false positive occurs once per 2^16 random byte positions — cheap to
 * validate downstream; a true stored block is never missed.
 */
class NonCompressedBlockFinder
{
public:
    /** First LEN offset in the bit range [@p fromBit, @p untilBit), or NOT_FOUND. */
    [[nodiscard]] std::size_t
    find( BufferView data, std::size_t fromBit, std::size_t untilBit = NOT_FOUND ) const
    {
        if ( data.size() < 4 ) {
            return NOT_FOUND;
        }
        const auto* const bytes = data.data();
        /* Byte offsets whose bit offset lies below untilBit (no overflow for NOT_FOUND). */
        const auto untilByte = untilBit / 8 + ( untilBit % 8 != 0 ? 1 : 0 );
        const auto end = std::min( data.size() - 4 + 1, untilByte );
        for ( auto offset = ceilDiv<std::size_t>( fromBit, 8 ); offset < end; ++offset ) {
            if ( ( ( bytes[offset] ^ bytes[offset + 2] ) == 0xFFU )
                 && ( ( bytes[offset + 1] ^ bytes[offset + 3] ) == 0xFFU ) ) {
                return offset * 8;
            }
        }
        return NOT_FOUND;
    }
};

}  // namespace rapidgzip::blockfinder
