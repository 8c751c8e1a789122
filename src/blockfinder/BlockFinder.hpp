#pragma once

#include <cstddef>
#include <limits>

namespace rapidgzip::blockfinder {

/**
 * Common contract of all block finders (paper §3.2): `find(span, fromBit)`
 * returns the bit offset of the first candidate block at or after the BIT
 * offset `fromBit`, or NOT_FOUND. The two finders the chunk fetcher drives,
 * DynamicBlockFinderRapid and NonCompressedBlockFinder, also take an
 * exclusive bound, `find(span, fromBit, untilBit)`: they report only
 * candidates below `untilBit` and test no position at or past it, so a
 * bounded scan costs what its range costs. Dynamic-block finders (the four DBF variants)
 * report the offset of the BFINAL bit of a non-final Dynamic block header;
 * the NonCompressedBlockFinder reports the byte-aligned offset of a stored
 * block's LEN field (its 3 header bits lie unrecoverably in the padding
 * before it).
 *
 * All finders are probabilistic in the same direction: a reported offset is
 * only a *candidate* — validated downstream by actually decoding from it —
 * but a real block start at or after `fromBit` is never skipped (zero false
 * negatives), which is what makes decoding from guessed offsets sound.
 */
inline constexpr std::size_t NOT_FOUND = std::numeric_limits<std::size_t>::max();

}  // namespace rapidgzip::blockfinder
