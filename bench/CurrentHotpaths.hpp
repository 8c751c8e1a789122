#pragma once

/**
 * Measurement interface over the CURRENT hot paths — the mirror of
 * LegacyBaseline.hpp, in its own translation unit for the same reason (see
 * HotpathContracts.hpp). Keep this header free of hot-path includes.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/Util.hpp"

#include "HotpathContracts.hpp"

namespace currentbench {

/** Best-of-@p repeats bandwidth (bytes/s) of the amortized
 * ensureBits()/readUnsafe() loop at @p bits bits per read. */
[[nodiscard]] double
measureBitReaderBandwidth( rapidgzip::BufferView data, unsigned bits, std::size_t repeats );

/** One-shot current (fast-path) decode for the equivalence check. */
[[nodiscard]] rapidgzip::bench::DecodeResult
decodeOnce( rapidgzip::BufferView stream, std::size_t fromBit, bool windowKnown );

/** Best-of-@p repeats decode bandwidth (bytes/s) of the current decoder
 * with pooled buffers. Returns 0 if a run decodes differently than
 * @p expectBytes. */
[[nodiscard]] double
measureDecodeBandwidth( rapidgzip::BufferView stream, std::size_t fromBit, bool windowKnown,
                        std::size_t expectBytes, std::size_t repeats );

/** Run the packed cascade once over @p positions (equivalence). */
[[nodiscard]] rapidgzip::bench::FilterCounts
runFilter( rapidgzip::BufferView stream, const std::vector<std::size_t>& positions );

/** True iff the packed filter and the in-tree scalar variant agree on every
 * position (the scalar variant is the bit-exact port of the pre-PR stage
 * kept for the randomized equivalence tests). */
[[nodiscard]] bool
scalarMatchesPacked( rapidgzip::BufferView stream, const std::vector<std::size_t>& positions );

/** Best-of-@p repeats rejection rate (positions/s) of the packed cascade. */
[[nodiscard]] double
measureRejectionRate( rapidgzip::BufferView stream,
                      const std::vector<std::size_t>& positions, std::size_t repeats );

/** Positions passing the 8-bit prefix filters — the candidates that reach
 * the precode rejection stage. */
[[nodiscard]] std::vector<std::size_t>
collectPrecodeStagePositions( rapidgzip::BufferView stream );

/** Positions surviving stages 1-4 of the cascade — the candidates whose cost
 * is dominated by the stage-5 RLE parse this PR caches. */
[[nodiscard]] std::vector<std::size_t>
collectStage5Positions( rapidgzip::BufferView stream );

/** One-shot dispatched simd::replaceMarkers (equivalence check). @p window
 * must be a full 32 KiB last-window. */
[[nodiscard]] std::vector<std::uint8_t>
replaceMarkersOnce( const std::vector<std::uint16_t>& symbols,
                    const std::vector<std::uint8_t>& window );

/** Best-of-@p repeats bandwidth (output bytes/s) of the dispatched
 * simd::replaceMarkers at the active level. */
[[nodiscard]] double
measureReplaceMarkersBandwidth( const std::vector<std::uint16_t>& symbols,
                                const std::vector<std::uint8_t>& window,
                                std::size_t repeats );

/** One-shot dispatched simd::crc32 (equivalence check). */
[[nodiscard]] std::uint32_t
crc32Once( rapidgzip::BufferView data );

/** Best-of-@p repeats bandwidth (bytes/s) of the dispatched simd::crc32 at
 * the active level. */
[[nodiscard]] double
measureCrc32Bandwidth( rapidgzip::BufferView data, std::size_t repeats );

/** Best-of-@p repeats end-to-end bandwidth (bytes/s) of a fresh
 * ParallelGzipReader's decompressAll() over the gzip bytes in @p gz, 1 MiB
 * chunks; @p referenceSymbolLoop toggles the in-tree reference decode loop
 * (construction and buffers stay current). Returns 0 on a size mismatch. */
[[nodiscard]] double
measurePipelineBandwidth( const std::vector<std::uint8_t>& gz, std::size_t rawSize,
                          bool referenceSymbolLoop, std::size_t parallelism,
                          std::size_t repeats );

}  // namespace currentbench
