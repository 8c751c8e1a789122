#pragma once

/**
 * Helpers shared by the gzip reader tests: answers that may be a throw,
 * zlib as the oracle for the restart-point probe — the probe used to be
 * a zlib raw inflate, and our Deflate decoder must keep its verdicts — and
 * a sync-flushed stream, whose restart points need the history before them.
 */

#include <zlib.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/Error.hpp"
#include "core/DeflateChunks.hpp"
#include "gzip/GzipHeader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

namespace rapidgzip::test {

/** @p decode's result, or std::nullopt when it threw RapidgzipError. */
template<typename Decode>
[[nodiscard]] auto
answerOf( const Decode& decode ) -> std::optional<decltype( decode() )>
{
    try {
        return decode();
    } catch ( const RapidgzipError& ) {
        return std::nullopt;
    }
}

/** The probe as zlib answers it: raw inflate of up to 16 KiB of @p file
 * from @p offset, with an empty window and 8 KiB of output room, finishes
 * the stream, fills the output or runs out of input, instead of rejecting
 * the data. */
[[nodiscard]] inline bool
zlibProbeAccepts( const std::vector<std::uint8_t>& file, std::size_t offset )
{
    constexpr std::size_t PROBE_INPUT = 16 * KiB;
    constexpr std::size_t PROBE_OUTPUT = 8 * KiB;
    if ( offset >= file.size() ) {
        return false;
    }
    std::vector<std::uint8_t> input( file.begin() + static_cast<std::ptrdiff_t>( offset ),
                                     file.begin() + static_cast<std::ptrdiff_t>(
                                         std::min( file.size(), offset + PROBE_INPUT ) ) );
    z_stream stream{};
    REQUIRE( inflateInit2( &stream, RAW_DEFLATE_WINDOW_BITS ) == Z_OK );
    stream.next_in = input.data();
    stream.avail_in = static_cast<uInt>( input.size() );
    std::uint8_t output[PROBE_OUTPUT];
    stream.next_out = output;
    stream.avail_out = sizeof( output );
    const auto code = inflate( &stream, Z_NO_FLUSH );
    inflateEnd( &stream );
    return ( code == Z_OK ) || ( code == Z_STREAM_END ) || ( code == Z_BUF_ERROR );
}

struct ProbeVerdicts
{
    std::size_t accepted{ 0 };
    std::size_t rejected{ 0 };
};

/** Every full-flush marker candidate in @p file: probeRawDeflatePoint()
 * accepts it exactly when zlib does. Returns zlib's verdict counts. */
inline ProbeVerdicts
requireProbeAgreesWithZlib( const std::vector<std::uint8_t>& file )
{
    const MemoryFileReader reader( file );
    ProbeVerdicts verdicts;
    for ( const auto candidate : findFullFlushMarkers( reader, 0, file.size() ) ) {
        const auto accepted = zlibProbeAccepts( file, candidate );
        REQUIRE( probeRawDeflatePoint( reader, candidate ) == accepted );
        ++( accepted ? verdicts.accepted : verdicts.rejected );
    }
    return verdicts;
}

/** A gzip file and the bytes it decodes to. */
struct GzipFile
{
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint8_t> decoded;
};

/**
 * @p segments segments of 64 KiB, compressed as one gzip member with a
 * Z_SYNC_FLUSH after each but the last: 16 KiB of fresh random bytes, then
 * 48 KiB that repeat the bytes 20 KiB back, so each segment after the first
 * starts its repeat inside the one before. A sync flush byte-aligns the
 * stream behind a sync marker, as a full flush does, but keeps the window:
 * the restart points after the first need the history before them.
 */
[[nodiscard]] inline GzipFile
syncFlushedStream( std::size_t segments, std::uint64_t seed )
{
    constexpr std::size_t SEGMENT = 64 * KiB;
    constexpr std::size_t FRESH = 16 * KiB;
    constexpr std::size_t DISTANCE = 20 * KiB;
    GzipFile result;
    result.decoded = workloads::randomData( segments * SEGMENT, seed );
    for ( std::size_t i = DISTANCE; i < result.decoded.size(); ++i ) {
        if ( i % SEGMENT >= FRESH ) {
            result.decoded[i] = result.decoded[i - DISTANCE];
        }
    }
    detail::ZlibDeflateStream stream( 6, GZIP_WINDOW_BITS );
    for ( std::size_t offset = 0; offset < result.decoded.size(); offset += SEGMENT ) {
        stream.compress( { result.decoded.data() + offset, SEGMENT },
                         offset + SEGMENT < result.decoded.size() ? Z_SYNC_FLUSH : Z_FINISH, result.bytes );
    }
    return result;
}

}  // namespace rapidgzip::test
