#pragma once

/**
 * Helpers shared by the gzip reader tests: answers that may be a throw,
 * and zlib as the oracle for the restart-point probe — the probe used to be
 * a zlib raw inflate, and our Deflate decoder must keep its verdicts.
 */

#include <zlib.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/Error.hpp"
#include "core/DeflateChunks.hpp"
#include "gzip/GzipHeader.hpp"
#include "io/MemoryFileReader.hpp"

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

}  // namespace rapidgzip::test
