#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../io/FileReader.hpp"

namespace rapidgzip::formats {

/**
 * Compression formats the dispatch layer can probe and route. Detection is
 * by magic bytes only — cheap, no decoding — so a detected format is a
 * ROUTING decision, not a validity promise: the chosen backend still
 * verifies the stream (and rejects e.g. a gzip file whose first member is
 * fine but whose tail is garbage).
 */
enum class Format : std::uint8_t
{
    UNKNOWN = 0,
    GZIP = 1,   /**< RFC 1952, including BGZF and pigz output */
    ZSTD = 2,   /**< RFC 8878 frames, including the seekable format */
    LZ4 = 3,    /**< LZ4 frame format (magic 0x184D2204) */
    BZIP2 = 4,  /**< "BZh1".."BZh9" streams */
};

[[nodiscard]] inline const char*
toString( Format format ) noexcept
{
    switch ( format ) {
    case Format::UNKNOWN: return "unknown";
    case Format::GZIP:    return "gzip";
    case Format::ZSTD:    return "zstd";
    case Format::LZ4:     return "lz4";
    case Format::BZIP2:   return "bzip2";
    }
    return "unknown";
}

inline constexpr std::uint32_t ZSTD_FRAME_MAGIC = 0xFD2FB528U;
/** Skippable frames: 0x184D2A50 .. 0x184D2A5F (low nibble free). */
inline constexpr std::uint32_t ZSTD_SKIPPABLE_MAGIC_BASE = 0x184D2A50U;
inline constexpr std::uint32_t ZSTD_SKIPPABLE_MAGIC_MASK = 0xFFFFFFF0U;
inline constexpr std::uint32_t LZ4_FRAME_MAGIC = 0x184D2204U;

[[nodiscard]] inline std::uint32_t
readLE32( const std::uint8_t* bytes ) noexcept
{
    return static_cast<std::uint32_t>( bytes[0] )
           | ( static_cast<std::uint32_t>( bytes[1] ) << 8U )
           | ( static_cast<std::uint32_t>( bytes[2] ) << 16U )
           | ( static_cast<std::uint32_t>( bytes[3] ) << 24U );
}

/**
 * Probe @p header (the first bytes of a stream) for a known magic. Four
 * bytes decide every supported format; shorter inputs return UNKNOWN.
 * A zstd SKIPPABLE frame also routes to ZSTD: a seekable-format stream may
 * legally begin with one.
 */
[[nodiscard]] inline Format
detectFormat( BufferView header ) noexcept
{
    if ( header.size() >= 4 ) {
        const auto magic = readLE32( header.data() );
        if ( magic == ZSTD_FRAME_MAGIC ) {
            return Format::ZSTD;
        }
        if ( ( magic & ZSTD_SKIPPABLE_MAGIC_MASK ) == ZSTD_SKIPPABLE_MAGIC_BASE ) {
            return Format::ZSTD;
        }
        if ( magic == LZ4_FRAME_MAGIC ) {
            return Format::LZ4;
        }
        if ( ( header[0] == 'B' ) && ( header[1] == 'Z' ) && ( header[2] == 'h' )
             && ( header[3] >= '1' ) && ( header[3] <= '9' ) ) {
            return Format::BZIP2;
        }
    }
    if ( ( header.size() >= 2 ) && ( header[0] == 0x1FU ) && ( header[1] == 0x8BU ) ) {
        return Format::GZIP;
    }
    return Format::UNKNOWN;
}

/**
 * The one skippable-frame parser (zstd and lz4 share the 0x184D2A5x range):
 * when a skippable frame starts at @p offset of @p file, the offset one past
 * its payload, else std::nullopt. Throws RapidgzipError when the frame's
 * 8-byte header or its payload runs past the end of the file.
 */
[[nodiscard]] inline std::optional<std::size_t>
skippableFrameEnd( const FileReader& file, std::size_t offset )
{
    std::array<std::uint8_t, 8> header{};
    const auto got = file.pread( header.data(), header.size(), offset );
    if ( ( got < 4 )
         || ( ( readLE32( header.data() ) & ZSTD_SKIPPABLE_MAGIC_MASK ) != ZSTD_SKIPPABLE_MAGIC_BASE ) ) {
        return std::nullopt;
    }
    const auto end = offset + 8 + readLE32( header.data() + 4 );
    if ( ( got < header.size() ) || ( end > file.size() ) ) {
        throw RapidgzipError( "Truncated skippable frame at offset " + std::to_string( offset ) );
    }
    return end;
}

/**
 * File probing additionally resolves the skippable-magic ambiguity: the
 * 0x184D2A5x skippable-frame range is shared by the zstd AND lz4 frame
 * formats, so a file may legally open with skippable metadata ahead of
 * either. Walk past leading skippable frames (bounded, header arithmetic
 * only) and let the first DATA frame's magic decide; a file of nothing
 * but skippable frames routes to ZSTD, which handles that degenerate
 * layout.
 */
[[nodiscard]] inline Format
detectFormat( const FileReader& file )
{
    std::array<std::uint8_t, 8> header{};
    std::size_t offset = 0;
    /* Bounded: a hostile chain of empty skippable frames must not turn
     * detection into a file-length walk. */
    for ( int skipped = 0; skipped < 1000; ++skipped ) {
        const auto got = file.pread( header.data(), header.size(), offset );
        const auto format = detectFormat( { header.data(), got } );
        if ( format != Format::ZSTD ) {
            /* Nothing after the skippable prefix (or a truncated tail) can
             * only mean a zstd-family skippable stream. */
            return ( ( format == Format::UNKNOWN ) && ( skipped > 0 ) ) ? Format::ZSTD : format;
        }
        if ( got < 8 ) {
            return Format::ZSTD;
        }
        const auto magic = readLE32( header.data() );
        if ( ( magic & ZSTD_SKIPPABLE_MAGIC_MASK ) != ZSTD_SKIPPABLE_MAGIC_BASE ) {
            return format;  /* a real zstd data frame */
        }
        offset += 8 + readLE32( header.data() + 4 );
    }
    return Format::ZSTD;
}

}  // namespace rapidgzip::formats
