#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../simd/Crc32.hpp"

namespace rapidgzip {

inline constexpr int GZIP_WINDOW_BITS = 15 + 16;        /* zlib: 15-bit window, gzip wrapper */
inline constexpr int RAW_DEFLATE_WINDOW_BITS = -15;     /* zlib: raw Deflate, no wrapper */
inline constexpr int AUTO_FORMAT_WINDOW_BITS = 15 + 32; /* zlib: auto-detect zlib/gzip */

inline constexpr std::uint8_t GZIP_MAGIC_1 = 0x1FU;
inline constexpr std::uint8_t GZIP_MAGIC_2 = 0x8BU;
inline constexpr std::uint8_t GZIP_CM_DEFLATE = 8U;
inline constexpr std::size_t GZIP_FOOTER_SIZE = 8;

namespace gzipflag {
inline constexpr std::uint8_t FTEXT = 1U << 0U;
inline constexpr std::uint8_t FHCRC = 1U << 1U;
inline constexpr std::uint8_t FEXTRA = 1U << 2U;
inline constexpr std::uint8_t FNAME = 1U << 3U;
inline constexpr std::uint8_t FCOMMENT = 1U << 4U;
/** FLG bits 5-7, reserved: `gzip -d` and zlib reject a header that sets one. */
inline constexpr std::uint8_t RESERVED = 0xE0U;
}  // namespace gzipflag

/**
 * Parse a gzip member header starting at @p offset and return the byte
 * offset of the first Deflate bit. Throws InvalidGzipStreamError on
 * malformed input, as `gzip -d` and zlib reject it: a reserved FLG bit, and
 * an FHCRC field that is not the low 16 bits of the CRC32 of the header
 * bytes before it. Only the header is validated — the Deflate stream and
 * footer are the decoder's business.
 */
[[nodiscard]] inline std::size_t
parseGzipHeader( BufferView data, std::size_t offset = 0 )
{
    const auto require = [&] ( std::size_t needed ) {
        if ( ( offset > data.size() ) || ( data.size() - offset < needed ) ) {
            throw InvalidGzipStreamError( "Truncated gzip header" );
        }
    };

    require( 10 );
    if ( ( data[offset] != GZIP_MAGIC_1 ) || ( data[offset + 1] != GZIP_MAGIC_2 ) ) {
        throw InvalidGzipStreamError( "Missing gzip magic bytes" );
    }
    if ( data[offset + 2] != GZIP_CM_DEFLATE ) {
        throw InvalidGzipStreamError( "Unsupported gzip compression method" );
    }
    const auto flags = data[offset + 3];
    if ( ( flags & gzipflag::RESERVED ) != 0 ) {
        throw InvalidGzipStreamError( "Reserved gzip header flag bits are set" );
    }
    const auto headerBegin = offset;
    offset += 10;  /* magic(2) CM(1) FLG(1) MTIME(4) XFL(1) OS(1) */

    if ( ( flags & gzipflag::FEXTRA ) != 0 ) {
        require( 2 );
        const auto extraLength = static_cast<std::size_t>( data[offset] )
                                 | ( static_cast<std::size_t>( data[offset + 1] ) << 8U );
        offset += 2;
        require( extraLength );
        offset += extraLength;
    }
    for ( const auto flag : { gzipflag::FNAME, gzipflag::FCOMMENT } ) {
        if ( ( flags & flag ) == 0 ) {
            continue;
        }
        while ( true ) {
            require( 1 );
            if ( data[offset++] == 0 ) {
                break;
            }
        }
    }
    if ( ( flags & gzipflag::FHCRC ) != 0 ) {
        require( 2 );
        const auto stored = static_cast<std::uint32_t>( data[offset] )
                            | ( static_cast<std::uint32_t>( data[offset + 1] ) << 8U );
        const auto computed = simd::crc32( 0, data.data() + headerBegin, offset - headerBegin ) & 0xFFFFU;
        if ( stored != computed ) {
            throw InvalidGzipStreamError( "Gzip header CRC16 mismatch" );
        }
        offset += 2;
    }
    return offset;
}

/**
 * The trailing-bytes rule every chunked decode path shares: decide what
 * follows a gzip footer. @p data starts right after the footer. Two bytes of
 * gzip magic start another member, whose header must then be complete —
 * a cut header is a truncated stream and throws InvalidGzipStreamError, as
 * in GzipReader and `gzip -d`. Anything else, fewer than two bytes
 * included, is trailing padding that ends the stream. Returns the offset of
 * the next member's first Deflate byte within @p data, or std::nullopt for
 * padding.
 */
[[nodiscard]] inline std::optional<std::size_t>
nextGzipMember( BufferView data )
{
    if ( ( data.size() < 2 ) || ( data[0] != GZIP_MAGIC_1 ) || ( data[1] != GZIP_MAGIC_2 ) ) {
        return std::nullopt;
    }
    return parseGzipHeader( data );
}

struct GzipFooter
{
    std::uint32_t crc32{ 0 };
    std::uint32_t uncompressedSizeModulo32{ 0 };
};

/** Read the 8-byte footer (CRC32 + ISIZE) ending at @p endOffset. */
[[nodiscard]] inline GzipFooter
parseGzipFooter( BufferView data, std::size_t endOffset )
{
    if ( ( endOffset > data.size() ) || ( endOffset < GZIP_FOOTER_SIZE ) ) {
        throw InvalidGzipStreamError( "Truncated gzip footer" );
    }
    const auto* bytes = data.data() + endOffset - GZIP_FOOTER_SIZE;
    const auto readLE32 = [] ( const std::uint8_t* p ) {
        return static_cast<std::uint32_t>( p[0] )
               | ( static_cast<std::uint32_t>( p[1] ) << 8U )
               | ( static_cast<std::uint32_t>( p[2] ) << 16U )
               | ( static_cast<std::uint32_t>( p[3] ) << 24U );
    };
    return { readLE32( bytes ), readLE32( bytes + 4 ) };
}

}  // namespace rapidgzip
