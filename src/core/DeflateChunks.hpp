#pragma once

#include <zlib.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../gzip/GzipHeader.hpp"
#include "../gzip/ZlibHelpers.hpp"
#include "../io/FileReader.hpp"
#include "../simd/Crc32.hpp"
#include "../telemetry/Trace.hpp"

namespace rapidgzip {

/**
 * Shared machinery for chunked parallel gzip decompression: locating
 * full-flush restart points (the pigz/Z_FULL_FLUSH `00 00 FF FF` sync
 * marker) and raw-Deflate-decoding a chunk that starts at one. The restart
 * points seed ParallelGzipReader's marker-derived index checkpoints and the
 * pugz-like baseline's chunks.
 *
 * A full flush both byte-aligns the stream (empty stored block) and resets
 * the LZ77 window, so a chunk starting right after the marker decodes
 * standalone with an empty window. Chunks that start anywhere else need the
 * propagated window of GzipChunkFetcher.
 */

inline constexpr std::size_t FULL_FLUSH_MARKER_SIZE = 4;

/**
 * Marker *end* offsets (chunk start candidates) of every marker lying wholly
 * in [searchBegin, searchEnd), in ascending order. The scan runs before any
 * chunk is dispatched, so it jumps between zero bytes with memchr (rare in
 * compressed data) and confirms each with one 4-byte compare.
 */
[[nodiscard]] inline std::vector<std::size_t>
findFullFlushMarkers( const FileReader& file, std::size_t searchBegin, std::size_t searchEnd )
{
    static constexpr std::uint8_t MARKER[FULL_FLUSH_MARKER_SIZE] = { 0x00, 0x00, 0xFF, 0xFF };
    constexpr std::size_t BLOCK = 4 * MiB;

    telemetry::Span findSpan{ "pipeline", "chunk.find" };

    std::vector<std::size_t> result;
    searchEnd = std::min( searchEnd, file.size() );
    if ( searchBegin >= searchEnd ) {
        return result;
    }
    std::vector<std::uint8_t> buffer( std::min( BLOCK + FULL_FLUSH_MARKER_SIZE - 1,
                                                searchEnd - searchBegin ) );
    for ( std::size_t offset = searchBegin; offset < searchEnd; offset += BLOCK ) {
        /* Each block reads marker-size - 1 bytes past its end so that exactly
         * the markers STARTING in [offset, offset + BLOCK) are found here:
         * none is missed at a block boundary and none is reported twice. */
        const auto toRead = std::min( buffer.size(), searchEnd - offset );
        if ( toRead < FULL_FLUSH_MARKER_SIZE ) {
            break;
        }
        preadExactly( file, buffer.data(), toRead, offset );
        const auto* const begin = buffer.data();
        const auto* const startsEnd = begin + toRead - ( FULL_FLUSH_MARKER_SIZE - 1 );
        for ( const auto* p = begin; p < startsEnd; ++p ) {
            p = static_cast<const std::uint8_t*>(
                std::memchr( p, 0, static_cast<std::size_t>( startsEnd - p ) ) );
            if ( p == nullptr ) {
                break;
            }
            if ( std::memcmp( p, MARKER, FULL_FLUSH_MARKER_SIZE ) == 0 ) {
                result.push_back( offset + static_cast<std::size_t>( p - begin ) + FULL_FLUSH_MARKER_SIZE );
            }
        }
    }
    return result;
}

/**
 * Cheap validation that @p offset really is a Deflate restart point: raw
 * inflate a small probe window and check zlib does not reject it. False
 * sync-marker matches inside compressed data (probability ~2^-32 per byte)
 * virtually never survive this; the ones that would are caught later by the
 * checksum verification and its serial fallback.
 */
[[nodiscard]] inline bool
probeRawDeflatePoint( const FileReader& file, std::size_t offset )
{
    constexpr std::size_t PROBE_INPUT = 16 * KiB;
    constexpr std::size_t PROBE_OUTPUT = 8 * KiB;

    std::vector<std::uint8_t> input( std::min( PROBE_INPUT, file.size() - std::min( offset, file.size() ) ) );
    const auto got = file.pread( input.data(), input.size(), offset );
    if ( got == 0 ) {
        return false;
    }

    z_stream stream{};
    if ( inflateInit2( &stream, RAW_DEFLATE_WINDOW_BITS ) != Z_OK ) {
        throw RapidgzipError( "inflateInit2 failed" );
    }
    stream.next_in = input.data();
    stream.avail_in = static_cast<uInt>( got );
    std::uint8_t output[PROBE_OUTPUT];
    stream.next_out = output;
    stream.avail_out = sizeof( output );
    const auto code = inflate( &stream, Z_NO_FLUSH );
    inflateEnd( &stream );
    return ( code == Z_OK ) || ( code == Z_STREAM_END ) || ( code == Z_BUF_ERROR );
}

/** Room for any gzip header the readers accept. */
inline constexpr std::size_t MAX_GZIP_HEADER_READ = 64 * KiB;

/** Up to MAX_GZIP_HEADER_READ bytes of @p file from @p offset. */
[[nodiscard]] inline std::vector<std::uint8_t>
readHeaderBytes( const FileReader& file, std::size_t offset )
{
    std::vector<std::uint8_t> bytes(
        offset < file.size() ? std::min( file.size() - offset, MAX_GZIP_HEADER_READ ) : 0 );
    preadExactly( file, bytes.data(), bytes.size(), offset );
    return bytes;
}

/** The trailing-bytes rule (nextGzipMember) applied to @p file right after
 * the footer that ends at @p offset: the absolute offset of the next
 * member's first Deflate byte, or std::nullopt when the rest is padding.
 * @p known, the file's bytes from @p offset on as far as the caller holds
 * them, spares the read when it is MAX_GZIP_HEADER_READ bytes or longer. */
[[nodiscard]] inline std::optional<std::size_t>
nextGzipMember( const FileReader& file, std::size_t offset, BufferView known = {} )
{
    std::vector<std::uint8_t> bytes;
    if ( known.size() < MAX_GZIP_HEADER_READ ) {
        bytes = readHeaderBytes( file, offset );
        known = bytes;
    }
    const auto deflateStart = nextGzipMember(
        BufferView( known.data(), std::min( known.size(), MAX_GZIP_HEADER_READ ) ) );
    return deflateStart ? std::optional<std::size_t>( offset + *deflateStart ) : std::nullopt;
}

/**
 * Chunk starts of a gzip stream cut at full-flush restart points: the first
 * member's first Deflate byte, then every marker end at least
 * @p chunkSizeBytes past the previous start that passes
 * probeRawDeflatePoint(). ParallelGzipReader turns them into marker-derived
 * index checkpoints; the pugz-like baseline decodes between them, so the
 * measured implementation and its baseline never diverge on chunking.
 */
[[nodiscard]] inline std::vector<std::size_t>
discoverRestartPoints( const FileReader& file, std::size_t chunkSizeBytes )
{
    const auto header = readHeaderBytes( file, 0 );
    std::vector<std::size_t> starts{ parseGzipHeader( { header.data(), header.size() } ) };
    for ( const auto candidate : findFullFlushMarkers( file, starts.front(), file.size() ) ) {
        /* Merge flush intervals until the chunk is big enough; a candidate the
         * probe rejects is a false marker match and stays inside its chunk. */
        if ( ( candidate < file.size() )
             && ( candidate - starts.back() >= std::max<std::size_t>( chunkSizeBytes, 1 ) )
             && probeRawDeflatePoint( file, candidate ) ) {
            starts.push_back( candidate );
        }
    }
    return starts;
}

struct DecodedChunk
{
    /**
     * A gzip member that ENDS inside this chunk, with everything a
     * sequential consumer needs to verify it against its footer: the CRC32
     * of the member's bytes WITHIN this chunk (the member may have started
     * in an earlier chunk; the consumer crc32_combine()s across chunks),
     * where those bytes end in `data`, and where the footer sits in the
     * file. This is what makes per-member footer verification possible for
     * concatenated members on every chunked path.
     */
    struct MemberEnd
    {
        std::size_t dataEndOffset{ 0 };    /**< end of the member's bytes in `data` */
        std::uint32_t segmentCrc32{ 0 };   /**< CRC32 of data[previous end .. dataEndOffset) */
        std::size_t footerStartByte{ 0 };  /**< absolute file offset of the member's footer */
    };

    std::vector<std::uint8_t> data;
    std::uint32_t crc32{ 0 };          /**< CRC32 of data (zlib polynomial) */
    std::size_t memberRestarts{ 0 };   /**< gzip member transitions crossed inside the chunk */
    bool reachedStreamEnd{ false };
    /** Absolute file offset just past the final Deflate byte when
     * reachedStreamEnd — where the gzip footer begins. Trailing bytes
     * beyond footer + padding are ignored, mirroring `gzip -d`. */
    std::size_t deflateEndOffset{ 0 };

    /** Members ending inside this chunk, in stream order. */
    std::vector<MemberEnd> memberEnds;
    /** CRC32 of the bytes after the last member end (the whole chunk when
     * no member ends inside it) — the carry into the next chunk. */
    std::uint32_t trailingCrc32{ 0 };
};

/** Thrown by a chunk decode whose end boundary lies inside a gzip footer or
 * member header: the next chunk's start is no Deflate restart point. */
class FalseChunkEndError : public InvalidGzipStreamError
{
public:
    using InvalidGzipStreamError::InvalidGzipStreamError;
};

namespace detail {

/** Owns a raw-inflate z_stream; inflateEnd runs on every exit path. */
class RawInflateStream
{
public:
    RawInflateStream()
    {
        if ( inflateInit2( &m_stream, RAW_DEFLATE_WINDOW_BITS ) != Z_OK ) {
            throw RapidgzipError( "inflateInit2 failed" );
        }
    }

    ~RawInflateStream()
    {
        inflateEnd( &m_stream );
    }

    RawInflateStream( const RawInflateStream& ) = delete;
    RawInflateStream& operator=( const RawInflateStream& ) = delete;

    [[nodiscard]] z_stream& get() noexcept { return m_stream; }

private:
    z_stream m_stream{};
};

}  // namespace detail

/**
 * Derive the whole-chunk CRC32 from the per-member segment CRCs via
 * simd::crc32Combine — O(log n) per segment instead of a second hashing
 * pass, with no z_off_t length ceiling (the zlib-era re-hash fallback for
 * oversized segments is gone).
 */
[[nodiscard]] inline std::uint32_t
combineSegmentCrcs( const DecodedChunk& chunk )
{
    std::uint32_t combined = 0;
    std::size_t begin = 0;
    for ( const auto& memberEnd : chunk.memberEnds ) {
        combined = simd::crc32Combine( combined, memberEnd.segmentCrc32,
                                       memberEnd.dataEndOffset - begin );
        begin = memberEnd.dataEndOffset;
    }
    const auto trailing = chunk.data.size() - begin;
    if ( trailing > 0 ) {
        combined = simd::crc32Combine( combined, chunk.trailingCrc32, trailing );
    }
    return combined;
}

/**
 * Raw-Deflate-decode the chunk [begin, end). @p begin must be a restart
 * point (empty window). Handles gzip member transitions that fall inside
 * the chunk (footer + next member's header + fresh Deflate stream), with
 * the trailing-bytes rule of nextGzipMember() deciding on the file what
 * follows a footer. Throws InvalidGzipStreamError if zlib rejects the data,
 * and FalseChunkEndError if @p end cuts a footer or header that a further
 * member follows.
 */
[[nodiscard]] inline DecodedChunk
decodeRawDeflateChunk( const FileReader& file, std::size_t begin, std::size_t end )
{
    telemetry::Span decodeSpan{ "pipeline", "chunk.decode" };
    end = std::min( end, file.size() );
    DecodedChunk result;
    if ( begin >= end ) {
        return result;
    }

    std::vector<std::uint8_t> input( end - begin );
    if ( file.pread( input.data(), input.size(), begin ) != input.size() ) {
        throw FileIoError( "Short read of compressed chunk" );
    }

    detail::RawInflateStream inflater;
    auto& stream = inflater.get();
    detail::ZlibInputFeeder feeder( input.data(), input.size() );

    /* One running CRC per member SEGMENT (reset at member boundaries); the
     * whole-chunk crc32 is combined from the segments afterwards, so
     * per-member footer verification costs no second hashing pass. */
    std::uint32_t segmentCrc = 0;
    std::vector<std::uint8_t> buffer( 256 * 1024 );
    while ( true ) {
        feeder.feed( stream );
        stream.next_out = buffer.data();
        stream.avail_out = static_cast<uInt>( buffer.size() );
        const auto code = inflate( &stream, Z_NO_FLUSH );
        const auto produced = buffer.size() - stream.avail_out;
        if ( produced > 0 ) {
            segmentCrc = simd::crc32( segmentCrc, buffer.data(), produced );
            result.data.insert( result.data.end(), buffer.data(), buffer.data() + produced );
        }

        if ( code == Z_STREAM_END ) {
            const auto consumed = feeder.consumed( stream );
            result.deflateEndOffset = begin + consumed;
            result.memberEnds.push_back( { result.data.size(), segmentCrc,
                                           begin + consumed } );
            segmentCrc = 0;
            /* What follows the footer is decided on the file, not on this
             * chunk's bytes: the footer and the next member's header may run
             * past the chunk end. A header cut by the end of the file throws
             * (truncated stream), and RAII frees the stream. */
            const auto footerEnd = consumed + GZIP_FOOTER_SIZE;
            const auto next = nextGzipMember(
                file, begin + footerEnd,
                footerEnd < input.size() ? BufferView( input.data() + footerEnd, input.size() - footerEnd )
                                         : BufferView() );
            if ( !next ) {
                result.reachedStreamEnd = true;  /* the rest is padding */
                break;
            }
            if ( *next > end ) {
                throw FalseChunkEndError( "Chunk end " + std::to_string( end )
                                          + " lies inside the gzip footer or header before offset "
                                          + std::to_string( *next ) );
            }
            if ( *next == end ) {
                break;  /* the next chunk starts with the next member */
            }
            if ( inflateReset( &stream ) != Z_OK ) {
                throw InvalidGzipStreamError( "inflateReset failed between members" );
            }
            feeder.seekTo( stream, *next - begin );
            ++result.memberRestarts;
            continue;
        }
        if ( ( code != Z_OK ) && ( code != Z_BUF_ERROR ) ) {
            throw InvalidGzipStreamError( "Chunk at offset " + std::to_string( begin )
                                          + " failed to decode (zlib code "
                                          + std::to_string( code ) + ")" );
        }
        if ( feeder.exhausted( stream ) ) {
            break;  /* chunk exhausted; the next chunk continues the stream */
        }
        if ( ( code == Z_BUF_ERROR ) && ( stream.avail_out != 0 ) && ( stream.avail_in != 0 ) ) {
            break;  /* no forward progress possible (trailing partial marker bytes) */
        }
    }
    result.trailingCrc32 = segmentCrc;
    result.crc32 = combineSegmentCrcs( result );
    return result;
}

}  // namespace rapidgzip
