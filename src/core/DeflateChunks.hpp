#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "../bits/BitReader.hpp"
#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../deflate/DeflateDecoder.hpp"
#include "../gzip/GzipHeader.hpp"
#include "../io/FileReader.hpp"
#include "../simd/Crc32.hpp"
#include "../telemetry/Trace.hpp"

namespace rapidgzip {

/**
 * Shared machinery for chunked parallel gzip decompression: locating
 * full-flush restart points (the pigz/Z_FULL_FLUSH `00 00 FF FF` sync
 * marker), the decoded-chunk record every chunk decode returns, and the
 * per-member footer check over such records. The restart points seed
 * ParallelGzipReader's marker-derived index checkpoints and the pugz-like
 * baseline's chunks.
 *
 * A full flush both byte-aligns the stream (empty stored block) and resets
 * the LZ77 window, so a chunk starting right after the marker decodes
 * standalone with an empty window. Chunks that start anywhere else need the
 * propagated window of GzipChunkFetcher.
 */

inline constexpr std::size_t FULL_FLUSH_MARKER_SIZE = 4;
/** The marker scan reads windows of this size, counted from its begin. */
inline constexpr std::size_t FULL_FLUSH_SCAN_WINDOW = 128 * KiB;

/**
 * The end offset (a chunk start candidate) of the first marker lying wholly
 * in [searchBegin, searchEnd) that @p accept( markerEnd ) takes, trying the
 * markers in ascending order; std::nullopt when it takes none. The scan
 * reads FULL_FLUSH_SCAN_WINDOW bytes at a time, so a search that accepts
 * early reads little past its marker. It jumps between zero bytes with
 * memchr (rare in compressed data) and confirms each with one 4-byte
 * compare. The scan and @p accept run inside one `chunk.find` span.
 */
template<typename Accept>
[[nodiscard]] std::optional<std::size_t>
findFullFlushMarker( const FileReader& file, std::size_t searchBegin, std::size_t searchEnd,
                     const Accept& accept )
{
    static constexpr std::uint8_t MARKER[FULL_FLUSH_MARKER_SIZE] = { 0x00, 0x00, 0xFF, 0xFF };

    telemetry::Span findSpan{ "pipeline", "chunk.find" };

    searchEnd = std::min( searchEnd, file.size() );
    std::vector<std::uint8_t> buffer;
    for ( auto offset = searchBegin; offset + FULL_FLUSH_MARKER_SIZE <= searchEnd;
          offset += FULL_FLUSH_SCAN_WINDOW ) {
        /* Each window reads marker-size - 1 bytes past its end so that
         * exactly the markers STARTING in it are found here: none is missed
         * at a window boundary and none is reported twice. */
        buffer.resize( std::min( FULL_FLUSH_SCAN_WINDOW + FULL_FLUSH_MARKER_SIZE - 1, searchEnd - offset ) );
        preadExactly( file, buffer.data(), buffer.size(), offset );
        const auto* const begin = buffer.data();
        const auto* const startsEnd = begin + buffer.size() - ( FULL_FLUSH_MARKER_SIZE - 1 );
        for ( const auto* p = begin; p < startsEnd; ++p ) {
            p = static_cast<const std::uint8_t*>(
                std::memchr( p, 0, static_cast<std::size_t>( startsEnd - p ) ) );
            if ( p == nullptr ) {
                break;
            }
            const auto markerEnd = offset + static_cast<std::size_t>( p - begin ) + FULL_FLUSH_MARKER_SIZE;
            if ( ( std::memcmp( p, MARKER, FULL_FLUSH_MARKER_SIZE ) == 0 ) && accept( markerEnd ) ) {
                return markerEnd;
            }
        }
    }
    return std::nullopt;
}

/** Marker end offsets of every marker lying wholly in [searchBegin,
 * searchEnd), in ascending order: findFullFlushMarker() taking none. */
[[nodiscard]] inline std::vector<std::size_t>
findFullFlushMarkers( const FileReader& file, std::size_t searchBegin, std::size_t searchEnd )
{
    std::vector<std::size_t> result;
    (void)findFullFlushMarker( file, searchBegin, searchEnd, [&result] ( std::size_t markerEnd ) {
        result.push_back( markerEnd );
        return false;
    } );
    return result;
}

/**
 * Cheap validation that @p offset really is a Deflate restart point: decode
 * a small probe window with an empty history and check the decoder does not
 * reject it. It accepts what zlib raw inflate accepted here: a stream that
 * finishes, one that fills the probe output, and one that runs out of probe
 * input. False sync-marker matches inside compressed data (probability
 * ~2^-32 per byte) virtually never survive this; the ones that would are
 * caught later by the stitch's start check and the footer verification.
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

    BitReader reader( input.data(), got );
    deflate::Decoder decoder;
    decoder.setInitialWindow( {} );
    deflate::DecodedData output;
    const auto error = decoder.decode( reader, output, std::numeric_limits<std::size_t>::max(),
                                       PROBE_OUTPUT ).error;
    return ( error == Error::NONE ) || ( error == Error::EXCEEDED_OUTPUT_LIMIT )
           || ( error == Error::TRUNCATED_STREAM );
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
 * member's first Deflate byte S, then, after each start s, the first marker
 * end at least @p chunkSizeBytes (C) past s that lies before the end of the
 * file and passes probeRawDeflatePoint(). A candidate the probe rejects is a
 * false marker match and stays inside its chunk.
 *
 * Each search jumps to the markers ending at s + C or later and reads on
 * only until it accepts one, so a pigz-like file is read about one scan
 * window per chunk, not whole. The first search ends at S + 2C: a stream
 * without a restart point there — a plain `gzip` stream, or one whose
 * flushes lie more than two chunk sizes apart — gets {S} alone after one
 * chunk size of reading, and ParallelGzipReader decodes it with the guess
 * grid. Every later search runs to the end of the file.
 *
 * ParallelGzipReader turns the starts into exact rows of its chunk table;
 * the pugz-like baseline decodes between them, so the measured
 * implementation and its baseline never diverge on chunking.
 */
[[nodiscard]] inline std::vector<std::size_t>
discoverRestartPoints( const FileReader& file, std::size_t chunkSizeBytes )
{
    const auto header = readHeaderBytes( file, 0 );
    std::vector<std::size_t> starts{ parseGzipHeader( { header.data(), header.size() } ) };
    /* Capped at the file size, which no chunk can exceed, so that no offset
     * sum below can wrap. */
    const auto chunkSize = std::max<std::size_t>( 1, std::min( chunkSizeBytes, file.size() ) );
    auto searchEnd = std::min( file.size(), starts.front() + 2 * chunkSize );
    while ( true ) {
        const auto previous = starts.back();
        /* Markers ending at previous + C or later start at previous + C - 4
         * or later; none starting before the first Deflate byte counts. */
        const auto searchBegin = std::max( starts.front(), previous + chunkSize - FULL_FLUSH_MARKER_SIZE );
        const auto next = findFullFlushMarker(
            file, searchBegin, searchEnd, [&file, previous, chunkSize] ( std::size_t candidate ) {
                return ( candidate < file.size() ) && ( candidate - previous >= chunkSize )
                       && probeRawDeflatePoint( file, candidate );
            } );
        if ( !next ) {
            return starts;
        }
        starts.push_back( *next );
        searchEnd = file.size();
    }
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
    /** The last member's footer is followed by padding or nothing; bytes
     * beyond it are ignored, mirroring `gzip -d`. */
    bool reachedStreamEnd{ false };
    /** Absolute bit offset where decoding stopped: the block boundary at or
     * past the requested end, the first Deflate bit of the member that
     * starts there, or the end of the stream's final block. A decode
     * resuming here continues the stream. */
    std::size_t endBitOffset{ 0 };

    /** Members ending inside this chunk, in stream order. */
    std::vector<MemberEnd> memberEnds;
    /** CRC32 of the bytes after the last member end (the whole chunk when
     * no member ends inside it) — the carry into the next chunk. */
    std::uint32_t trailingCrc32{ 0 };

    /**
     * Set by every decode of an unverified row (GzipChunkFetcher::decodeRow):
     * where the decode started, which the consumer checks against where the
     * previous row ended. An exact row decoded from its start with an empty
     * window, and `data` holds all of its output. A decode from a guessed
     * offset knows no window (GzipChunkFetcher::decodeChunkFromGuess): its
     * output up to the first member end in the chunk, or all of it when no
     * member ends there, is the stage-one output @ref firstSegment, whose
     * markers the consumer resolves against the window, and `data`,
     * `memberEnds`, `trailingCrc32` and `crc32` describe only the members
     * after that member end.
     */
    struct Guess
    {
        Guess() = default;
        Guess( Guess&& ) noexcept = default;
        Guess& operator=( Guess&& ) noexcept = default;

        /** Hands the stage-one buffers back to the decode buffer pool, so a
         * pass over guessed chunks allocates no new ones. */
        ~Guess()
        {
            deflate::DecodedDataPool::release( std::move( firstSegment ) );
        }

        /** NONE, or why the chunk holds no usable decode: BLOCK_NOT_FOUND
         * (no candidate decodes, or the members after it do not),
         * EXCEEDED_OUTPUT_LIMIT, or TRUNCATED_STREAM (the file read short). */
        Error error{ Error::NONE };
        /** The block boundary the decode started at. */
        std::size_t startBitOffset{ 0 };
        /** The decode started at a stored block's LEN field, behind the
         * block's three unread header bits. */
        bool startedAtStoredBlock{ false };
        /** An exact row: @ref firstSegment is empty, and a checkpoint at the
         * start needs no window. */
        bool exact{ false };
        deflate::DecodedData firstSegment;
        /** The footer of the member that firstSegment ends, when it ends in
         * this chunk. */
        std::optional<std::size_t> firstSegmentFooter;
    };
    std::optional<Guess> guess;
};

/** Thrown by a chunk decode that reaches the end of the file before the
 * end of the gzip stream: the file is truncated, whichever chunk boundary
 * is false. */
class TruncatedStreamError : public InvalidGzipStreamError
{
public:
    using InvalidGzipStreamError::InvalidGzipStreamError;
};

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

/** True when the footer at @p footerOffset states @p crc and @p size.
 * The footer sits right after the member's final Deflate byte — NOT at
 * the end of the file, which may carry padding or further members. */
[[nodiscard]] inline bool
footerMatches( const FileReader& file, std::size_t footerOffset, std::uint32_t crc, std::size_t size )
{
    std::uint8_t footerBytes[GZIP_FOOTER_SIZE];
    if ( ( footerOffset + GZIP_FOOTER_SIZE > file.size() )
         || ( file.pread( footerBytes, GZIP_FOOTER_SIZE, footerOffset ) != GZIP_FOOTER_SIZE ) ) {
        return false;
    }
    const auto footer = parseGzipFooter( { footerBytes, GZIP_FOOTER_SIZE }, GZIP_FOOTER_SIZE );
    return ( crc == footer.crc32 )
           && ( static_cast<std::uint32_t>( size ) == footer.uncompressedSizeModulo32 );
}

/**
 * Walks decoded chunks' member segments in stream order and checks every
 * member — including each member of a concatenated stream — against ITS
 * OWN footer: CRC32 (simd::crc32Combine'd across the chunks a member
 * spans; the combine has no z_off_t ceiling, so CRC verification never
 * degrades to size-only) and ISIZE. consume() returns false on any
 * mismatch or unreadable footer.
 */
class MemberVerifier
{
public:
    explicit MemberVerifier( const FileReader& file ) noexcept :
        m_file( file )
    {}

    [[nodiscard]] bool
    consume( const DecodedChunk& chunk )
    {
        std::size_t segmentBegin = 0;
        for ( const auto& memberEnd : chunk.memberEnds ) {
            if ( !consume( memberEnd.segmentCrc32, memberEnd.dataEndOffset - segmentBegin,
                           memberEnd.footerStartByte ) ) {
                return false;
            }
            segmentBegin = memberEnd.dataEndOffset;
        }
        return consume( chunk.trailingCrc32, chunk.data.size() - segmentBegin );
    }

    /** Append @p length bytes whose CRC32 is @p segmentCrc to the current
     * member. With @p footerStartByte they end it, and it must match the
     * footer there. */
    [[nodiscard]] bool
    consume( std::uint32_t segmentCrc, std::size_t length,
             std::optional<std::size_t> footerStartByte = std::nullopt )
    {
        if ( length > 0 ) {
            m_memberCrc = simd::crc32Combine( m_memberCrc, segmentCrc, length );
            m_memberSize += length;
        }
        if ( !footerStartByte ) {
            return true;
        }
        const auto matches = footerMatches( m_file, *footerStartByte, m_memberCrc, m_memberSize );
        m_memberCrc = 0;
        m_memberSize = 0;
        return matches;
    }

private:
    const FileReader& m_file;
    std::uint32_t m_memberCrc{ 0 };
    std::size_t m_memberSize{ 0 };
};

}  // namespace rapidgzip
