#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../bits/BitReader.hpp"
#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../core/DeflateChunks.hpp"
#include "../deflate/DecodedData.hpp"
#include "../deflate/DeflateDecoder.hpp"
#include "../gzip/GzipHeader.hpp"
#include "../io/FileReader.hpp"
#include "../io/MemoryFileReader.hpp"
#include "../simd/Crc32.hpp"
#include "Bzip2Decompressor.hpp"
#include "Format.hpp"
#include "Lz4Decompressor.hpp"
#include "VendorBzip2.hpp"
#include "VendorZstd.hpp"
#include "ZstdDecompressor.hpp"

namespace rapidgzip::formats {

/**
 * Salvage decode: best-effort recovery from corrupted archives. Where the
 * normal decode path throws on the first damaged byte, salvage decodes
 * every VERIFIABLE unit it can find — gzip member, zstd frame, lz4 frame,
 * bzip2 block — and reports the byte ranges it had to skip as holes
 * instead of aborting the whole archive. Each unit is parsed, decoded and
 * verified by the code its strict backend runs (gzip: the header rule, our
 * Deflate decoder and the CRC32+ISIZE footer check; lz4: the frame parser
 * and block body with their xxhash checks; zstd: the frame walk and the
 * vendor decoder with its frame checksum; bzip2: the magic scan and the
 * vendor decoder with its block CRC), so emitted output is never
 * unverified guesswork; the uncertainty lives entirely in the holes.
 * What salvage adds is its own: the resync search after damage, the hole
 * accounting, and verify-before-emit.
 *
 * Salvage buffers one unit at a time in memory and only hands it to the
 * sink AFTER verification — a deliberately different trade-off from the
 * streaming fast path, where a checksum mismatch can surface after bytes
 * already left the process.
 */
struct SalvageHole
{
    std::size_t compressedBegin{ 0 };  /**< first byte NOT covered by a verified unit */
    std::size_t compressedEnd{ 0 };    /**< one past the last skipped byte */

    [[nodiscard]] std::size_t
    size() const noexcept
    {
        return compressedEnd - compressedBegin;
    }
};

struct SalvageReport
{
    Format format{ Format::UNKNOWN };
    std::vector<SalvageHole> holes;
    std::size_t recoveredUnits{ 0 };   /**< members / frames / blocks decoded and verified */
    std::size_t recoveredBytes{ 0 };   /**< decompressed bytes emitted */

    /** True when the whole input decoded without skips — salvage of an
     * intact archive must report clean() and match the normal decode. */
    [[nodiscard]] bool
    clean() const noexcept
    {
        return holes.empty();
    }

    [[nodiscard]] std::size_t
    missingCompressedBytes() const noexcept
    {
        std::size_t total = 0;
        for ( const auto& hole : holes ) {
            total += hole.size();
        }
        return total;
    }
};

/** Receives each verified unit's decompressed bytes, in compressed-offset
 * order. The view is only valid during the call. */
using SalvageSink = std::function<void( BufferView )>;

namespace salvage_detail {

inline constexpr std::size_t NOT_FOUND = static_cast<std::size_t>( -1 );

/**
 * Tracks the high-water mark of verified coverage and turns gaps into
 * holes. Units are visited in ascending compressed order, so a unit
 * beginning past the water mark proves the bytes in between belong to no
 * verifiable unit.
 */
class HoleTracker
{
public:
    explicit HoleTracker( SalvageReport& report ) :
        m_report( report )
    {}

    void
    markGood( std::size_t begin, std::size_t end )
    {
        if ( begin > m_lastGoodEnd ) {
            m_report.holes.push_back( { m_lastGoodEnd, begin } );
        }
        m_lastGoodEnd = std::max( m_lastGoodEnd, end );
    }

    void
    finish( std::size_t fileSize )
    {
        if ( m_lastGoodEnd < fileSize ) {
            m_report.holes.push_back( { m_lastGoodEnd, fileSize } );
        }
    }

private:
    SalvageReport& m_report;
    std::size_t m_lastGoodEnd{ 0 };
};

inline void
emitUnit( const SalvageSink& sink,
          SalvageReport& report,
          const std::vector<std::uint8_t>& unit )
{
    report.recoveredUnits += 1;
    report.recoveredBytes += unit.size();
    if ( sink ) {
        sink( { unit.data(), unit.size() } );
    }
}

/* ------------------ byte-aligned units: gzip, zstd, lz4 ------------------ */

/** Next plausible member start: 1F 8B (magic) 08 (deflate method). */
[[nodiscard]] inline std::size_t
findGzipCandidate( BufferView data, std::size_t from )
{
    for ( auto pos = from; pos + 3 <= data.size(); ++pos ) {
        if ( ( data[pos] == GZIP_MAGIC_1 ) && ( data[pos + 1] == GZIP_MAGIC_2 )
             && ( data[pos + 2] == GZIP_CM_DEFLATE ) ) {
            return pos;
        }
    }
    return NOT_FOUND;
}

/** Next zstd or lz4 frame start: @p dataMagic or a skippable-frame magic. */
[[nodiscard]] inline std::size_t
findFrameCandidate( BufferView data, std::size_t from, std::uint32_t dataMagic )
{
    for ( auto pos = from; pos + 4 <= data.size(); ++pos ) {
        const auto magic = readLE32( data.data() + pos );
        if ( ( magic == dataMagic )
             || ( ( magic & ZSTD_SKIPPABLE_MAGIC_MASK ) == ZSTD_SKIPPABLE_MAGIC_BASE ) ) {
            return pos;
        }
    }
    return NOT_FOUND;
}

/** Thrown for a unit whose structure decodes to its end but whose
 * checksum fails: the unit's extent is known, so the search resumes after
 * it, not inside bytes that are its payload (a stored block may carry a
 * complete gzip member verbatim). */
class DamagedUnitError : public ChecksumError
{
public:
    explicit DamagedUnitError( std::size_t unitEnd ) :
        ChecksumError( "Gzip member does not match its footer" ),
        end( unitEnd )
    {}

    std::size_t end;
};

/**
 * Decode and verify ONE gzip member at @p begin with the parts behind
 * ParallelGzipReader: the header rule (parseGzipHeader), our Deflate
 * decoder from an empty window to the member's final block, and the
 * CRC32 + ISIZE footer check (footerMatches). The decoder runs directly
 * on the in-memory buffer, so it stops at this member's final block.
 * Returns one past the footer; throws when any part rejects the member,
 * DamagedUnitError when only the footer does.
 */
[[nodiscard]] inline std::size_t
decodeGzipMember( const MemoryFileReader& file,
                  std::size_t begin,
                  std::vector<std::uint8_t>& out )
{
    const auto data = file.view();
    BitReader reader( data.data(), data.size() );
    reader.seek( parseGzipHeader( data, begin ) * 8 );
    deflate::Decoder decoder;
    decoder.setInitialWindow( {} );
    deflate::DecodedData decoded;
    const auto status = decoder.decode( reader, decoded );
    if ( ( status.error != Error::NONE ) || !status.reachedFinalBlock ) {
        throw InvalidGzipStreamError( "Damaged gzip member: " + std::string( toString( status.error ) ) );
    }
    deflate::resolveInto( decoded, {}, out );
    const auto footer = ceilDiv<std::size_t>( status.endBitOffset, 8 );
    if ( !footerMatches( file, footer, simd::crc32( 0, out.data(), out.size() ), out.size() ) ) {
        throw DamagedUnitError( footer + GZIP_FOOTER_SIZE );
    }
    return footer + GZIP_FOOTER_SIZE;
}

/**
 * The recovery loop of the byte-aligned containers. Candidates are visited
 * in ascending order; @p decodeUnit verifies the unit at a candidate and
 * returns its end, or throws, and the search resumes one byte further, or
 * after a DamagedUnitError's unit. A
 * skippable frame (zstd and lz4; no gzip candidate starts with its magic)
 * carries no content: intact, it extends verified coverage but counts no
 * unit.
 */
template<typename FindCandidate, typename DecodeUnit>
[[nodiscard]] SalvageReport
salvageUnits( const MemoryFileReader& file,
              Format format,
              const SalvageSink& sink,
              const FindCandidate& findCandidate,
              const DecodeUnit& decodeUnit )
{
    SalvageReport report;
    report.format = format;
    HoleTracker tracker( report );
    const auto data = file.view();

    std::size_t pos = 0;
    while ( ( pos = findCandidate( data, pos ) ) != NOT_FOUND ) {
        std::vector<std::uint8_t> unit;
        std::optional<std::size_t> skippableEnd;
        std::size_t end = 0;
        try {
            skippableEnd = skippableFrameEnd( file, pos );
            end = skippableEnd ? *skippableEnd : decodeUnit( file, pos, unit );
        } catch ( const DamagedUnitError& damaged ) {
            pos = damaged.end;
            continue;
        } catch ( const std::exception& ) {
            ++pos;
            continue;
        }
        tracker.markGood( pos, end );
        if ( !skippableEnd ) {
            emitUnit( sink, report, unit );
        }
        pos = end;
    }
    tracker.finish( data.size() );
    return report;
}

/** Bytes after the last footer stay a hole: the strict readers' trailing-
 * bytes rule would call a last member with a damaged magic padding, and
 * salvage must report that member as lost. */
[[nodiscard]] inline SalvageReport
salvageGzip( const MemoryFileReader& file, const SalvageSink& sink )
{
    return salvageUnits( file, Format::GZIP, sink, findGzipCandidate, decodeGzipMember );
}

[[nodiscard]] inline SalvageReport
salvageZstd( const MemoryFileReader& file, const SalvageSink& sink )
{
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
    return salvageUnits(
        file, Format::ZSTD, sink,
        [] ( BufferView data, std::size_t from ) { return findFrameCandidate( data, from, ZSTD_FRAME_MAGIC ); },
        [] ( const MemoryFileReader& archive, std::size_t begin, std::vector<std::uint8_t>& unit ) {
            const auto end = walkZstdDataFrame( archive, begin ).first;
            /* The vendor decoder verifies the frame, its checksum included
             * when present. */
            unit = vendorZstdDecompressAll( archive.view().subView( begin, end - begin ) );
            return end;
        } );
#else
    (void)file;
    (void)sink;
    throw UnsupportedDataError( "zstd salvage requires the zstd backend (libzstd not found at build time)" );
#endif
}

[[nodiscard]] inline SalvageReport
salvageLz4( const MemoryFileReader& file, const SalvageSink& sink )
{
    return salvageUnits(
        file, Format::LZ4, sink,
        [] ( BufferView data, std::size_t from ) { return findFrameCandidate( data, from, LZ4_FRAME_MAGIC ); },
        [] ( const MemoryFileReader& archive, std::size_t begin, std::vector<std::uint8_t>& unit ) {
            const auto frame = parseLz4Frame( archive, begin );
            unit = decodeLz4Frame( archive, frame );
            return frame.end;
        } );
}

/* --------------------------------- bzip2 --------------------------------- */

#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
/**
 * Bzip2 salvage works at BIT granularity: the backend's 48-bit magic scan
 * finds every block and end-of-stream magic, then each candidate block is
 * lifted into a synthetic single-block stream ("BZh9" + block bits + EOS +
 * the block's own CRC) and decoded by the vendor library, which verifies
 * the CRC. Holes are reported rounded to bytes.
 */
[[nodiscard]] inline SalvageReport
salvageBzip2Impl( const MemoryFileReader& file, const SalvageSink& sink )
{
    SalvageReport report;
    report.format = Format::BZIP2;
    HoleTracker tracker( report );
    const auto data = file.view();
    const auto magics = Bzip2Decompressor::scanMagics( file );

    /* A valid stream header directly in front of the first verified block
     * belongs to the good region; same for each follow-up stream of a
     * concatenated (pbzip2-style) file. */
    const auto headerBefore = [&data] ( std::size_t blockBeginBits ) -> std::size_t {
        if ( ( blockBeginBits % 8 == 0 ) && ( blockBeginBits >= 32 ) ) {
            const auto headerByte = blockBeginBits / 8 - 4;
            if ( ( data[headerByte] == 'B' ) && ( data[headerByte + 1] == 'Z' )
                 && ( data[headerByte + 2] == 'h' )
                 && ( data[headerByte + 3] >= '1' ) && ( data[headerByte + 3] <= '9' ) ) {
                return headerByte;
            }
        }
        return NOT_FOUND;
    };

    std::size_t lastGoodBitEnd = NOT_FOUND;  /* exact bit end of the last verified block */
    for ( std::size_t i = 0; i < magics.size(); ++i ) {
        const auto [ bit, isEos ] = magics[i];
        if ( isEos ) {
            /* An EOS directly after a verified block closes its stream: the
             * 48-bit magic, 32-bit combined CRC, and padding to the byte
             * boundary are all accounted for. An orphaned EOS (no verified
             * block ends exactly here) stays inside a hole. */
            if ( ( lastGoodBitEnd != NOT_FOUND ) && ( bit == lastGoodBitEnd ) ) {
                tracker.markGood( bit / 8, std::min( ceilDiv<std::size_t>( bit + 48 + 32, 8 ),
                                                     data.size() ) );
            }
            lastGoodBitEnd = NOT_FOUND;
            continue;
        }
        const auto endBits = i + 1 < magics.size() ? magics[i + 1].first : data.size() * 8;
        if ( endBits <= bit + 48 + 32 ) {
            continue;
        }
        std::vector<std::uint8_t> unit;
        try {
            const auto synthetic = Bzip2Decompressor::buildSingleBlockStream( file, bit, endBits );
            unit = vendorBzip2DecompressAll( { synthetic.data(), synthetic.size() } );
        } catch ( const std::exception& ) {
            lastGoodBitEnd = NOT_FOUND;
            continue;
        }
        const auto header = headerBefore( bit );
        tracker.markGood( header != NOT_FOUND ? header : bit / 8, ceilDiv<std::size_t>( endBits, 8 ) );
        emitUnit( sink, report, unit );
        lastGoodBitEnd = endBits;
    }
    tracker.finish( data.size() );
    return report;
}
#endif  /* RAPIDGZIP_HAVE_VENDOR_BZIP2 */

[[nodiscard]] inline SalvageReport
salvageBzip2( const MemoryFileReader& file, const SalvageSink& sink )
{
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
    return salvageBzip2Impl( file, sink );
#else
    (void)file;
    (void)sink;
    throw UnsupportedDataError( "bzip2 salvage requires the bzip2 backend (libbz2 not found at build time)" );
#endif
}

/**
 * Format detection for salvage: the strict readers' probe first, which
 * walks leading skippable frames to the first data frame, then — the head
 * may be exactly what is corrupted — the EARLIEST occurrence of any known
 * unit magic anywhere in the buffer.
 */
[[nodiscard]] inline Format
detectFormatForSalvage( const MemoryFileReader& file )
{
    const auto direct = detectFormat( file );
    if ( direct != Format::UNKNOWN ) {
        return direct;
    }
    const auto data = file.view();
    auto best = Format::UNKNOWN;
    auto bestPos = NOT_FOUND;
    const auto consider = [&best, &bestPos] ( std::size_t pos, Format format ) {
        if ( pos < bestPos ) {
            bestPos = pos;
            best = format;
        }
    };
    consider( findGzipCandidate( data, 0 ), Format::GZIP );
    consider( findFrameCandidate( data, 0, ZSTD_FRAME_MAGIC ), Format::ZSTD );
    consider( findFrameCandidate( data, 0, LZ4_FRAME_MAGIC ), Format::LZ4 );
    /* bzip2: byte-aligned "BZh1".."BZh9" stream header anywhere. The block
     * magic itself is rarely byte-aligned; the bit-level scan inside
     * salvageBzip2 handles that, but FINDING bzip2 data in an unknown
     * buffer keys off the header. */
    for ( std::size_t pos = 0; pos + 4 <= data.size() && pos < bestPos; ++pos ) {
        if ( ( data[pos] == 'B' ) && ( data[pos + 1] == 'Z' ) && ( data[pos + 2] == 'h' )
             && ( data[pos + 3] >= '1' ) && ( data[pos + 3] <= '9' ) ) {
            consider( pos, Format::BZIP2 );
            break;
        }
    }
    return best;
}

[[nodiscard]] inline SalvageReport
salvage( const MemoryFileReader& file, Format format, const SalvageSink& sink )
{
    switch ( format ) {
    case Format::GZIP:
        return salvageGzip( file, sink );
    case Format::ZSTD:
        return salvageZstd( file, sink );
    case Format::LZ4:
        return salvageLz4( file, sink );
    case Format::BZIP2:
        return salvageBzip2( file, sink );
    case Format::UNKNOWN:
        break;
    }
    /* Nothing recognizable anywhere: one hole covering the whole input. */
    SalvageReport report;
    if ( file.size() > 0 ) {
        report.holes.push_back( { 0, file.size() } );
    }
    return report;
}

}  // namespace salvage_detail

/**
 * Salvage-decode @p data as @p format, streaming each verified unit's
 * output through @p sink and reporting skipped byte ranges as holes. An
 * intact archive yields a clean() report whose output matches the normal
 * decode byte for byte.
 */
[[nodiscard]] inline SalvageReport
salvageDecompress( BufferView data,
                   Format format,
                   const SalvageSink& sink = {} )
{
    return salvage_detail::salvage( MemoryFileReader( data ), format, sink );
}

/** Format-probing overload: dispatches on the magic bytes, falling back to
 * an anywhere-in-the-buffer magic scan when the head itself is damaged. */
[[nodiscard]] inline SalvageReport
salvageDecompress( BufferView data, const SalvageSink& sink = {} )
{
    const MemoryFileReader file( data );
    return salvage_detail::salvage( file, salvage_detail::detectFormatForSalvage( file ), sink );
}

/** FileReader convenience: salvage runs over an in-memory image of the
 * file (recovery is an offline operation; simplicity and verified-before-
 * emit semantics beat streaming here). */
[[nodiscard]] inline SalvageReport
salvageDecompress( const FileReader& file, const SalvageSink& sink = {} )
{
    std::vector<std::uint8_t> data( file.size() );
    preadExactly( file, data.data(), data.size(), 0 );
    const MemoryFileReader memory( std::move( data ) );
    return salvage_detail::salvage( memory, salvage_detail::detectFormatForSalvage( memory ), sink );
}

}  // namespace rapidgzip::formats
