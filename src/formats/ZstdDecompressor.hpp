#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../index/Checkpoint.hpp"
#include "../io/FileReader.hpp"
#include "../io/SharedFileReader.hpp"
#include "Decompressor.hpp"
#include "Format.hpp"
#include "VendorZstd.hpp"
#include "ZstdWriter.hpp"

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )

namespace rapidgzip::formats {

/**
 * Byte length of the zstd data frame whose magic is at @p begin of @p file,
 * from pure header arithmetic: frame header size from the descriptor, then
 * 3-byte block headers until the last-block flag, plus the optional 4-byte
 * checksum. Also recovers the content size when the header records one.
 * Throws on truncation and reserved fields. The backend's frame walk and
 * salvage's both run this.
 */
[[nodiscard]] inline std::pair<std::size_t, std::size_t>  /* (frame end, content size|0) */
walkZstdDataFrame( const FileReader& file, std::size_t begin )
{
    const auto fileSize = file.size();
    if ( begin + 4 + 1 > fileSize ) {
        throw RapidgzipError( "Truncated zstd frame header" );
    }
    std::uint8_t descriptor = 0;
    preadExactly( file, &descriptor, 1, begin + 4 );
    const auto fcsFlag = descriptor >> 6U;
    const bool singleSegment = ( descriptor & 0x20U ) != 0;
    const bool hasChecksum = ( descriptor & 0x04U ) != 0;
    const auto dictIDFlag = descriptor & 0x03U;
    if ( ( descriptor & 0x08U ) != 0 ) {
        throw RapidgzipError( "Reserved bit set in zstd frame descriptor" );
    }

    static constexpr std::size_t DICT_ID_SIZES[4] = { 0, 1, 2, 4 };
    const auto windowSize = singleSegment ? std::size_t( 0 ) : std::size_t( 1 );
    std::size_t fcsSize = 0;
    switch ( fcsFlag ) {
    case 0: fcsSize = singleSegment ? 1 : 0; break;
    case 1: fcsSize = 2; break;
    case 2: fcsSize = 4; break;
    default: fcsSize = 8; break;
    }

    auto position = begin + 4 + 1 + windowSize + DICT_ID_SIZES[dictIDFlag];
    std::size_t contentSize = 0;
    if ( fcsSize > 0 ) {
        if ( position + fcsSize > fileSize ) {
            throw RapidgzipError( "Truncated zstd frame header" );
        }
        std::uint8_t bytes[8] = {};
        preadExactly( file, bytes, fcsSize, position );
        std::uint64_t value = 0;
        for ( std::size_t i = 0; i < fcsSize; ++i ) {
            value |= static_cast<std::uint64_t>( bytes[i] ) << ( 8U * i );
        }
        if ( fcsSize == 2 ) {
            value += 256;  /* spec: 2-byte field stores size - 256 */
        }
        contentSize = static_cast<std::size_t>( value );
        position += fcsSize;
    }

    while ( true ) {
        if ( position + 3 > fileSize ) {
            throw RapidgzipError( "Truncated zstd frame (block header)" );
        }
        std::uint8_t headerBytes[3];
        preadExactly( file, headerBytes, sizeof( headerBytes ), position );
        const auto header = static_cast<std::uint32_t>( headerBytes[0] )
                            | ( static_cast<std::uint32_t>( headerBytes[1] ) << 8U )
                            | ( static_cast<std::uint32_t>( headerBytes[2] ) << 16U );
        position += 3;
        const bool lastBlock = ( header & 1U ) != 0;
        const auto blockType = ( header >> 1U ) & 3U;
        const auto blockSize = header >> 3U;
        if ( blockType == 3 ) {
            throw RapidgzipError( "Reserved zstd block type" );
        }
        /* RLE blocks store ONE byte regardless of their decoded size. */
        position += blockType == 1 ? 1 : blockSize;
        if ( position > fileSize ) {
            throw RapidgzipError( "Truncated zstd block" );
        }
        if ( lastBlock ) {
            break;
        }
    }
    if ( hasChecksum ) {
        position += 4;
        if ( position > fileSize ) {
            throw RapidgzipError( "Truncated zstd frame (checksum)" );
        }
    }
    /* fcsSize == 0 means "unknown", and a genuinely empty frame also
     * reports 0 — the empty case is harmless to treat as unknown (its
     * whole-stream decode costs nothing). */
    return { position, contentSize };
}

/**
 * zstd reader: frame segmentation is done by THIS code — walking frame
 * headers and 3-byte block headers costs no decompression — and the
 * per-frame byte work is delegated to vendor libzstd (a from-scratch
 * FSE/Huffman zstd decoder is out of scope; the value reproduced here is
 * the paper's parallelization layer). Three sources of frame geometry, in
 * preference order:
 *
 *  1. a seekable-format seek table (skippable frame, 0x8F92EAB1 footer):
 *     compressed AND decompressed sizes for every frame, zero decoding;
 *  2. frame headers with a content-size field: sizes recovered per frame
 *     while walking (ZSTD_compress always writes it);
 *  3. neither → the whole stream is one unit, decoded by the vendor
 *     streaming decoder and then cached like any chunk.
 *
 * With sources 1 or 2 every frame is a unit of the chunked reader and
 * decodes on its pool; integrity rides on zstd's own frame checksums
 * (verified inside the vendor decoder when present) plus the exact-content-
 * size check every frame decode enforces.
 */
class ZstdDecompressor final : public FrameDecompressor
{
public:
    explicit ZstdDecompressor( std::unique_ptr<FileReader> file,
                               ChunkFetcherConfiguration configuration = {} ) :
        FrameDecompressor( std::move( file ), configuration )
    {
        parseFrames();
    }

    [[nodiscard]] Format
    format() const noexcept override
    {
        return Format::ZSTD;
    }

    /** True when a seekable-format seek table was found and adopted. */
    [[nodiscard]] bool
    hasSeekTable() const noexcept
    {
        return m_hasSeekTable;
    }

private:
    [[nodiscard]] std::uint32_t
    readLE32At( std::size_t offset ) const
    {
        std::uint8_t bytes[4];
        preadExactly( *m_file, bytes, sizeof( bytes ), offset );
        return readLE32( bytes );
    }

    void
    parseFrames()
    {
        const auto fileSize = m_file->size();
        struct RawFrame
        {
            std::size_t begin;
            std::size_t end;
            std::size_t contentSize;
            bool sized;
        };
        std::vector<RawFrame> rawFrames;
        std::vector<std::pair<std::size_t, std::size_t> > seekTable;  /* (cSize, dSize) */

        std::size_t offset = 0;
        while ( offset < fileSize ) {
            if ( offset + 4 > fileSize ) {
                throw RapidgzipError( "Truncated zstd stream (dangling bytes)" );
            }
            if ( const auto skippableEnd = skippableFrameEnd( *m_file, offset ) ) {
                /* The LAST skippable frame may be a seekable-format seek
                 * table: content ends with the 9-byte footer whose magic is
                 * 0x8F92EAB1. */
                const auto skipSize = *skippableEnd - offset - 8;
                if ( ( *skippableEnd == fileSize )
                     && ( skipSize >= ZSTD_SEEKABLE_FOOTER_SIZE )
                     && ( readLE32At( fileSize - 4 ) == ZSTD_SEEKABLE_FOOTER_MAGIC ) ) {
                    seekTable = parseSeekTable( offset + 8, skipSize );
                }
                offset = *skippableEnd;
                continue;
            }
            if ( readLE32At( offset ) != ZSTD_FRAME_MAGIC ) {
                throw RapidgzipError( "Not a zstd frame at offset " + std::to_string( offset ) );
            }
            const auto [end, contentSize] = walkZstdDataFrame( *m_file, offset );
            rawFrames.push_back( { offset, end, contentSize, contentSize > 0 } );
            offset = end;
        }

        /* A seek table must agree with the walked frame geometry to be
         * trusted (defense against a chance skippable frame carrying the
         * magic); on agreement it supplies any missing sizes. */
        if ( seekTable.size() == rawFrames.size() ) {
            bool consistent = true;
            for ( std::size_t i = 0; i < seekTable.size(); ++i ) {
                const auto compressedSize = rawFrames[i].end - rawFrames[i].begin;
                if ( ( seekTable[i].first != compressedSize )
                     || ( rawFrames[i].sized
                          && ( seekTable[i].second != rawFrames[i].contentSize ) ) ) {
                    consistent = false;
                    break;
                }
            }
            if ( consistent ) {
                m_hasSeekTable = true;
                for ( std::size_t i = 0; i < seekTable.size(); ++i ) {
                    rawFrames[i].contentSize = seekTable[i].second;
                    rawFrames[i].sized = true;
                }
            }
        }

        auto frames = std::make_shared<std::vector<Unit> >();
        for ( const auto& frame : rawFrames ) {
            frames->push_back( { frame.begin * 8, frame.end * 8, frame.contentSize } );
        }
        const auto allSized = !rawFrames.empty()
                              && std::all_of( rawFrames.begin(), rawFrames.end(),
                                              [] ( const RawFrame& frame ) { return frame.sized; } );
        if ( allSized ) {
            publishUnits( *frames, [frames] ( const FileReader& file, std::size_t index,
                                              std::vector<std::uint8_t>& out ) {
                const auto& frame = ( *frames )[index];
                std::vector<std::uint8_t> compressed( ( frame.endBits - frame.beginBits ) / 8 );
                preadExactly( file, compressed.data(), compressed.size(), frame.beginBits / 8 );
                const auto previousSize = out.size();
                out.resize( previousSize + frame.uncompressedSize );
                const auto written = vendorZstdDecompressFrame(
                    { compressed.data(), compressed.size() },
                    out.data() + previousSize, frame.uncompressedSize );
                if ( written != frame.uncompressedSize ) {
                    throw RapidgzipError( "zstd frame decoded to an unexpected size" );
                }
            }, /* independent */ true );
            return;
        }
        /* Without every frame's size there is no destination to decode a
         * frame into: the whole stream is one unit. */
        publishUnits( { Unit{ 0, fileSize * 8, 0 } }, [] ( const FileReader& file, std::size_t,
                                                           std::vector<std::uint8_t>& out ) {
            std::vector<std::uint8_t> compressed( file.size() );
            preadExactly( file, compressed.data(), compressed.size(), 0 );
            const auto output = vendorZstdDecompressAll( { compressed.data(), compressed.size() } );
            out.insert( out.end(), output.begin(), output.end() );
        }, /* independent */ false );
    }

    [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t> >
    parseSeekTable( std::size_t contentBegin, std::size_t contentSize ) const
    {
        const auto footerBegin = contentBegin + contentSize - ZSTD_SEEKABLE_FOOTER_SIZE;
        const auto frameCount = readLE32At( footerBegin );
        std::uint8_t descriptor = 0;
        preadExactly( *m_file, &descriptor, 1, footerBegin + 4 );
        const bool perFrameChecksums = ( descriptor & 0x80U ) != 0;
        const std::size_t entrySize = perFrameChecksums ? 12 : 8;
        if ( contentSize != entrySize * frameCount + ZSTD_SEEKABLE_FOOTER_SIZE ) {
            return {};  /* inconsistent — not a real seek table */
        }
        std::vector<std::pair<std::size_t, std::size_t> > result;
        result.reserve( frameCount );
        for ( std::size_t i = 0; i < frameCount; ++i ) {
            const auto entry = contentBegin + i * entrySize;
            result.emplace_back( readLE32At( entry ), readLE32At( entry + 4 ) );
        }
        return result;
    }

    bool m_hasSeekTable{ false };
};

}  // namespace rapidgzip::formats

#endif  /* RAPIDGZIP_HAVE_VENDOR_ZSTD */
