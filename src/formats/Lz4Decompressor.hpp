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
#include "../io/FileReader.hpp"
#include "../io/SharedFileReader.hpp"
#include "Decompressor.hpp"
#include "Format.hpp"
#include "Lz4Codec.hpp"
#include "Lz4Writer.hpp"
#include "XxHash32.hpp"

namespace rapidgzip::formats {

/** One LZ4 data block, as the frame parser locates it. */
struct Lz4Block
{
    std::size_t dataBegin{ 0 };      /**< file offset of the block's payload */
    std::size_t dataSize{ 0 };
    bool storedUncompressed{ false };
    bool hasChecksum{ false };
    std::size_t maxDecompressedSize{ 0 };
};

/** One LZ4 data frame: its blocks and the integrity material it carries. */
struct Lz4Frame
{
    std::size_t begin{ 0 };          /**< file offset of the magic */
    std::size_t end{ 0 };            /**< one past the frame's last byte */
    std::vector<Lz4Block> blocks;
    bool independentBlocks{ false };
    bool hasContentChecksum{ false };
    std::uint32_t contentChecksum{ 0 };
    /** From the header when C.Size is set (0 otherwise). */
    std::size_t contentSize{ 0 };
    bool contentSizeKnown{ false };
};

/**
 * Parse the LZ4 data frame at @p begin of @p file. Pure header
 * arithmetic (block sizes are explicit): no block is decoded. The
 * frame header's checksum byte is verified here; block and content
 * checksums are left to decodeLz4Block() and decodeLz4Frame(). Throws on
 * a missing magic, truncation, an unsupported version or dictionary ID,
 * and a block larger than the frame's maximum.
 */
[[nodiscard]] inline Lz4Frame
parseLz4Frame( const FileReader& file, std::size_t begin )
{
    const auto fileSize = file.size();
    Lz4Frame frame;
    frame.begin = begin;

    if ( begin + 4 + 3 > fileSize ) {
        throw RapidgzipError( "Truncated LZ4 frame header" );
    }
    std::uint8_t head[6];
    preadExactly( file, head, sizeof( head ), begin );
    if ( readLE32( head ) != LZ4_FRAME_MAGIC ) {
        throw RapidgzipError( "Not an LZ4 frame at offset " + std::to_string( begin ) );
    }
    const auto flg = head[4];
    const auto bd = head[5];
    if ( ( flg >> 6U ) != 1 ) {
        throw RapidgzipError( "Unsupported LZ4 frame version" );
    }
    if ( ( flg & 0x01U ) != 0 ) {
        throw UnsupportedDataError( "LZ4 frames with dictionary IDs are not supported" );
    }
    frame.independentBlocks = ( flg & 0x20U ) != 0;
    const bool blockChecksums = ( flg & 0x10U ) != 0;
    const bool contentSizePresent = ( flg & 0x08U ) != 0;
    frame.hasContentChecksum = ( flg & 0x04U ) != 0;

    const auto blockMaxCode = ( bd >> 4U ) & 0x7U;
    if ( blockMaxCode < 4 ) {
        throw RapidgzipError( "Invalid LZ4 block max-size code" );
    }
    const auto blockMaxSize = Lz4Writer::blockMaxSizeBytes(
        static_cast<Lz4Writer::BlockMaxSize>( blockMaxCode ) );

    const auto descriptorSize = std::size_t( 2 ) + ( contentSizePresent ? 8 : 0 );
    if ( begin + 4 + descriptorSize + 1 > fileSize ) {
        throw RapidgzipError( "Truncated LZ4 frame header" );
    }
    std::vector<std::uint8_t> descriptor( descriptorSize + 1 );
    preadExactly( file, descriptor.data(), descriptor.size(), begin + 4 );
    const auto expectedHC = descriptor.back();
    const auto actualHC = static_cast<std::uint8_t>(
        ( xxhash32( descriptor.data(), descriptorSize ) >> 8U ) & 0xFFU );
    if ( expectedHC != actualHC ) {
        throw ChecksumError( "LZ4 frame header checksum mismatch" );
    }
    if ( contentSizePresent ) {
        std::uint64_t contentSize = 0;
        for ( unsigned i = 0; i < 8; ++i ) {
            contentSize |= static_cast<std::uint64_t>( descriptor[2 + i] ) << ( 8U * i );
        }
        frame.contentSize = contentSize;
        frame.contentSizeKnown = true;
    }

    auto position = begin + 4 + descriptorSize + 1;
    while ( true ) {
        if ( position + 4 > fileSize ) {
            throw RapidgzipError( "Truncated LZ4 frame (missing EndMark)" );
        }
        std::uint8_t headerBytes[4];
        preadExactly( file, headerBytes, sizeof( headerBytes ), position );
        const auto blockHeader = readLE32( headerBytes );
        position += 4;
        if ( blockHeader == 0 ) {
            break;  /* EndMark */
        }
        Lz4Block block;
        block.storedUncompressed = ( blockHeader & 0x80000000U ) != 0;
        block.dataSize = blockHeader & 0x7FFFFFFFU;
        block.dataBegin = position;
        block.hasChecksum = blockChecksums;
        block.maxDecompressedSize = blockMaxSize;
        if ( block.dataSize > blockMaxSize ) {
            throw RapidgzipError( "LZ4 block exceeds the frame's max block size" );
        }
        position += block.dataSize + ( blockChecksums ? 4 : 0 );
        if ( position > fileSize ) {
            throw RapidgzipError( "Truncated LZ4 block" );
        }
        frame.blocks.push_back( block );
    }
    if ( frame.hasContentChecksum ) {
        if ( position + 4 > fileSize ) {
            throw RapidgzipError( "Truncated LZ4 frame (missing content checksum)" );
        }
        std::uint8_t checksumBytes[4];
        preadExactly( file, checksumBytes, sizeof( checksumBytes ), position );
        frame.contentChecksum = readLE32( checksumBytes );
        position += 4;
    }
    frame.end = position;
    return frame;
}

/**
 * The one LZ4 block body: verify the block's xxhash32 when it carries one,
 * then append the stored bytes, or decode with the last @p history bytes of
 * @p out as match history (0 for independent blocks).
 */
inline void
decodeLz4Block( const FileReader& file,
                const Lz4Block& block,
                std::vector<std::uint8_t>& out,
                std::size_t history )
{
    std::vector<std::uint8_t> compressed( block.dataSize + ( block.hasChecksum ? 4 : 0 ) );
    preadExactly( file, compressed.data(), compressed.size(), block.dataBegin );
    if ( block.hasChecksum
         && ( readLE32( compressed.data() + block.dataSize ) != xxhash32( compressed.data(), block.dataSize ) ) ) {
        throw ChecksumError( "LZ4 block checksum mismatch" );
    }
    if ( block.storedUncompressed ) {
        out.insert( out.end(), compressed.begin(),
                    compressed.begin() + static_cast<std::ptrdiff_t>( block.dataSize ) );
        return;
    }
    lz4DecompressBlock( { compressed.data(), block.dataSize }, out, history, block.maxDecompressedSize );
}

/**
 * Decode and verify one whole frame: its blocks in order, linked blocks
 * with up to 64 KiB of the frame's earlier output as history, then the
 * content size and content checksum when the header records them. The
 * backend's frame units and salvage both run this.
 */
[[nodiscard]] inline std::vector<std::uint8_t>
decodeLz4Frame( const FileReader& file, const Lz4Frame& frame )
{
    std::vector<std::uint8_t> output;
    for ( const auto& block : frame.blocks ) {
        decodeLz4Block( file, block, output,
                        frame.independentBlocks ? 0 : std::min<std::size_t>( output.size(), 64 * KiB ) );
    }
    if ( frame.contentSizeKnown && ( output.size() != frame.contentSize ) ) {
        throw RapidgzipError( "LZ4 frame content size mismatch" );
    }
    if ( frame.hasContentChecksum
         && ( xxhash32( output.data(), output.size() ) != frame.contentChecksum ) ) {
        throw ChecksumError( "LZ4 content checksum mismatch" );
    }
    return output;
}

/**
 * LZ4 frame-format reader on the from-scratch block codec. The frame walk
 * is pure header arithmetic (block sizes are explicit), so the whole
 * stream is segmented without decompressing a byte. When every frame has
 * the B.Indep flag and a content size, every block is a unit of the chunked
 * reader, verified against its own block checksum on the worker that
 * decodes it, and the sweep checks each frame's content checksum as its
 * last byte passes. Otherwise (matches reaching into the previous block)
 * every frame is one unit, decoded and verified whole by decodeLz4Frame().
 */
class Lz4Decompressor final : public FrameDecompressor
{
public:
    explicit Lz4Decompressor( std::unique_ptr<FileReader> file,
                              ChunkFetcherConfiguration configuration = {} ) :
        FrameDecompressor( std::move( file ), configuration )
    {
        parseFrames();
        /* Blockwise parallelism needs every frame independent AND sized:
         * the sweep's checksum walk finds frame boundaries by content size.
         * Our writer always produces this profile. */
        if ( !m_frames.empty()
             && std::all_of( m_frames.begin(), m_frames.end(), [] ( const Lz4Frame& frame ) {
                    return frame.independentBlocks && frame.contentSizeKnown;
                } ) ) {
            publishBlocks();
        } else {
            publishFrames();
        }
    }

    [[nodiscard]] Format
    format() const noexcept override
    {
        return Format::LZ4;
    }

private:
    void
    parseFrames()
    {
        const auto fileSize = m_file->size();
        std::size_t offset = 0;
        while ( offset < fileSize ) {
            if ( offset + 4 > fileSize ) {
                throw RapidgzipError( "Truncated LZ4 stream (dangling bytes after last frame)" );
            }
            if ( const auto skippableEnd = skippableFrameEnd( *m_file, offset ) ) {
                offset = *skippableEnd;
                continue;
            }
            m_frames.push_back( parseLz4Frame( *m_file, offset ) );
            offset = m_frames.back().end;
        }
    }

    void
    publishBlocks()
    {
        auto blocks = std::make_shared<std::vector<Lz4Block> >();
        for ( const auto& frame : m_frames ) {
            blocks->insert( blocks->end(), frame.blocks.begin(), frame.blocks.end() );
        }
        std::vector<Unit> units;
        units.reserve( blocks->size() );
        for ( const auto& block : *blocks ) {
            units.push_back( { block.dataBegin * 8,
                               ( block.dataBegin + block.dataSize + ( block.hasChecksum ? 4 : 0 ) ) * 8,
                               0 } );
        }
        publishUnits( units, [blocks] ( const FileReader& file, std::size_t index,
                                        std::vector<std::uint8_t>& out ) {
            decodeLz4Block( file, ( *blocks )[index], out, /* history */ 0 );
        }, /* independent */ true );
    }

    void
    publishFrames()
    {
        auto frames = std::make_shared<const std::vector<Lz4Frame> >( m_frames );
        std::vector<Unit> units;
        for ( const auto& frame : m_frames ) {
            units.push_back( { frame.begin * 8, frame.end * 8, 0 } );
        }
        publishUnits( units, [frames] ( const FileReader& file, std::size_t index,
                                        std::vector<std::uint8_t>& out ) {
            const auto output = decodeLz4Frame( file, ( *frames )[index] );
            out.insert( out.end(), output.begin(), output.end() );
        }, /* independent */ false );
    }

    /** The block table's sweep also checks every frame's content size and
     * content checksum: chunks cut across frames, so each frame's hash is
     * accumulated as its bytes pass and checked at its last byte. Frame
     * units verify themselves in decodeLz4Frame(). */
    std::size_t
    sweep( const Sink& sink ) override
    {
        if ( !parallelizable() ) {
            return FrameDecompressor::sweep( sink );
        }
        std::size_t frameCursor = 0;
        Xxh32Streamer hasher;
        std::size_t hashedInFrame = 0;
        return m_chunks.sweep( [&] ( std::size_t, const DecodedChunk& chunk ) {
            BufferView data{ chunk.data.data(), chunk.data.size() };
            while ( frameCursor < m_frames.size() ) {
                const auto& frame = m_frames[frameCursor];
                const auto take = std::min<std::size_t>( data.size(), frame.contentSize - hashedInFrame );
                if ( frame.hasContentChecksum ) {
                    hasher.update( data.data(), take );
                }
                hashedInFrame += take;
                data = data.subView( take, data.size() - take );
                if ( hashedInFrame < frame.contentSize ) {
                    break;  /* chunk exhausted mid-frame */
                }
                if ( frame.hasContentChecksum && ( hasher.digest() != frame.contentChecksum ) ) {
                    throw ChecksumError( "LZ4 content checksum mismatch" );
                }
                hasher = Xxh32Streamer();
                hashedInFrame = 0;
                ++frameCursor;
            }
            if ( !data.empty() || ( chunk.reachedStreamEnd && ( frameCursor < m_frames.size() ) ) ) {
                throw RapidgzipError( "LZ4 frame content size mismatch" );
            }
            if ( sink ) {
                sink( { chunk.data.data(), chunk.data.size() } );
            }
            return true;
        } );
    }

    std::vector<Lz4Frame> m_frames;
};

}  // namespace rapidgzip::formats
