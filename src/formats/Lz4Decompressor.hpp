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
#include "../core/FrameParallelReader.hpp"
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
    /** From the header when C.Size is set, else measured by a serial
     * sweep (0 until known for content-size-less frames). */
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
 * backend's serial path and salvage both run this.
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
 * stream is segmented without decompressing a byte. Frames with the
 * B.Indep flag decode block-parallel through FrameParallelReader — every
 * block is an independent unit, verified against its own block checksum on
 * the worker that decodes it. Linked-block frames (matches reach into the
 * previous block) take the verified serial path. Content checksums, when
 * present, are verified on every full decompress() in either mode.
 */
class Lz4Decompressor final : public Decompressor
{
public:
    explicit Lz4Decompressor( std::unique_ptr<FileReader> file,
                              ChunkFetcherConfiguration configuration = {} ) :
        m_file( ensureSharedFileReader( std::move( file ) ) ),
        m_configuration( configuration )
    {
        parseFrames();
        if ( m_allIndependent ) {
            buildParallelReader();
        }
    }

    [[nodiscard]] Format
    format() const noexcept override
    {
        return Format::LZ4;
    }

    [[nodiscard]] bool
    parallelizable() const noexcept override
    {
        return m_allIndependent;
    }

    std::size_t
    decompress( const Sink& sink ) override
    {
        if ( !m_allIndependent ) {
            return serialDecompress( sink );  /* verifies checksums per frame */
        }

        /* Parallel mode: sink spans are chunk-sized and cut across frames,
         * so each frame's content hash is accumulated streamingly and
         * checked as its last byte passes through. Every frame's content
         * size is known here (parallel mode requires it). */
        std::size_t frameCursor = 0;
        Xxh32Streamer hasher;
        std::size_t hashedInFrame = 0;

        const auto verifyingSink = [&] ( BufferView span ) {
            auto data = span;
            while ( frameCursor < m_frames.size() ) {
                const auto& frame = m_frames[frameCursor];
                const auto take = std::min<std::size_t>( data.size(),
                                                         frame.contentSize - hashedInFrame );
                if ( frame.hasContentChecksum ) {
                    hasher.update( data.data(), take );
                }
                hashedInFrame += take;
                if ( hashedInFrame == frame.contentSize ) {
                    if ( frame.hasContentChecksum
                         && ( hasher.digest() != frame.contentChecksum ) ) {
                        throw ChecksumError( "LZ4 content checksum mismatch" );
                    }
                    hasher = Xxh32Streamer();
                    hashedInFrame = 0;
                    ++frameCursor;
                } else if ( take == data.size() ) {
                    break;  /* span exhausted mid-frame */
                }
                data = data.subView( take, data.size() - take );
            }
            if ( sink ) {
                sink( span );
            }
        };

        const auto total = m_parallel->decompress( verifyingSink );
        std::size_t expectedTotal = 0;
        for ( const auto& frame : m_frames ) {
            expectedTotal += frame.contentSize;
        }
        if ( total != expectedTotal ) {
            throw RapidgzipError( "LZ4 frame content size mismatch" );
        }
        return total;
    }

    [[nodiscard]] std::size_t
    size() override
    {
        if ( m_allIndependent ) {
            return m_parallel->size();
        }
        ensureSerialSizesKnown();
        std::size_t total = 0;
        for ( const auto& frame : m_frames ) {
            total += frame.contentSize;
        }
        return total;
    }

    [[nodiscard]] std::size_t
    readAt( std::size_t uncompressedOffset, std::uint8_t* buffer, std::size_t size ) override
    {
        if ( m_allIndependent ) {
            return m_parallel->readAt( uncompressedOffset, buffer, size );
        }
        /* Linked blocks: no random access without decoding the frame prefix.
         * Stream and window (stopping once filled) — correctness over speed
         * on the fallback path. */
        return readRangeViaStreaming(
            [this] ( const Sink& sink ) { return serialDecompress( sink ); },
            uncompressedOffset, buffer, size );
    }

    [[nodiscard]] std::size_t
    readSpansAt( std::size_t uncompressedOffset,
                 std::size_t size,
                 std::vector<OwnedSpan>& spans ) override
    {
        if ( m_allIndependent ) {
            return m_parallel->readSpansAt( uncompressedOffset, size, spans );
        }
        return Decompressor::readSpansAt( uncompressedOffset, size, spans );
    }

    [[nodiscard]] std::vector<index::Checkpoint>
    seekPoints() override
    {
        return m_allIndependent ? m_parallel->chunkSeekPoints() : std::vector<index::Checkpoint>{};
    }

    [[nodiscard]] bool
    importSeekPoints( const std::vector<index::Checkpoint>& seekPoints,
                      std::size_t uncompressedSizeBytes ) override
    {
        return m_allIndependent && m_parallel->adoptChunkOffsets( seekPoints, uncompressedSizeBytes );
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
        /* Blockwise parallelism needs every frame independent AND sized:
         * the verifying sink walks frame boundaries by content size. Our
         * writer always produces this profile; foreign files without it
         * take the verified serial path. */
        m_allIndependent = !m_frames.empty();
        for ( const auto& frame : m_frames ) {
            m_allIndependent = m_allIndependent
                               && frame.independentBlocks && frame.contentSizeKnown;
        }
    }

    void
    buildParallelReader()
    {
        auto blocks = std::make_shared<std::vector<Lz4Block> >();
        for ( const auto& frame : m_frames ) {
            blocks->insert( blocks->end(), frame.blocks.begin(), frame.blocks.end() );
        }
        std::vector<CompressedFrame> units;
        units.reserve( blocks->size() );
        for ( const auto& block : *blocks ) {
            CompressedFrame unit;
            unit.compressedBeginBits = block.dataBegin * 8;
            unit.compressedEndBits = ( block.dataBegin + block.dataSize
                                       + ( block.hasChecksum ? 4 : 0 ) ) * 8;
            units.push_back( unit );
        }
        auto decoder = [blocks] ( const FileReader& file, const CompressedFrame& /* unit */,
                                  std::size_t index, std::vector<std::uint8_t>& out ) {
            decodeLz4Block( file, ( *blocks )[index], out, /* history */ 0 );
        };
        m_parallel = std::make_unique<FrameParallelReader>(
            std::shared_ptr<const FileReader>( m_file->clone().release() ),
            std::move( units ), std::move( decoder ), m_configuration );
    }

    /** Serial path: frames in order, each decoded and verified whole.
     * Flushes at frame ends so the sink's spans respect frame boundaries
     * (the checksum plan depends on that). */
    std::size_t
    serialDecompress( const Sink& sink )
    {
        std::size_t total = 0;
        for ( auto& frame : m_frames ) {
            const auto output = decodeLz4Frame( *m_file, frame );
            frame.contentSize = output.size();
            frame.contentSizeKnown = true;
            total += output.size();
            if ( sink ) {
                sink( { output.data(), output.size() } );
            }
        }
        return total;
    }

    void
    ensureSerialSizesKnown()
    {
        for ( const auto& frame : m_frames ) {
            if ( !frame.contentSizeKnown ) {
                (void)serialDecompress( {} );
                return;
            }
        }
    }

    std::unique_ptr<SharedFileReader> m_file;
    ChunkFetcherConfiguration m_configuration;

    std::vector<Lz4Frame> m_frames;
    bool m_allIndependent{ false };
    std::unique_ptr<FrameParallelReader> m_parallel;
};

}  // namespace rapidgzip::formats
