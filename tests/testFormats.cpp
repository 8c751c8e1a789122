/**
 * Unit tests for the format-dispatch layer (src/formats/): magic-byte
 * detection, the XXH32 implementation against the specification vectors,
 * the from-scratch LZ4 block codec's edge cases, frame walking and seek
 * tables, bzip2 synthetic single-block streams, the Decompressor
 * interface (decompress/size/readAt/exportIndex) per backend, the chunked
 * reader under every backend, every backend's index export and import
 * through the interface, and concurrent range reads on one decompressor of
 * every layout. The randomized cross-format differential lives in
 * testDifferential.cpp.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/ChunkedReader.hpp"
#include "formats/Decompressor.hpp"
#include "formats/Format.hpp"
#include "formats/Formats.hpp"
#include "formats/Lz4Codec.hpp"
#include "formats/Lz4Writer.hpp"
#include "formats/XxHash32.hpp"
#include "gzip/BgzfWriter.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "index/IndexSerializer.hpp"
#include "io/MemoryFileReader.hpp"
#include "telemetry/Registry.hpp"
#include "telemetry/Telemetry.hpp"
#include "workloads/DataGenerators.hpp"

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
#include "formats/ZstdDecompressor.hpp"
#include "formats/ZstdWriter.hpp"
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
#include "formats/Bzip2Decompressor.hpp"
#include "formats/Bzip2Writer.hpp"
#endif

#include "TestHelpers.hpp"

using namespace rapidgzip;
using formats::Format;

namespace {

void
testDetectFormat()
{
    const auto detect = [] ( std::vector<std::uint8_t> bytes ) {
        return formats::detectFormat( { bytes.data(), bytes.size() } );
    };
    REQUIRE( detect( { 0x1F, 0x8B, 0x08, 0x00 } ) == Format::GZIP );
    REQUIRE( detect( { 0x1F, 0x8B } ) == Format::GZIP );
    REQUIRE( detect( { 0x28, 0xB5, 0x2F, 0xFD } ) == Format::ZSTD );
    REQUIRE( detect( { 0x5E, 0x2A, 0x4D, 0x18 } ) == Format::ZSTD );  /* skippable */
    REQUIRE( detect( { 0x04, 0x22, 0x4D, 0x18 } ) == Format::LZ4 );
    REQUIRE( detect( { 'B', 'Z', 'h', '9' } ) == Format::BZIP2 );
    REQUIRE( detect( { 'B', 'Z', 'h', '1' } ) == Format::BZIP2 );
    REQUIRE( detect( { 'B', 'Z', 'h', '0' } ) == Format::UNKNOWN );
    REQUIRE( detect( { 'B', 'Z', 'x', '9' } ) == Format::UNKNOWN );
    REQUIRE( detect( {} ) == Format::UNKNOWN );
    REQUIRE( detect( { 0x1F } ) == Format::UNKNOWN );
    REQUIRE( detect( { 0x00, 0x00, 0x00, 0x00 } ) == Format::UNKNOWN );

    /* Dispatch on unknown magic throws, distinguishably. */
    REQUIRE_THROWS_AS(
        (void)formats::makeDecompressor(
            std::make_unique<MemoryFileReader>( std::vector<std::uint8_t>( 64, 0x42 ) ) ),
        RapidgzipError );

    /* Leading SKIPPABLE frames are shared by the zstd and lz4 frame
     * formats: file-level detection must walk past them and let the first
     * DATA frame decide (an lz4 file opening with skippable metadata must
     * NOT route to zstd). */
    {
        const auto payload = workloads::base64Data( 4 * KiB, 0x51C1 );
        std::vector<std::uint8_t> lz4File;
        const std::vector<std::uint8_t> metadata{ 'm', 'e', 't', 'a' };
        formats::Lz4Writer::writeSkippableFrame( lz4File, { metadata.data(), metadata.size() } );
        formats::Lz4Writer::writeFrame( lz4File, { payload.data(), payload.size() } );
        {
            MemoryFileReader reader( lz4File );
            REQUIRE( formats::detectFormat( reader ) == Format::LZ4 );
        }
        /* ...and the routed backend actually decodes it. */
        auto decompressor = formats::makeDecompressor(
            std::make_unique<MemoryFileReader>( lz4File ) );
        REQUIRE( decompressor->format() == Format::LZ4 );
        std::vector<std::uint8_t> decoded;
        (void)decompressor->decompress( [&decoded] ( BufferView view ) {
            decoded.insert( decoded.end(), view.begin(), view.end() );
        } );
        REQUIRE( decoded == payload );

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
        std::vector<std::uint8_t> zstdFile;
        formats::Lz4Writer::writeSkippableFrame( zstdFile, { metadata.data(), metadata.size() } );
        const auto zstdFrames = formats::writeZstdFrames( { payload.data(), payload.size() } );
        zstdFile.insert( zstdFile.end(), zstdFrames.begin(), zstdFrames.end() );
        MemoryFileReader zstdReader( zstdFile );
        REQUIRE( formats::detectFormat( zstdReader ) == Format::ZSTD );
#endif
    }
}

void
testXxHash32()
{
    /* Specification test vectors. */
    REQUIRE( formats::xxhash32( "", 0 ) == 0x02CC5D05U );
    REQUIRE( formats::xxhash32( "a", 1 ) == 0x550D7456U );
    REQUIRE( formats::xxhash32( "abc", 3 ) == 0x32D153FFU );

    /* Streamer ≡ one-shot for every split of a 4 KiB buffer sample. */
    const auto data = workloads::randomData( 4 * KiB, 0x77AA );
    const auto oneShot = formats::xxhash32( data.data(), data.size() );
    for ( const std::size_t split : { std::size_t( 0 ), std::size_t( 1 ), std::size_t( 15 ),
                                      std::size_t( 16 ), std::size_t( 17 ),
                                      std::size_t( 1000 ), data.size() } ) {
        formats::Xxh32Streamer streamer;
        streamer.update( data.data(), split );
        streamer.update( data.data() + split, data.size() - split );
        REQUIRE( streamer.digest() == oneShot );
    }
    /* Byte-by-byte feed. */
    formats::Xxh32Streamer streamer;
    for ( const auto byte : data ) {
        streamer.update( &byte, 1 );
    }
    REQUIRE( streamer.digest() == oneShot );
}

void
testLz4BlockCodec()
{
    /* Round trips across shapes: empty, tiny, runs, incompressible. */
    for ( const auto& input : { std::vector<std::uint8_t>{},
                                std::vector<std::uint8_t>{ 'x' },
                                std::vector<std::uint8_t>( 12, 'a' ),
                                std::vector<std::uint8_t>( 13, 'a' ),
                                std::vector<std::uint8_t>( 1000, 'r' ),
                                workloads::randomData( 70 * KiB, 1 ),
                                workloads::runsData( 70 * KiB, 2 ),
                                workloads::lzBoundaryData( 70 * KiB, 3 ) } ) {
        const auto block = formats::lz4CompressBlock( { input.data(), input.size() } );
        std::vector<std::uint8_t> decoded;
        formats::lz4DecompressBlock( { block.data(), block.size() }, decoded, 0, input.size() );
        REQUIRE( decoded == input );
    }

    /* Malformed blocks must throw, never crash or read out of bounds. */
    std::vector<std::uint8_t> out;
    /* Zero offset. */
    const std::vector<std::uint8_t> zeroOffset = { 0x10, 'a', 0x00, 0x00, 0x00 };
    REQUIRE_THROWS_AS( formats::lz4DecompressBlock( { zeroOffset.data(), zeroOffset.size() },
                                                    out, 0, 1024 ),
                       RapidgzipError );
    /* Offset beyond history. */
    out.clear();
    const std::vector<std::uint8_t> farOffset = { 0x10, 'a', 0xFF, 0x00, 0x00 };
    REQUIRE_THROWS_AS( formats::lz4DecompressBlock( { farOffset.data(), farOffset.size() },
                                                    out, 0, 1024 ),
                       RapidgzipError );
    /* Literal run past the end of the block. */
    out.clear();
    const std::vector<std::uint8_t> shortLiterals = { 0xF0, 0xFF };
    REQUIRE_THROWS_AS( formats::lz4DecompressBlock( { shortLiterals.data(),
                                                      shortLiterals.size() },
                                                    out, 0, 1024 ),
                       RapidgzipError );
    /* Output bound enforced (match expanding past maxOutput). */
    out.clear();
    const std::vector<std::uint8_t> expander = { 0x1F, 'a', 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0x00 };
    REQUIRE_THROWS_AS( formats::lz4DecompressBlock( { expander.data(), expander.size() },
                                                    out, 0, 64 ),
                       RapidgzipError );
    /* Empty input. */
    out.clear();
    REQUIRE_THROWS_AS( formats::lz4DecompressBlock( {}, out, 0, 64 ), RapidgzipError );

    /* History (linked-block) decoding: a match reaching into prior output. */
    out.assign( { 'h', 'i', 's', 't' } );
    /* token: 0 literals, matchlen 4; offset 4 → copies "hist". */
    const std::vector<std::uint8_t> linked = { 0x00, 0x04, 0x00, 0x00 };
    formats::lz4DecompressBlock( { linked.data(), linked.size() }, out, 4, 1024 );
    REQUIRE( ( out == std::vector<std::uint8_t>{ 'h', 'i', 's', 't', 'h', 'i', 's', 't' } ) );
}

void
testLz4FrameReader()
{
    const auto data = workloads::lzBoundaryData( 300 * KiB, 0xF00D );
    const BufferView span{ data.data(), data.size() };
    const auto file = formats::writeLz4( span, formats::Lz4Writer::BlockMaxSize::KIB64 );

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;
    formats::Lz4Decompressor decompressor( std::make_unique<MemoryFileReader>( file ),
                                           configuration );
    REQUIRE( decompressor.format() == Format::LZ4 );
    REQUIRE( decompressor.parallelizable() );
    REQUIRE( decompressor.size() == data.size() );
    REQUIRE( !decompressor.exportIndex().checkpoints.empty() );

    /* readAt against ground truth at scattered offsets incl. boundaries. */
    std::uint8_t probe[512];
    for ( const std::size_t offset : { std::size_t( 0 ), std::size_t( 64 * KiB - 3 ),
                                       std::size_t( 64 * KiB ), data.size() / 2,
                                       data.size() - 100 } ) {
        const auto got = decompressor.readAt( offset, probe, sizeof( probe ) );
        REQUIRE( got == std::min<std::size_t>( sizeof( probe ), data.size() - offset ) );
        REQUIRE( std::equal( probe, probe + got, data.begin()
                             + static_cast<std::ptrdiff_t>( offset ) ) );
    }
    REQUIRE( decompressor.readAt( data.size(), probe, sizeof( probe ) ) == 0 );

    /* A flipped payload byte must be caught by the block checksum. */
    auto corrupt = file;
    corrupt[corrupt.size() / 2] ^= 0x01U;
    formats::Lz4Decompressor corruptReader( std::make_unique<MemoryFileReader>( corrupt ),
                                            configuration );
    REQUIRE_THROWS_AS( (void)corruptReader.decompress( {} ), RapidgzipError );

    /* A flipped header-descriptor byte must be caught by HC. */
    auto corruptHeader = file;
    corruptHeader[4] ^= 0x04U;  /* toggle C.Checksum flag in FLG */
    REQUIRE_THROWS_AS( formats::Lz4Decompressor( std::make_unique<MemoryFileReader>(
                                                     corruptHeader ), configuration ),
                       RapidgzipError );
}

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
void
testZstdFrameReader()
{
    const auto data = workloads::base64Data( 300 * KiB, 0x5EED );
    const BufferView span{ data.data(), data.size() };

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;

    /* Seekable layout: table adopted, O(1) offsets (no decode for size). */
    {
        const auto file = formats::writeZstdSeekable( span, 3, 64 * KiB );
        formats::ZstdDecompressor decompressor( std::make_unique<MemoryFileReader>( file ),
                                                configuration );
        REQUIRE( decompressor.hasSeekTable() );
        REQUIRE( decompressor.parallelizable() );
        REQUIRE( decompressor.size() == data.size() );
        REQUIRE( decompressor.exportIndex().checkpoints.size() >= 2 );

        std::uint8_t probe[512];
        const auto got = decompressor.readAt( 123457, probe, sizeof( probe ) );
        REQUIRE( got == sizeof( probe ) );
        REQUIRE( std::equal( probe, probe + got, data.begin() + 123457 ) );
    }

    /* Plain multi-frame: sizes from frame headers, still parallel. */
    {
        const auto file = formats::writeZstdFrames( span, 3, 64 * KiB );
        formats::ZstdDecompressor decompressor( std::make_unique<MemoryFileReader>( file ),
                                                configuration );
        REQUIRE( !decompressor.hasSeekTable() );
        REQUIRE( decompressor.parallelizable() );
        REQUIRE( decompressor.size() == data.size() );
    }

    /* A flipped byte inside a frame: zstd's internal block structure (and
     * the exact-size check) must reject it on decode. */
    {
        auto corrupt = formats::writeZstdSeekable( span, 3, 64 * KiB );
        corrupt[100] ^= 0xFFU;
        formats::ZstdDecompressor decompressor( std::make_unique<MemoryFileReader>( corrupt ),
                                                configuration );
        REQUIRE_THROWS_AS( (void)decompressor.decompress( {} ), RapidgzipError );
    }
}
#endif

#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
void
testBzip2Reader()
{
    const auto data = workloads::fastqData( 300 * KiB, 0xB217 );
    const BufferView span{ data.data(), data.size() };
    const auto file = formats::writeBzip2( span, 1 );

    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;
    formats::Bzip2Decompressor decompressor( std::make_unique<MemoryFileReader>( file ),
                                             configuration );
    REQUIRE( decompressor.parallelizable() );
    REQUIRE( decompressor.blockCount() >= 2 );  /* level 1 → ~100 kB blocks */
    REQUIRE( decompressor.size() == data.size() );

    std::uint8_t probe[512];
    const auto offset = data.size() / 2;
    const auto got = decompressor.readAt( offset, probe, sizeof( probe ) );
    REQUIRE( got == sizeof( probe ) );
    REQUIRE( std::equal( probe, probe + got,
                         data.begin() + static_cast<std::ptrdiff_t>( offset ) ) );

    /* Seek points start at the first block magic, right after "BZh1". */
    {
        const auto points = decompressor.exportIndex().checkpoints;
        REQUIRE( !points.empty() );
        REQUIRE( points.front().compressedOffsetBits == 32 );
    }

    /* Damaged block payload: the parallel path's vendor decode or the CRC
     * chain must reject it, and the serial authority also throws — either
     * way decompress() must NOT return wrong bytes. */
    {
        auto corrupt = file;
        corrupt[corrupt.size() / 2] ^= 0x10U;
        formats::Bzip2Decompressor corruptReader(
            std::make_unique<MemoryFileReader>( corrupt ), configuration );
        try {
            std::vector<std::uint8_t> decoded;
            (void)corruptReader.decompress( [&decoded] ( BufferView view ) {
                decoded.insert( decoded.end(), view.begin(), view.end() );
            } );
            /* No exception is only acceptable if the flip landed in dead
             * padding bits and the output is still byte-exact. */
            REQUIRE( decoded == data );
        } catch ( const RapidgzipError& ) {
            /* expected: rejection */
        }
    }
}
#endif

void
testChunkedReader()
{
    /* Synthetic table: chunk i decodes to i + 1 bytes of value i, its size
     * unknown until the sweep that the first read runs. */
    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    const auto file = std::make_shared<const MemoryFileReader>( std::vector<std::uint8_t>( 10 * 1000, 0 ) );
    std::vector<index::Checkpoint> checkpoints;
    for ( std::size_t i = 0; i < 10; ++i ) {
        checkpoints.push_back( { i * 1000 * 8, 0 } );
    }
    const auto decoder = [] ( const FileReader&, std::size_t i ) {
        DecodedChunk chunk;
        chunk.data.assign( i + 1, static_cast<std::uint8_t>( i ) );
        return chunk;
    };
    const auto makeReader = [&] () {
        auto self = std::make_shared<ChunkedReader*>( nullptr );
        auto reader = std::make_unique<ChunkedReader>( file, configuration, [self] () {
            (void)( *self )->sweep( [] ( std::size_t, const DecodedChunk& ) { return true; } );
        } );
        *self = reader.get();
        reader->publish( checkpoints, std::nullopt, decoder );
        return reader;
    };

    const auto reader = makeReader();
    std::vector<std::uint8_t> all( 60 );
    REQUIRE( reader->readAt( 0, all.data(), all.size() ) == 55 );  /* 1 + 2 + ... + 10 */
    REQUIRE( reader->size() == 55 );
    std::size_t cursor = 0;
    for ( std::size_t i = 0; i < 10; ++i ) {
        for ( std::size_t j = 0; j < i + 1; ++j ) {
            REQUIRE( all[cursor++] == static_cast<std::uint8_t>( i ) );
        }
    }
    std::uint8_t probe[8];
    REQUIRE( reader->readAt( 54, probe, 8 ) == 1 );  /* last byte only */
    REQUIRE( probe[0] == 9 );
    REQUIRE( reader->readAt( 55, probe, 8 ) == 0 );

    /* Spans are lent out of the chunks they cross. */
    std::vector<OwnedSpan> spans;
    REQUIRE( reader->readSpansAt( 1, 5, spans ) == 5 );  /* bytes 1 1 2 2 2 */
    REQUIRE( spans.size() == 2 );
    REQUIRE( ( spans[0].size == 2 ) && spans[0].borrowed && ( spans[0].data[1] == 1 ) );
    REQUIRE( ( spans[1].size == 3 ) && ( spans[1].data[2] == 2 ) );

    /* Adopted offsets: the swept table round-trips; an understated chunk is
     * accepted where no sizes are known yet and caught by the walk, which
     * checks every chunk against its span in both directions. */
    const auto swept = reader->table().checkpoints;
    {
        const auto fresh = makeReader();
        const auto lock = fresh->lock();
        REQUIRE( !fresh->adopt( std::vector<index::Checkpoint>( swept.begin() + 1, swept.end() ), 55 ) );
        REQUIRE( fresh->adopt( swept, 55 ) );
        REQUIRE( fresh->adopt( swept, 55 ) );  /* a sized table agrees */
        auto shifted = swept;
        shifted[3].uncompressedOffset -= 1;
        REQUIRE( !fresh->adopt( shifted, 55 ) );  /* ...or refuses */
    }
    {
        auto understated = swept;
        understated[3].uncompressedOffset -= 1;
        const auto fresh = makeReader();
        {
            const auto lock = fresh->lock();
            REQUIRE( fresh->adopt( understated, 55 ) );
        }
        REQUIRE_THROWS_AS( (void)fresh->readAt( understated[3].uncompressedOffset, probe, 1 ),
                           RapidgzipError );
        REQUIRE_THROWS_AS( (void)fresh->readAt( 3, probe, 1 ), RapidgzipError );
    }
}

/** @p data as LZ4 frames of @p frameSize bytes each, flagged as linked
 * blocks (FLG bit 5 clear), so the reader decodes every frame whole as one
 * unit. */
[[nodiscard]] std::vector<std::uint8_t>
writeLinkedLz4( BufferView data, std::size_t frameSize )
{
    std::vector<std::uint8_t> file;
    for ( std::size_t offset = 0; offset < data.size(); offset += frameSize ) {
        const auto descriptor = file.size() + 4;  /* after the magic */
        formats::Lz4Writer::writeFrame( file, data.subView( offset, frameSize ),
                                        formats::Lz4Writer::BlockMaxSize::KIB64 );
        file[descriptor] &= static_cast<std::uint8_t>( ~( 1U << 5U ) );
        /* FLG, BD and the 8-byte content size; the header checksum follows. */
        file[descriptor + 10] = static_cast<std::uint8_t>( ( formats::xxhash32( &file[descriptor], 10 ) >> 8U ) & 0xFFU );
    }
    return file;
}

/** Reads at scattered offsets, chunk boundaries and the end equal @p data. */
void
requireReadsMatch( formats::Decompressor& decompressor, const std::vector<std::uint8_t>& data )
{
    std::vector<std::uint8_t> probe( 5000 );
    for ( const auto offset : { std::size_t( 0 ), std::size_t( 64 * KiB - 7 ), data.size() / 3,
                                data.size() / 2 + 777, data.size() - 100 } ) {
        const auto got = decompressor.readAt( offset, probe.data(), probe.size() );
        REQUIRE( got == std::min( probe.size(), data.size() - offset ) );
        REQUIRE( std::memcmp( probe.data(), data.data() + offset, got ) == 0 );
    }
    REQUIRE( decompressor.readAt( data.size(), probe.data(), probe.size() ) == 0 );
}

/**
 * Every backend's index crosses the Decompressor interface: exported,
 * serialized, parsed and imported into a fresh decompressor over the same
 * bytes, it answers size() without a decode and the reads match. An index
 * tagged with another format, one exported from another archive of the
 * same format, and for a frame backend one with a checkpoint where no chunk
 * starts are refused with RapidgzipError, and the reader still reads its
 * own bytes.
 */
void
testIndexCrossesInterface()
{
    const auto data = workloads::silesiaLikeData( 1 * MiB, 0x1DE7 );
    const auto otherData = workloads::base64Data( 256 * KiB, 0x07E4 );
    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;
    const auto open = [&configuration] ( const std::vector<std::uint8_t>& file ) {
        return formats::makeDecompressor( std::make_unique<MemoryFileReader>( file ), configuration );
    };

    /* Every layout has at least two units: one unit exports no checkpoints. */
    using Writer = std::function<std::vector<std::uint8_t>( BufferView )>;
    const std::vector<std::pair<const char*, Writer> > layouts = {
        { "gzip plain", [] ( BufferView span ) { return compressGzipLike( span ); } },
        { "gzip pigz-like", [] ( BufferView span ) { return compressPigzLike( span, 6, 64 * KiB ); } },
        { "gzip BGZF", [] ( BufferView span ) { return writeBgzf( span ); } },
        { "lz4 independent blocks", [] ( BufferView span ) {
              return formats::writeLz4( span, formats::Lz4Writer::BlockMaxSize::KIB64 );
          } },
        { "lz4 linked blocks", [] ( BufferView span ) { return writeLinkedLz4( span, 128 * KiB ); } },
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
        { "zstd seekable", [] ( BufferView span ) { return formats::writeZstdSeekable( span, 3, 64 * KiB ); } },
        { "zstd multi-frame", [] ( BufferView span ) { return formats::writeZstdFrames( span, 3, 64 * KiB ); } },
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
        { "bzip2", [] ( BufferView span ) { return formats::writeBzip2( span, 1 ); } },
#endif
    };

    const auto& registry = telemetry::Registry::instance();
    for ( const auto& [name, write] : layouts ) {
        std::fprintf( stderr, "index round trip: %s\n", name );
        const auto file = write( { data.data(), data.size() } );
        GzipIndex exported;
        {
            const auto source = open( file );
            exported = source->exportIndex();
            REQUIRE( exported.formatTag == static_cast<std::uint8_t>( source->format() ) );
        }
        REQUIRE( exported.compressedSizeBytes == file.size() );
        REQUIRE( exported.uncompressedSizeBytes == data.size() );
        REQUIRE( exported.checkpoints.size() >= 2 );

        const auto serialized = index::serializeIndex( exported );
        const auto parsed = index::deserializeIndex( BufferView( serialized.data(), serialized.size() ) );
        const auto imported = open( file );
        telemetry::setMetricsEnabled( true );
        const auto issuedBefore = registry.counterTotal( "rapidgzip_prefetch_issued_total" );
        const auto onDemandBefore = registry.counterTotal( "rapidgzip_chunk_on_demand_decodes_total" );
        imported->importIndex( parsed );
        REQUIRE( imported->size() == data.size() );
        const auto issued = registry.counterTotal( "rapidgzip_prefetch_issued_total" ) - issuedBefore;
        const auto onDemand = registry.counterTotal( "rapidgzip_chunk_on_demand_decodes_total" ) - onDemandBefore;
        telemetry::setMetricsEnabled( false );
        REQUIRE( issued == 0 );
        REQUIRE( onDemand == 0 );
        requireReadsMatch( *imported, data );

        /* The same index tagged lz4 (bzip2 for an lz4 reader): only the tag
         * differs. */
        const auto refusing = open( file );
        auto relabeled = parsed;
        relabeled.formatTag = static_cast<std::uint8_t>( refusing->format() == Format::LZ4 ? Format::BZIP2
                                                                                             : Format::LZ4 );
        REQUIRE_THROWS_AS( refusing->importIndex( relabeled ), RapidgzipError );
        /* A frame backend's table comes from its container scan, so a
         * checkpoint where no chunk starts is refused; gzip's chunk decode
         * finds that at the read. */
        if ( refusing->format() != Format::GZIP ) {
            auto moved = parsed;
            moved.checkpoints[1].compressedOffsetBits += 8;
            REQUIRE_THROWS_AS( refusing->importIndex( moved ), RapidgzipError );
        }
        const auto otherFile = write( { otherData.data(), otherData.size() } );
        REQUIRE_THROWS_AS( refusing->importIndex( open( otherFile )->exportIndex() ), RapidgzipError );
        requireReadsMatch( *refusing, data );
    }
}

/**
 * Range reads from many threads on one decompressor of every layout the
 * writers produce, with no size() call first: the first reads race to
 * establish the chunk table, and every read must match the source.
 */
void
testConcurrentReads()
{
    const auto data = workloads::silesiaLikeData( 512 * KiB, 0xC0C0 );
    const BufferView span{ data.data(), data.size() };
    ChunkFetcherConfiguration configuration;
    configuration.parallelism = 2;
    configuration.chunkSizeBytes = 64 * KiB;

    const auto open = [&] ( const std::vector<std::uint8_t>& file ) {
        return formats::makeDecompressor( std::make_unique<MemoryFileReader>( file ), configuration );
    };
    std::vector<std::pair<const char*, std::unique_ptr<formats::Decompressor> > > layouts;
    layouts.emplace_back( "gzip plain", open( compressGzipLike( span ) ) );
    layouts.emplace_back( "gzip pigz-like", open( compressPigzLike( span, 6, 64 * KiB ) ) );
    layouts.emplace_back( "gzip BGZF", open( writeBgzf( span ) ) );
    {
        const auto file = compressGzipLike( span );
        ParallelGzipReader swept( std::make_unique<MemoryFileReader>( file ), configuration );
        REQUIRE( swept.decompressAll() == data.size() );
        auto imported = std::make_unique<ParallelGzipReader>( std::make_unique<MemoryFileReader>( file ),
                                                              configuration );
        imported->importIndex( swept.exportIndex() );
        layouts.emplace_back( "gzip imported index", std::move( imported ) );
    }
    layouts.emplace_back( "lz4", open( formats::writeLz4( span, formats::Lz4Writer::BlockMaxSize::KIB64 ) ) );
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
    layouts.emplace_back( "zstd seekable", open( formats::writeZstdSeekable( span, 3, 64 * KiB ) ) );
    layouts.emplace_back( "zstd multi-frame", open( formats::writeZstdFrames( span, 3, 64 * KiB ) ) );
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
    layouts.emplace_back( "bzip2", open( formats::writeBzip2( span, 1 ) ) );
#endif

    constexpr std::size_t THREADS = 4;
    constexpr std::size_t READS = 200;
    constexpr std::size_t MAX_READ = 4 * KiB;
    for ( auto& [name, decompressor] : layouts ) {
        std::atomic<std::size_t> mismatches{ 0 };
        std::vector<std::thread> threads;
        for ( std::size_t t = 0; t < THREADS; ++t ) {
            threads.emplace_back( [&, t] () {
                Xorshift64 random( 0x5EED0 + t );
                std::vector<std::uint8_t> buffer( MAX_READ );
                for ( std::size_t i = 0; i < READS; ++i ) {
                    const auto offset = random.below( data.size() );
                    const auto length = 1 + random.below( MAX_READ );
                    const auto expected = std::min( length, data.size() - offset );
                    try {
                        std::size_t got = 0;
                        if ( i % 2 == 0 ) {
                            got = decompressor->readAt( offset, buffer.data(), length );
                        } else {
                            std::vector<OwnedSpan> spans;
                            got = decompressor->readSpansAt( offset, length, spans );
                            std::size_t position = 0;
                            for ( const auto& lent : spans ) {
                                std::memcpy( buffer.data() + position, lent.data, lent.size );
                                position += lent.size;
                            }
                        }
                        if ( ( got != expected )
                             || ( std::memcmp( buffer.data(), data.data() + offset, got ) != 0 ) ) {
                            ++mismatches;
                        }
                    } catch ( const std::exception& ) {
                        ++mismatches;
                    }
                }
            } );
        }
        for ( auto& thread : threads ) {
            thread.join();
        }
        if ( mismatches.load() != 0 ) {
            std::fprintf( stderr, "concurrent reads of %s: %zu mismatches\n", name, mismatches.load() );
        }
        REQUIRE( mismatches.load() == 0 );
    }
}

}  // namespace

int
main()
{
    testDetectFormat();
    testXxHash32();
    testLz4BlockCodec();
    testLz4FrameReader();
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
    testZstdFrameReader();
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
    testBzip2Reader();
#endif
    testChunkedReader();
    testIndexCrossesInterface();
    testConcurrentReads();
    return rapidgzip::test::finish( "testFormats" );
}
