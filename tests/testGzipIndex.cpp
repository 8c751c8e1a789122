/**
 * index subsystem: WindowMap compression and sparse windows, native and
 * gztool on-disk formats (incl. a golden-file byte layout check), and the
 * end-to-end acceptance property — build an index on a NO-flush-point gzip
 * file, serialize, reload, and seek()/read() must return bytes identical to
 * the serial decoder while dispatching parallel chunk decodes from
 * checkpoints (never the serial single-chunk fallback). The sparse-window
 * mask scans one window of a row's markers and equals a full scan.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/ParallelGzipReader.hpp"
#include "gzip/BgzfWriter.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "index/BgzfIndex.hpp"
#include "index/GzipIndex.hpp"
#include "index/IndexBuilder.hpp"
#include "index/IndexSerializer.hpp"
#include "index/WindowMap.hpp"
#include "io/MemoryFileReader.hpp"
#include "simd/Crc32.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

using namespace rapidgzip;

namespace {

ChunkFetcherConfiguration
config( std::size_t parallelism = 4, std::size_t chunkSize = 256 * KiB )
{
    ChunkFetcherConfiguration result;
    result.parallelism = parallelism;
    result.chunkSizeBytes = chunkSize;
    return result;
}

void
testWindowMap()
{
    index::WindowMap windows;
    REQUIRE( windows.get( 123 ).empty() );
    REQUIRE( !windows.contains( 123 ) );

    /* Compressible window: round-trips and actually shrinks. */
    std::vector<std::uint8_t> window( deflate::WINDOW_SIZE );
    for ( std::size_t i = 0; i < window.size(); ++i ) {
        window[i] = static_cast<std::uint8_t>( ( i / 64 ) & 0xFFU );
    }
    windows.insert( 1001, { window.data(), window.size() } );
    REQUIRE( windows.contains( 1001 ) );
    REQUIRE( windows.get( 1001 ) == window );
    REQUIRE( windows.compressedBytes() < window.size() / 4 );

    /* Short window (near stream start). */
    std::vector<std::uint8_t> shortWindow( 100, 0x42 );
    windows.insert( 2002, { shortWindow.data(), shortWindow.size() } );
    REQUIRE( windows.get( 2002 ) == shortWindow );
    REQUIRE( windows.size() == 2 );

    /* Empty insert erases. */
    windows.insert( 1001, {} );
    REQUIRE( !windows.contains( 1001 ) );

    /* Sparse insert: unreferenced bytes come back zeroed, referenced ones
     * intact. Marker offset 0 = oldest window byte. */
    std::vector<bool> referenced( deflate::WINDOW_SIZE, false );
    referenced[0] = true;
    referenced[deflate::WINDOW_SIZE - 1] = true;
    referenced[777] = true;
    std::vector<std::uint8_t> full( deflate::WINDOW_SIZE, 0xAB );
    windows.insertSparse( 3003, { full.data(), full.size() }, referenced );
    const auto sparse = windows.get( 3003 );
    REQUIRE( sparse.size() == full.size() );
    REQUIRE( sparse[0] == 0xAB );
    REQUIRE( sparse[777] == 0xAB );
    REQUIRE( sparse[deflate::WINDOW_SIZE - 1] == 0xAB );
    REQUIRE( sparse[1] == 0 );
    REQUIRE( sparse[778] == 0 );

    /* Sparse with a SHORT window: its first byte is marker offset
     * WINDOW_SIZE - size. */
    std::vector<bool> shortReferenced( deflate::WINDOW_SIZE, false );
    shortReferenced[deflate::WINDOW_SIZE - 100] = true;  /* first byte of the window */
    windows.insertSparse( 4004, { shortWindow.data(), shortWindow.size() }, shortReferenced );
    const auto sparseShort = windows.get( 4004 );
    REQUIRE( sparseShort.size() == shortWindow.size() );
    REQUIRE( sparseShort[0] == 0x42 );
    REQUIRE( sparseShort[1] == 0 );

    /* --- sparse-insert NEGATIVE cases: marker-referenced bytes must NOT
     * be zeroed, whatever the referenced-set shape -------------------- */

    /* Every byte referenced → insertSparse must be byte-identical to a
     * plain insert: zeroing anything here would corrupt later decodes. */
    {
        const auto pattern = [] ( std::size_t i ) {
            return static_cast<std::uint8_t>( ( i * 131 + 7 ) & 0xFFU );
        };
        std::vector<std::uint8_t> full( deflate::WINDOW_SIZE );
        for ( std::size_t i = 0; i < full.size(); ++i ) {
            full[i] = pattern( i );
        }
        const std::vector<bool> allReferenced( deflate::WINDOW_SIZE, true );
        windows.insertSparse( 5005, { full.data(), full.size() }, allReferenced );
        REQUIRE( windows.get( 5005 ) == full );
    }

    /* Nothing referenced (empty vector AND all-false vector) → everything
     * zeroed, but the SIZE must stay intact (a resume point's window length
     * is load-bearing even when its bytes are not). */
    {
        std::vector<std::uint8_t> full( deflate::WINDOW_SIZE, 0xCD );
        windows.insertSparse( 6006, { full.data(), full.size() }, {} );
        const auto zeroed = windows.get( 6006 );
        REQUIRE( zeroed.size() == full.size() );
        REQUIRE( std::count( zeroed.begin(), zeroed.end(), 0 )
                 == static_cast<std::ptrdiff_t>( zeroed.size() ) );
        windows.insertSparse( 6006, { full.data(), full.size() },
                              std::vector<bool>( deflate::WINDOW_SIZE, false ) );
        REQUIRE( windows.get( 6006 ).size() == full.size() );
    }

    /* Short-window offset mapping boundaries: for a 100-byte window the
     * valid marker offsets are [WINDOW_SIZE - 100, WINDOW_SIZE); a mark
     * JUST BELOW the window start must not bleed into window[0], and the
     * last byte maps to WINDOW_SIZE - 1 exactly. Off-by-one in `missing`
     * would zero a referenced byte — the corruption class this pins. */
    {
        std::vector<std::uint8_t> window100( 100, 0x42 );
        std::vector<bool> marks( deflate::WINDOW_SIZE, false );
        marks[deflate::WINDOW_SIZE - 101] = true;  /* before the window: no effect */
        marks[deflate::WINDOW_SIZE - 1] = true;    /* last byte: preserved */
        windows.insertSparse( 7007, { window100.data(), window100.size() }, marks );
        const auto mapped = windows.get( 7007 );
        REQUIRE( mapped.size() == 100 );
        REQUIRE( mapped[0] == 0 );     /* only the out-of-window mark pointed near it */
        REQUIRE( mapped[99] == 0x42 ); /* referenced — must NOT be zeroed */
        for ( std::size_t i = 1; i < 99; ++i ) {
            REQUIRE( mapped[i] == 0 );
        }
    }

    /* Re-inserting sparsely over an existing full window must OVERWRITE:
     * stale bytes from the previous insert may not resurface. */
    {
        std::vector<std::uint8_t> full( deflate::WINDOW_SIZE, 0x11 );
        windows.insert( 8008, { full.data(), full.size() } );
        std::vector<bool> one( deflate::WINDOW_SIZE, false );
        one[0] = true;
        std::vector<std::uint8_t> replacement( deflate::WINDOW_SIZE, 0x22 );
        windows.insertSparse( 8008, { replacement.data(), replacement.size() }, one );
        const auto overwritten = windows.get( 8008 );
        REQUIRE( overwritten[0] == 0x22 );
        REQUIRE( overwritten[1] == 0 );  /* NOT 0x11 from the stale window */
    }
}

[[nodiscard]] GzipIndex
makeHandmadeIndex()
{
    GzipIndex index;
    index.compressedSizeBytes = 1 * MiB;
    index.uncompressedSizeBytes = 2000;
    index.checkpoints.push_back( { 80, 0 } );      /* byte 10, aligned, no window */
    index.checkpoints.push_back( { 163, 1000 } );  /* bit-granular, window */
    std::vector<std::uint8_t> window( 512 );
    for ( std::size_t i = 0; i < window.size(); ++i ) {
        window[i] = static_cast<std::uint8_t>( i & 0xFFU );
    }
    index.windows.insert( 163, { window.data(), window.size() } );
    return index;
}

void
testNativeSerialization()
{
    const auto index = makeHandmadeIndex();
    const auto serialized = index::serializeIndex( index );
    const auto loaded = index::deserializeIndex( { serialized.data(), serialized.size() } );
    REQUIRE( loaded == index );

    /* Also loadable through the io layer. */
    MemoryFileReader file( serialized );
    REQUIRE( index::deserializeIndex( file ) == index );

    /* Corruption must be rejected, not crash or round down. */
    auto badMagic = serialized;
    badMagic[0] ^= 0xFFU;
    REQUIRE_THROWS_AS( (void)index::deserializeIndex( { badMagic.data(), badMagic.size() } ),
                       RapidgzipError );

    auto truncated = serialized;
    truncated.resize( truncated.size() - 7 );
    REQUIRE_THROWS_AS( (void)index::deserializeIndex( { truncated.data(), truncated.size() } ),
                       RapidgzipError );

    auto corruptWindow = serialized;
    corruptWindow[corruptWindow.size() - 4] ^= 0xFFU;  /* inside the zlib window data */
    REQUIRE_THROWS_AS(
        (void)index::deserializeIndex( { corruptWindow.data(), corruptWindow.size() } ),
        RapidgzipError );
}

void
testGztoolFormat()
{
    /* Round trip: gztool does not record the compressed size (becomes 0 =
     * unknown) but must preserve everything else, windows included. */
    const auto index = makeHandmadeIndex();
    const auto exported = index::exportGztoolIndex( index );
    const auto imported = index::importGztoolIndex( { exported.data(), exported.size() } );
    REQUIRE( imported.compressedSizeBytes == 0 );
    REQUIRE( imported.uncompressedSizeBytes == index.uncompressedSizeBytes );
    REQUIRE( imported.checkpoints == index.checkpoints );
    REQUIRE( imported.windows.get( 163 ) == index.windows.get( 163 ) );
    REQUIRE( !imported.windows.contains( 80 ) );

    /* Golden file: the exact byte layout of a windowless index, locking the
     * gztool-compatible format (big-endian; bits counted from the byte end;
     * have and size both written; trailing uncompressed size). */
    GzipIndex windowless;
    windowless.compressedSizeBytes = 4096;
    windowless.uncompressedSizeBytes = 2000;            /* 0x7D0 */
    windowless.checkpoints.push_back( { 80, 0 } );      /* in = 10, bits = 0 */
    windowless.checkpoints.push_back( { 163, 1000 } );  /* in = 21, bits = 5; out = 0x3E8 */
    const std::vector<std::uint8_t> golden = {
        /* leading zero u64 */   0, 0, 0, 0, 0, 0, 0, 0,
        /* magic */              'g', 'z', 'i', 'p', 'i', 'n', 'd', 'x',
        /* have */               0, 0, 0, 0, 0, 0, 0, 2,
        /* size */               0, 0, 0, 0, 0, 0, 0, 2,
        /* point 1: out */       0, 0, 0, 0, 0, 0, 0, 0,
        /*          in */        0, 0, 0, 0, 0, 0, 0, 10,
        /*          bits */      0, 0, 0, 0,
        /*          winsize */   0, 0, 0, 0,
        /* point 2: out */       0, 0, 0, 0, 0, 0, 0x03, 0xE8,
        /*          in */        0, 0, 0, 0, 0, 0, 0, 21,
        /*          bits */      0, 0, 0, 5,
        /*          winsize */   0, 0, 0, 0,
        /* uncompressed size */  0, 0, 0, 0, 0, 0, 0x07, 0xD0,
    };
    REQUIRE( index::exportGztoolIndex( windowless ) == golden );
    const auto goldenImported = index::importGztoolIndex( { golden.data(), golden.size() } );
    REQUIRE( goldenImported.checkpoints == windowless.checkpoints );
    REQUIRE( goldenImported.uncompressedSizeBytes == windowless.uncompressedSizeBytes );

    /* Rejects non-gztool data. */
    auto bad = golden;
    bad[8] = 'G';
    REQUIRE_THROWS_AS( (void)index::importGztoolIndex( { bad.data(), bad.size() } ),
                       RapidgzipError );
}

/** Import @p index into a fresh reader over @p compressed and verify
 * seek()/read() reproduce @p original byte-identically, with chunked
 * (indexed) dispatch rather than a serial single chunk. */
void
checkIndexedRandomAccess( const std::vector<std::uint8_t>& original,
                          const std::vector<std::uint8_t>& compressed,
                          const GzipIndex& index,
                          std::uint64_t seed )
{
    ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ), config() );
    reader.importIndex( index );
    REQUIRE( reader.chunkCount() == index.checkpoints.size() );
    REQUIRE( reader.size() == original.size() );

    /* Full sequential read: byte-identical to the original. */
    std::vector<std::uint8_t> full( original.size() + 16 );
    const auto got = reader.read( full.data(), full.size() );
    full.resize( got );
    REQUIRE( full == original );

    /* Random seeks. */
    Xorshift64 random( seed );
    std::vector<std::uint8_t> buffer( 80000 );
    for ( int i = 0; i < 15; ++i ) {
        const auto offset = random.below( original.size() );
        const auto length = 1 + random.below( buffer.size() );
        reader.seek( offset );
        const auto count = reader.read( buffer.data(), length );
        REQUIRE( count == std::min( length, original.size() - offset ) );
        REQUIRE( std::memcmp( buffer.data(), original.data() + offset, count ) == 0 );
    }
}

void
testNoFlushEndToEnd( const std::vector<std::uint8_t>& data,
                     std::uint64_t seed,
                     bool expectBitGranular = true )
{
    const auto plain = compressGzipLike( { data.data(), data.size() }, 6 );
    const auto serial = decompressWithZlib( { plain.data(), plain.size() } );
    REQUIRE( serial == data );

    /* Build: the first reader's sweep harvests the index as a byproduct. */
    GzipIndex index;
    {
        ParallelGzipReader builder( std::make_unique<MemoryFileReader>( plain ), config() );
        index = builder.exportIndex();
        REQUIRE( builder.chunkCount() == index.checkpoints.size() );
    }
    REQUIRE( index.checkpoints.size() > 1 );
    REQUIRE( index.compressedSizeBytes == plain.size() );
    REQUIRE( index.uncompressedSizeBytes == data.size() );
    /* The whole point: checkpoints land on arbitrary BIT offsets, which the
     * old byte-offset index could not express. (Incompressible data is the
     * exception — stored blocks are byte-aligned by construction.) */
    if ( expectBitGranular ) {
        bool anyBitGranular = false;
        for ( const auto& checkpoint : index.checkpoints ) {
            anyBitGranular = anyBitGranular || ( checkpoint.compressedOffsetBits % 8 != 0 );
        }
        REQUIRE( anyBitGranular );
    }
    /* Every mid-stream checkpoint carries its window. */
    REQUIRE( index.windows.size() >= index.checkpoints.size() - 1 );

    /* Serialize → load → random access, through both on-disk formats. */
    const auto native = index::serializeIndex( index );
    checkIndexedRandomAccess( data, plain,
                              index::deserializeIndex( { native.data(), native.size() } ),
                              seed );

    const auto gztool = index::exportGztoolIndex( index );
    checkIndexedRandomAccess( data, plain,
                              index::importGztoolIndex( { gztool.data(), gztool.size() } ),
                              seed + 1 );
}

/**
 * The index a cold decompressAll() harvests from a no-flush silesia-like
 * stream — sparse windows included — survives both on-disk formats
 * losslessly: the compressed windows come back byte-identical, and a fresh
 * reader importing either file reads the whole stream to the CRC32 in the
 * gzip footer.
 */
void
testSweepIndexRoundTrip()
{
    const auto data = workloads::silesiaLikeData( 4 * MiB + 99, 0x5EED );
    const auto plain = compressGzipLike( { data.data(), data.size() }, 6 );
    const auto* const footer = plain.data() + plain.size() - 8;
    const auto footerCrc = static_cast<std::uint32_t>( footer[0] )
                           | ( static_cast<std::uint32_t>( footer[1] ) << 8U )
                           | ( static_cast<std::uint32_t>( footer[2] ) << 16U )
                           | ( static_cast<std::uint32_t>( footer[3] ) << 24U );

    GzipIndex index;
    {
        ParallelGzipReader builder( std::make_unique<MemoryFileReader>( plain ), config() );
        REQUIRE( builder.decompressAll() == data.size() );
        index = builder.exportIndex();
        REQUIRE( builder.chunkCount() == index.checkpoints.size() );
    }
    REQUIRE( index.checkpoints.size() > 1 );
    REQUIRE( index.windows.size() >= index.checkpoints.size() - 1 );

    const auto readCrc = [&data, &plain] ( const GzipIndex& imported ) {
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( plain ), config() );
        reader.importIndex( imported );
        REQUIRE( reader.chunkCount() == imported.checkpoints.size() );
        std::vector<std::uint8_t> buffer( 1 * MiB );
        std::uint32_t crc = 0;
        std::size_t total = 0;
        while ( const auto got = reader.read( buffer.data(), buffer.size() ) ) {
            crc = simd::crc32( crc, buffer.data(), got );
            total += got;
        }
        REQUIRE( total == data.size() );
        return crc;
    };

    const auto native = index::serializeIndex( index );
    const auto loaded = index::deserializeIndex( { native.data(), native.size() } );
    REQUIRE( loaded.windows == index.windows );
    REQUIRE( readCrc( loaded ) == footerCrc );

    const auto gztool = index::exportGztoolIndex( index );
    const auto imported = index::importGztoolIndex( { gztool.data(), gztool.size() } );
    REQUIRE( imported.windows == index.windows );
    REQUIRE( readCrc( imported ) == footerCrc );
}

/**
 * referencedWindowOffsets() scans only the first window of a stage-one
 * row's 16-bit symbols, where every marker value is created. Against a full
 * scan of `marked`, kept here as the reference, it gives the same mask on
 * every guessed row of base64, silesia-like and FASTQ data at 128 KiB and
 * 1 MiB rows, rows whose markers outlive the first window included.
 */
void
testOneWindowMarkerScan()
{
    std::size_t rows = 0;
    std::size_t rowsWithLaterMarkers = 0;
    for ( const auto& data : { workloads::base64Data( 4 * MiB, 0x5CA1 ), workloads::silesiaLikeData( 4 * MiB, 0x5CA2 ),
                               workloads::fastqData( 4 * MiB, 0x5CA3 ) } ) {
        const auto gz = compressGzipLike( { data.data(), data.size() }, 6 );
        const MemoryFileReader file( gz );
        for ( const auto rowBytes : { 128 * KiB, 1 * MiB } ) {
            for ( auto start = rowBytes; start < gz.size(); start += rowBytes ) {
                const auto chunk = GzipChunkFetcher::decodeChunkFromGuess( file, start * 8, ( start + rowBytes ) * 8,
                                                                           GzipChunkFetcher::NO_LIMIT );
                if ( chunk.guess->error != Error::NONE ) {
                    continue;
                }
                const auto& marked = chunk.guess->firstSegment.marked;
                std::vector<bool> reference( deflate::WINDOW_SIZE, false );
                bool laterMarker = false;
                for ( std::size_t i = 0; i < marked.size(); ++i ) {
                    if ( marked[i] >= deflate::MARKER_BASE ) {
                        reference[marked[i] - deflate::MARKER_BASE] = true;
                        laterMarker = laterMarker || ( i >= deflate::WINDOW_SIZE );
                    }
                }
                REQUIRE( index::IndexBuilder::referencedWindowOffsets( chunk.guess->firstSegment ) == reference );
                ++rows;
                rowsWithLaterMarkers += laterMarker ? 1 : 0;
            }
        }
    }
    std::printf( "  one-window marker scan: %zu rows, %zu with markers past the first window\n", rows,
                 rowsWithLaterMarkers );
    REQUIRE( rows >= 30 );
    REQUIRE( rowsWithLaterMarkers >= 10 );
}

}  // namespace

int
main()
{
    testWindowMap();
    testOneWindowMarkerScan();
    testNativeSerialization();
    testGztoolFormat();
    testSweepIndexRoundTrip();

    /* The acceptance workloads: no-flush-point gzip across data shapes —
     * quickly-dying backward pointers (base64), long-lived markers
     * (silesia-like, which exercises sparse windows and marker
     * replacement), records (FASTQ), and stored blocks (incompressible). */
    testNoFlushEndToEnd( workloads::base64Data( 4 * MiB + 333, 0xBA5E ), 0x51 );
    testNoFlushEndToEnd( workloads::silesiaLikeData( 4 * MiB + 77, 0x51E5 ), 0x52 );
    testNoFlushEndToEnd( workloads::fastqData( 3 * MiB + 11, 0xFA57 ), 0x53 );
    testNoFlushEndToEnd( workloads::randomData( 2 * MiB + 7, 0x707 ), 0x54,
                         /* stored blocks are byte-aligned */ false );

    /* Multi-member no-flush stream: the index spans members. */
    {
        const auto first = workloads::base64Data( 2 * MiB, 0xAA );
        const auto second = workloads::fastqData( 1 * MiB + 99, 0xBB );
        auto data = first;
        data.insert( data.end(), second.begin(), second.end() );
        auto compressed = compressGzipLike( { first.data(), first.size() }, 6 );
        const auto tail = compressGzipLike( { second.data(), second.size() }, 6 );
        compressed.insert( compressed.end(), tail.begin(), tail.end() );

        ParallelGzipReader builder( std::make_unique<MemoryFileReader>( compressed ),
                                    config() );
        const auto index = builder.exportIndex();
        REQUIRE( index.uncompressedSizeBytes == data.size() );
        checkIndexedRandomAccess( data, compressed, index, 0x55 );
    }

    /* Full-flush (pigz) streams: byte-aligned windowless checkpoints ride
     * the same serialize/import path. */
    {
        const auto data = workloads::base64Data( 3 * MiB, 0xCC );
        const auto compressed = compressPigzLike( { data.data(), data.size() }, 6,
                                                  128 * KiB );
        ParallelGzipReader builder( std::make_unique<MemoryFileReader>( compressed ),
                                    config() );
        const auto index = builder.exportIndex();
        REQUIRE( index.checkpoints.size() > 1 );
        REQUIRE( index.windows.size() == 0 );
        const auto serialized = index::serializeIndex( index );
        checkIndexedRandomAccess(
            data, compressed,
            index::deserializeIndex( { serialized.data(), serialized.size() } ), 0x56 );
    }

    /* BGZF: the BC-field scan yields the index without any decoding. */
    {
        const auto data = workloads::silesiaLikeData( 3 * MiB + 123, 0xDD );
        const auto compressed = writeBgzf( { data.data(), data.size() }, 6 );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config() );
        const auto bgzfIndex = index::tryBuildBgzfIndex( MemoryFileReader( compressed ),
                                                         config().chunkSizeBytes );
        REQUIRE( bgzfIndex.has_value() );
        REQUIRE( reader.chunkCount() == bgzfIndex->checkpoints.size() );
        REQUIRE( reader.decompressAll() == data.size() );
        const auto index = reader.exportIndex();
        REQUIRE( index.windows.size() == 0 );
        checkIndexedRandomAccess( data, compressed, index, 0x57 );
    }

    /* A stale index (built for different data) must surface as an error on
     * access, never as silently wrong bytes. */
    {
        const auto data = workloads::base64Data( 2 * MiB, 0xEE );
        const auto plain = compressGzipLike( { data.data(), data.size() }, 6 );
        ParallelGzipReader builder( std::make_unique<MemoryFileReader>( plain ), config() );
        auto index = builder.exportIndex();
        REQUIRE( index.checkpoints.size() > 1 );
        /* Skew a mid-stream checkpoint onto a non-boundary bit. */
        auto& victim = index.checkpoints[index.checkpoints.size() / 2];
        const auto window = index.windows.get( victim.compressedOffsetBits );
        victim.compressedOffsetBits += 1;
        index.windows.insert( victim.compressedOffsetBits, { window.data(), window.size() } );

        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( plain ), config() );
        reader.importIndex( index );
        std::vector<std::uint8_t> buffer( 4096 );
        reader.seek( index.checkpoints[index.checkpoints.size() / 2].uncompressedOffset );
        REQUIRE_THROWS_AS( (void)reader.read( buffer.data(), buffer.size() ),
                           RapidgzipError );
    }

    return rapidgzip::test::finish( "testGzipIndex" );
}
