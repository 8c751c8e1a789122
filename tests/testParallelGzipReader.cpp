/**
 * core layer: ParallelGzipReader must reproduce the serial decoder's output
 * exactly — decompressAll counts, random access reads, index export/import,
 * every prefetch strategy, multi-member streams, and single-chunk files
 * without any flush markers. A guessed chunk that starts inside an
 * incompressible stretch must bound its block search at the stored block it
 * decodes from.
 */

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "blockfinder/NonCompressedBlockFinder.hpp"
#include "core/ParallelGzipReader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "telemetry/Registry.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

using namespace rapidgzip;

namespace {

ChunkFetcherConfiguration
config( std::size_t parallelism, std::size_t chunkSize,
        ChunkFetcherConfiguration::Strategy strategy = ChunkFetcherConfiguration::Strategy::ADAPTIVE )
{
    ChunkFetcherConfiguration result;
    result.parallelism = parallelism;
    result.chunkSizeBytes = chunkSize;
    result.strategy = strategy;
    return result;
}

void
checkFullRead( const std::vector<std::uint8_t>& original,
               const std::vector<std::uint8_t>& compressed,
               const ChunkFetcherConfiguration& configuration )
{
    ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ), configuration );
    REQUIRE( reader.decompressAll() == original.size() );

    /* read() must return the exact bytes. */
    ParallelGzipReader byteReader( std::make_unique<MemoryFileReader>( compressed ),
                                   configuration );
    std::vector<std::uint8_t> reassembled( original.size() + 16 );
    const auto got = byteReader.read( reassembled.data(), reassembled.size() );
    reassembled.resize( got );
    REQUIRE( reassembled == original );
}

/**
 * A guess inside a run of stored blocks (an incompressible stretch of a
 * silesia-like file) must start its chunk at the next stored block and test
 * no Dynamic-header position past it: the bit-wise scan stops at the
 * byte-wise stored candidate instead of running on to the next Dynamic
 * header. The chunk must equal the serial decode from the stream start:
 * same start and end boundaries, same bytes.
 */
void
testGuessInsideStoredStretch()
{
    constexpr auto NO_LIMIT = std::numeric_limits<std::size_t>::max();
    const auto data = workloads::silesiaLikeData( 2 * MiB, 0x5707 );
    const auto gz = compressGzipLike( { data.data(), data.size() }, 6 );
    const MemoryFileReader file( gz );
    const auto deflateStartBit = parseGzipHeader( { gz.data(), gz.size() } ) * 8;

    /* A stored block of at least 8 KiB followed directly by another stored
     * block: the next block's 3 header bits and padding fill the byte after
     * the payload, and its LEN/NLEN pair follows. */
    const blockfinder::NonCompressedBlockFinder storedFinder;
    std::size_t storedBit = 0;
    for ( auto bit = deflateStartBit; storedBit == 0; ) {
        const auto lenBit = storedFinder.find( { gz.data(), gz.size() }, bit );
        REQUIRE( lenBit != blockfinder::NOT_FOUND );
        const auto lenByte = lenBit / 8;
        const auto length = static_cast<std::size_t>( gz[lenByte] | ( gz[lenByte + 1] << 8U ) );
        const auto next = lenByte + 4 + length + 1;
        if ( ( length >= 8 * KiB ) && ( next + 4 <= gz.size() ) && ( ( gz[next - 1] & 0b111U ) == 0 )
             && ( ( gz[next] ^ gz[next + 2] ) == 0xFF ) && ( ( gz[next + 1] ^ gz[next + 3] ) == 0xFF ) ) {
            storedBit = next * 8;
        }
        bit = lenBit + 8;
    }
    /* 256 bytes before the end of the first block's payload, off byte alignment. */
    const auto guessBit = storedBit - 8 - 256 * 8 - 5;
    const auto endBitGuess = guessBit + 256 * KiB * 8;

    auto& registry = telemetry::Registry::instance();
    telemetry::setMetricsEnabled( true );
    const auto testedBefore = registry.counterTotal( "rapidgzip_blockfinder_positions_tested_total" );
    auto chunk = GzipChunkFetcher::decodeChunkFromGuess( file, guessBit, endBitGuess, NO_LIMIT );
    const auto tested = registry.counterTotal( "rapidgzip_blockfinder_positions_tested_total" )
                        - testedBefore;
    telemetry::setMetricsEnabled( false );
    REQUIRE( chunk.error == Error::NONE );
    REQUIRE( chunk.startedAtStoredBlock );
    REQUIRE( chunk.decodedStartBit == storedBit );
    /* Every position up to and including the stored candidate, plus at most
     * one 48-position stride. An unbounded scan runs on through the second
     * block's payload to the next Dynamic header. */
    REQUIRE( tested <= storedBit - guessBit + 48 );

    /* Serial reference: decode from the stream start up to the second
     * block's header in the byte before its LEN, then on from there with the
     * propagated window to the first boundary at or past the end guess. */
    const auto prefix = GzipChunkFetcher::decodeChunkAtOffset( file, deflateStartBit, storedBit - 8,
                                                               NO_LIMIT, {} );
    REQUIRE( prefix.error == Error::NONE );
    REQUIRE( prefix.decodedEndBit == storedBit - 8 );
    std::vector<std::uint8_t> prefixBytes;
    deflate::resolveInto( prefix.data, {}, prefixBytes );
    REQUIRE( std::equal( prefixBytes.begin(), prefixBytes.end(), data.begin() ) );
    const auto windowSize = std::min<std::size_t>( prefixBytes.size(), deflate::WINDOW_SIZE );
    const BufferView window( prefixBytes.data() + prefixBytes.size() - windowSize, windowSize );
    const auto reference = GzipChunkFetcher::decodeChunkAtOffset( file, storedBit - 8, endBitGuess,
                                                                  NO_LIMIT, window );
    REQUIRE( reference.error == Error::NONE );
    REQUIRE( chunk.decodedEndBit == reference.decodedEndBit );

    std::vector<std::uint8_t> resolved;
    deflate::resolveInto( chunk.data, window, resolved );
    std::vector<std::uint8_t> expected;
    deflate::resolveInto( reference.data, window, expected );
    REQUIRE( !resolved.empty() );
    REQUIRE( resolved == expected );
    REQUIRE( prefixBytes.size() + resolved.size() <= data.size() );
    REQUIRE( std::equal( resolved.begin(), resolved.end(),
                         data.begin() + static_cast<std::ptrdiff_t>( prefixBytes.size() ) ) );
}

}  // namespace

int
main()
{
    const auto data = workloads::base64Data( 8 * MiB + 4321, 0xF00D );
    const auto compressed = compressPigzLike( { data.data(), data.size() }, 6, 128 * 1024 );

    /* All strategies, several parallelism/chunk-size combinations. */
    for ( const auto strategy : { ChunkFetcherConfiguration::Strategy::FIXED,
                                  ChunkFetcherConfiguration::Strategy::ADAPTIVE,
                                  ChunkFetcherConfiguration::Strategy::MULTI_STREAM } ) {
        checkFullRead( data, compressed, config( 4, 256 * 1024, strategy ) );
    }
    checkFullRead( data, compressed, config( 1, 64 * 1024 ) );
    checkFullRead( data, compressed, config( 8, 4 * MiB ) );

    /* Gzip-like stream without a single flush marker: the full-flush table
     * degenerates to one chunk, but decompressAll routes through the
     * two-stage pipeline and decodes in parallel anyway. Verify the actual
     * BYTES against the serial zlib decode (the chunk fetcher's CRC check
     * against the footer is cross-validated by the same comparison). */
    {
        const auto plain = compressGzipLike( { data.data(), data.size() }, 6 );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( plain ),
                                   config( 4, 1 * MiB ) );
        REQUIRE( reader.chunkCount() == 1 );
        REQUIRE( reader.decompressAll() == data.size() );

        const auto serial = decompressWithZlib( { plain.data(), plain.size() } );
        std::vector<std::uint8_t> parallel;
        MemoryFileReader file( plain );
        const auto deflateStart = parseGzipHeader( { plain.data(), plain.size() } );
        telemetry::setMetricsEnabled( true );
        const auto redecodesBefore =
            telemetry::Registry::instance().counterTotal( "rapidgzip_chunk_redecodes_total" );
        const auto member = GzipChunkFetcher::decompressMember( file, deflateStart,
                                                                /* parallelism */ 4,
                                                                /* chunk size */ 1 * MiB,
                                                                &parallel );
        telemetry::setMetricsEnabled( false );
        REQUIRE( member.chunkCount > 1 );
        /* Most chunks must come from the SPECULATIVE guessed-offset decode —
         * if the block finders regressed, every chunk would silently fall
         * back to the sequential re-decode and parallelism would be dead. */
        REQUIRE( member.redecodedChunks < member.chunkCount / 2 );
        /* The mis-stitch telemetry counter must agree with the member's own
         * tally — the live counter is what /metrics and dashboards see. */
        REQUIRE( telemetry::Registry::instance().counterTotal( "rapidgzip_chunk_redecodes_total" )
                 == redecodesBefore + member.redecodedChunks );
        REQUIRE( parallel == serial );
        REQUIRE( parallel == data );

        /* A flipped byte must be caught by the footer verification, not
         * returned as silently corrupt output. */
        auto corrupted = plain;
        corrupted[corrupted.size() / 2] ^= 0x10U;
        ParallelGzipReader corruptedReader( std::make_unique<MemoryFileReader>( corrupted ),
                                            config( 4, 1 * MiB ) );
        REQUIRE_THROWS_AS( (void)corruptedReader.decompressAll(), RapidgzipError );
    }

    /* Full-flush archives decode every chunk at an EXACT known offset, so
     * the mis-stitch re-decode path must never trigger: its telemetry
     * counter has to stay flat across a complete read. A drift here means
     * the chunk table or the stitcher regressed into speculative fallbacks
     * on the easy case. */
    {
        telemetry::setMetricsEnabled( true );
        const auto redecodesBefore =
            telemetry::Registry::instance().counterTotal( "rapidgzip_chunk_redecodes_total" );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE( reader.decompressAll() == data.size() );
        telemetry::setMetricsEnabled( false );
        REQUIRE( telemetry::Registry::instance().counterTotal( "rapidgzip_chunk_redecodes_total" )
                 == redecodesBefore );
    }

    /* Random access: seek + read against the reference data. */
    {
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE( reader.size() == data.size() );

        Xorshift64 random( 0xACCE55 );
        std::vector<std::uint8_t> buffer( 70000 );
        for ( int i = 0; i < 25; ++i ) {
            const auto offset = random.below( data.size() );
            const auto length = 1 + random.below( buffer.size() );
            reader.seek( offset );
            REQUIRE( reader.tell() == offset );
            const auto got = reader.read( buffer.data(), length );
            REQUIRE( got == std::min( length, data.size() - offset ) );
            REQUIRE( std::memcmp( buffer.data(), data.data() + offset, got ) == 0 );
        }

        /* Reads at and past the end. */
        reader.seek( data.size() );
        REQUIRE( reader.read( buffer.data(), buffer.size() ) == 0 );
        reader.seek( data.size() + 12345 );
        REQUIRE( reader.read( buffer.data(), buffer.size() ) == 0 );

        /* Sequential reads after a seek continue from tell(). */
        reader.seek( 1000 );
        REQUIRE( reader.read( buffer.data(), 100 ) == 100 );
        REQUIRE( reader.tell() == 1100 );
        REQUIRE( reader.read( buffer.data(), 100 ) == 100 );
        REQUIRE( std::memcmp( buffer.data(), data.data() + 1100, 100 ) == 0 );
    }

    /* Index export/import: same chunking, same bytes, discovery skipped. */
    {
        GzipIndex index;
        {
            ParallelGzipReader builder( std::make_unique<MemoryFileReader>( compressed ),
                                        config( 4, 256 * 1024 ) );
            index = builder.exportIndex();
        }
        REQUIRE( !index.empty() );
        REQUIRE( index.uncompressedSizeBytes == data.size() );
        REQUIRE( index.compressedSizeBytes == compressed.size() );
        REQUIRE( index.checkpoints.front().uncompressedOffset == 0 );
        /* Full-flush checkpoints are restart points: byte-aligned, windowless. */
        for ( const auto& checkpoint : index.checkpoints ) {
            REQUIRE( checkpoint.compressedOffsetBits % 8 == 0 );
        }
        REQUIRE( index.windows.size() == 0 );

        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * 1024 ) );
        reader.importIndex( index );
        REQUIRE( reader.decompressAll() == data.size() );

        ParallelGzipReader byteReader( std::make_unique<MemoryFileReader>( compressed ),
                                       config( 4, 256 * 1024 ) );
        byteReader.importIndex( index );
        std::vector<std::uint8_t> buffer( 50000 );
        byteReader.seek( data.size() / 2 );
        const auto got = byteReader.read( buffer.data(), buffer.size() );
        REQUIRE( got == buffer.size() );
        REQUIRE( std::memcmp( buffer.data(), data.data() + data.size() / 2, got ) == 0 );

        /* Importing a mismatched or inconsistent index is rejected. */
        GzipIndex wrong = index;
        wrong.compressedSizeBytes += 1;
        ParallelGzipReader rejecting( std::make_unique<MemoryFileReader>( compressed ),
                                      config( 2, 256 * 1024 ) );
        REQUIRE_THROWS_AS( rejecting.importIndex( wrong ), RapidgzipError );

        GzipIndex skewed = index;
        skewed.checkpoints.front().uncompressedOffset = 1;  /* must start at 0 */
        REQUIRE_THROWS_AS( rejecting.importIndex( skewed ), RapidgzipError );

        if ( index.checkpoints.size() > 1 ) {
            GzipIndex unsorted = index;
            unsorted.checkpoints[1].compressedOffsetBits =
                unsorted.checkpoints[0].compressedOffsetBits;  /* not increasing */
            REQUIRE_THROWS_AS( rejecting.importIndex( unsorted ), RapidgzipError );
        }
    }

    /* Trailing padding after the footer (tar/tape style) must not break
     * verification: the footer sits after the final Deflate byte, not at
     * the file end. */
    {
        auto padded = compressed;
        padded.insert( padded.end(), 512, 0 );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( padded ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE( reader.decompressAll() == data.size() );
    }

    /* Truncated streams must raise, not silently return a partial count —
     * on both the decompressAll and the read/size (offset discovery) path. */
    {
        auto truncated = compressed;
        truncated.resize( truncated.size() / 2 );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( truncated ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE_THROWS_AS( (void)reader.decompressAll(), RapidgzipError );

        ParallelGzipReader sizeReader( std::make_unique<MemoryFileReader>( truncated ),
                                       config( 4, 256 * 1024 ) );
        REQUIRE_THROWS_AS( (void)sizeReader.size(), RapidgzipError );
    }

    /* Fetcher statistics: a sequential sweep must mostly hit prefetches. */
    {
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * 1024,
                                           ChunkFetcherConfiguration::Strategy::FIXED ) );
        REQUIRE( reader.decompressAll() == data.size() );
        const auto& stats = reader.fetcherStatistics();
        REQUIRE( stats.prefetchDispatched > 0 );
        REQUIRE( stats.prefetchHits > 0 );
        REQUIRE( stats.onDemandDecodes >= 1 );
        REQUIRE( stats.prefetchHits + stats.onDemandDecodes >= reader.chunkCount() );
    }

    /* Multi-member stream (concatenated pigz members). */
    {
        const auto extra = workloads::fastqData( 2 * MiB, 0xFA57 );
        auto concatenated = compressPigzLike( { data.data(), data.size() }, 6, 256 * 1024 );
        const auto second = compressPigzLike( { extra.data(), extra.size() }, 6, 256 * 1024 );
        concatenated.insert( concatenated.end(), second.begin(), second.end() );

        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( concatenated ),
                                   config( 4, 512 * 1024 ) );
        REQUIRE( reader.decompressAll() == data.size() + extra.size() );

        auto expected = data;
        expected.insert( expected.end(), extra.begin(), extra.end() );
        ParallelGzipReader byteReader( std::make_unique<MemoryFileReader>( concatenated ),
                                       config( 4, 512 * 1024 ) );
        std::vector<std::uint8_t> reassembled( expected.size() );
        REQUIRE( byteReader.read( reassembled.data(), reassembled.size() ) == expected.size() );
        REQUIRE( reassembled == expected );
    }

    /* Incompressible data: stored blocks may contain fake sync markers; the
     * probe/merge/verify layers must still produce the exact stream. */
    {
        const auto noise = workloads::randomData( 4 * MiB, 0x707 );
        const auto compressedNoise = compressPigzLike( { noise.data(), noise.size() }, 6,
                                                       128 * 1024 );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressedNoise ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE( reader.decompressAll() == noise.size() );

        ParallelGzipReader byteReader( std::make_unique<MemoryFileReader>( compressedNoise ),
                                       config( 4, 256 * 1024 ) );
        std::vector<std::uint8_t> reassembled( noise.size() );
        REQUIRE( byteReader.read( reassembled.data(), reassembled.size() ) == noise.size() );
        REQUIRE( reassembled == noise );
    }

    /* setVerifyChecksums(false) still returns the right count. */
    {
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * 1024 ) );
        reader.setVerifyChecksums( false );
        REQUIRE( reader.decompressAll() == data.size() );
    }

    testGuessInsideStoredStretch();

    return rapidgzip::test::finish( "testParallelGzipReader" );
}
