/**
 * Current hot-path measurements — own translation unit, see
 * HotpathContracts.hpp.
 */

#include "CurrentHotpaths.hpp"

#include <algorithm>
#include <memory>

#include "bits/BitReader.hpp"
#include "blockfinder/DynamicBlockFinderRapid.hpp"
#include "core/ParallelGzipReader.hpp"
#include "deflate/DecodedData.hpp"
#include "deflate/DeflateDecoder.hpp"
#include "gzip/GzipHeader.hpp"
#include "io/MemoryFileReader.hpp"
#include "simd/Crc32.hpp"
#include "simd/ReplaceMarkers.hpp"

#include "BenchmarkHelpers.hpp"

namespace currentbench {

using namespace rapidgzip;

double
measureBitReaderBandwidth( BufferView data, unsigned bits, std::size_t repeats )
{
    volatile std::uint64_t sink = 0;
    const auto measurement = bench::measureBandwidth( data.size(), repeats, [&] () {
        BitReader reader( data.data(), data.size() );
        std::uint64_t sum = 0;
        /* One refill check per 4 reads — the decoder's discipline. */
        while ( reader.ensureBits( 4 * bits ) ) {
            sum += reader.readUnsafe( bits );
            sum += reader.readUnsafe( bits );
            sum += reader.readUnsafe( bits );
            sum += reader.readUnsafe( bits );
        }
        sink = sink + sum;
    } );
    return measurement.best;
}

namespace {

[[nodiscard]] deflate::DecodedData
decodeImpl( BufferView stream, std::size_t fromBit, bool windowKnown, bool* ok )
{
    BitReader reader( stream.data(), stream.size() );
    reader.seek( fromBit );
    deflate::Decoder decoder;
    if ( windowKnown ) {
        decoder.setInitialWindow( {} );
    }
    auto data = deflate::DecodedDataPool::acquire();
    data.reset();
    const auto result = decoder.decode( reader, data );
    *ok = result.error == Error::NONE;
    return data;
}

}  // namespace

rapidgzip::bench::DecodeResult
decodeOnce( BufferView stream, std::size_t fromBit, bool windowKnown )
{
    rapidgzip::bench::DecodeResult result;
    auto data = decodeImpl( stream, fromBit, windowKnown, &result.ok );
    result.totalSize = data.totalSize();
    result.flattened.reserve( result.totalSize );
    for ( const auto symbol : data.marked ) {
        result.flattened.push_back( static_cast<std::uint8_t>( symbol & 0xFFU ) );
        result.flattened.push_back( static_cast<std::uint8_t>( symbol >> 8U ) );
    }
    for ( const auto& segment : data.plain ) {
        result.flattened.insert( result.flattened.end(),
                                 segment.data.begin(), segment.data.end() );
    }
    deflate::DecodedDataPool::release( std::move( data ) );
    return result;
}

double
measureDecodeBandwidth( BufferView stream, std::size_t fromBit, bool windowKnown,
                        std::size_t expectBytes, std::size_t repeats )
{
    bool allOk = true;
    const auto measurement = bench::measureBandwidth( expectBytes, repeats, [&] () {
        bool ok = false;
        auto data = decodeImpl( stream, fromBit, windowKnown, &ok );
        allOk = allOk && ok && ( data.totalSize() == expectBytes );
        deflate::DecodedDataPool::release( std::move( data ) );
    } );
    return allOk ? measurement.best : 0.0;
}

rapidgzip::bench::FilterCounts
runFilter( BufferView stream, const std::vector<std::size_t>& positions )
{
    blockfinder::FilterStatistics statistics;
    rapidgzip::bench::FilterCounts counts;
    BitReader reader( stream.data(), stream.size() );
    for ( const auto position : positions ) {
        reader.seekAfterPeek( position );
        counts.accepted +=
            blockfinder::DynamicBlockFinderRapid::testHeader( reader, &statistics ) ? 1 : 0;
    }
    counts.invalidPrecodeCode = statistics.invalidPrecodeCode;
    counts.nonOptimalPrecodeCode = statistics.nonOptimalPrecodeCode;
    counts.validHeaders = statistics.validHeaders;
    return counts;
}

bool
scalarMatchesPacked( BufferView stream, const std::vector<std::size_t>& positions )
{
    BitReader reader( stream.data(), stream.size() );
    for ( const auto position : positions ) {
        reader.seekAfterPeek( position );
        const auto packed = blockfinder::DynamicBlockFinderRapid::testHeader( reader, nullptr );
        const auto scalar = blockfinder::DynamicBlockFinderRapid::testCandidateScalar(
            stream, position, nullptr );
        if ( packed != scalar ) {
            return false;
        }
    }
    return true;
}

double
measureRejectionRate( BufferView stream,
                      const std::vector<std::size_t>& positions, std::size_t repeats )
{
    volatile std::uint64_t sink = 0;
    const auto measurement = bench::measureBandwidth( positions.size(), repeats, [&] () {
        BitReader reader( stream.data(), stream.size() );
        std::uint64_t accepted = 0;
        for ( const auto position : positions ) {
            reader.seekAfterPeek( position );
            accepted += blockfinder::DynamicBlockFinderRapid::testHeader( reader, nullptr )
                        ? 1 : 0;
        }
        sink = sink + accepted;
    } );
    return measurement.best;
}

std::vector<std::size_t>
collectStage5Positions( BufferView stream )
{
    /* A position reached stage 5 iff the cascade accepted it or rejected it
     * in stage 5 or later — visible through which statistics counter its
     * testCandidate call incremented. */
    std::vector<std::size_t> positions;
    const auto totalBits = stream.size() * 8;
    for ( std::size_t position = 0;
          position + deflate::MIN_DYNAMIC_HEADER_BITS <= totalBits; ++position ) {
        blockfinder::FilterStatistics statistics;
        const auto accepted =
            blockfinder::DynamicBlockFinderRapid::testCandidate( stream, position, &statistics );
        const auto rejectedAtOrAfterStage5 = statistics.invalidPrecodeEncodedData
                                             + statistics.invalidDistanceCode
                                             + statistics.nonOptimalDistanceCode
                                             + statistics.invalidLiteralCode
                                             + statistics.nonOptimalLiteralCode;
        if ( accepted || ( rejectedAtOrAfterStage5 > 0 ) ) {
            positions.push_back( position );
        }
    }
    return positions;
}

std::vector<std::uint8_t>
replaceMarkersOnce( const std::vector<std::uint16_t>& symbols,
                    const std::vector<std::uint8_t>& window )
{
    std::vector<std::uint8_t> output( symbols.size() );
    const auto* const recent = window.data() + ( window.size() - deflate::WINDOW_SIZE );
    simd::replaceMarkers( symbols.data(), symbols.size(), recent, output.data() );
    return output;
}

double
measureReplaceMarkersBandwidth( const std::vector<std::uint16_t>& symbols,
                                const std::vector<std::uint8_t>& window,
                                std::size_t repeats )
{
    std::vector<std::uint8_t> output( symbols.size() );
    const auto* const recent = window.data() + ( window.size() - deflate::WINDOW_SIZE );
    volatile std::uint8_t sink = 0;
    const auto measurement = bench::measureBandwidth( symbols.size(), repeats, [&] () {
        simd::replaceMarkers( symbols.data(), symbols.size(), recent, output.data() );
        sink = sink + output[output.size() / 2];
    } );
    return measurement.best;
}

std::uint32_t
crc32Once( BufferView data )
{
    return simd::crc32( 0, data.data(), data.size() );
}

double
measureCrc32Bandwidth( BufferView data, std::size_t repeats )
{
    volatile std::uint32_t sink = 0;
    const auto measurement = bench::measureBandwidth( data.size(), repeats, [&] () {
        sink = sink + simd::crc32( 0, data.data(), data.size() );
    } );
    return measurement.best;
}

std::vector<std::size_t>
collectPrecodeStagePositions( BufferView stream )
{
    std::vector<std::size_t> positions;
    BitReader reader( stream.data(), stream.size() );
    const auto totalBits = stream.size() * 8;
    for ( std::size_t position = 0;
          position + deflate::MIN_DYNAMIC_HEADER_BITS <= totalBits; ++position ) {
        reader.seekAfterPeek( position );
        const auto prefix = reader.peek( 8 );
        if ( ( ( prefix & 0b1U ) == 0 )
             && ( ( ( prefix >> 1U ) & 0b11U ) == deflate::BLOCK_TYPE_DYNAMIC )
             && ( ( ( prefix >> 3U ) & 0b11111U ) <= 29 ) ) {
            positions.push_back( position );
        }
    }
    return positions;
}

double
measurePipelineBandwidth( const std::vector<std::uint8_t>& gz, std::size_t rawSize,
                          bool referenceSymbolLoop, std::size_t parallelism,
                          std::size_t repeats )
{
    ChunkFetcherConfiguration configuration;
    configuration.parallelism = parallelism;
    configuration.chunkSizeBytes = 1 * MiB;
    bool allOk = true;
    deflate::Decoder::globalReferenceHuffmanDecoding().store( referenceSymbolLoop );
    const auto measurement = bench::measureBandwidth( rawSize, repeats, [&] () {
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( gz ), configuration );
        allOk = allOk && ( reader.decompressAll() == rawSize );
    } );
    deflate::Decoder::globalReferenceHuffmanDecoding().store( false );
    return allOk ? measurement.best : 0.0;
}

}  // namespace currentbench
