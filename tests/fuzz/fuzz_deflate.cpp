/**
 * libFuzzer target: deflate::Decoder's FAST loop (multi-symbol cached
 * LUTs, guaranteed-bits reads, wildcopy matches) vs its REFERENCE loop
 * (two-level LUT, checked reads) on arbitrary input from arbitrary bit
 * offsets, in both marker (unknown window) and plain (seeded window)
 * modes, under an output limit the input chooses. The two paths must agree
 * on error, end offset, block count, AND every output unit — the
 * bit-exactness contract the fast paths claim.
 *
 * The first input byte steers: bits 0–2 the start bit, bit 3 the seeded
 * window, bits 4–7 the output limit (0: 4 MiB, n: 2^n bytes). The rest is
 * the raw Deflate input.
 *
 * Build (Clang only): cmake -DRAPIDGZIP_FUZZ=ON, target fuzz_deflate.
 * Run: ./fuzz_deflate tests/fuzz/corpus/deflate -max_total_time=60
 * Every compiler builds testFuzzDeflateReplay, which feeds each file of
 * the corpus to LLVMFuzzerTestOneInput once (fuzz_replay_main.cpp).
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "bits/BitReader.hpp"
#include "deflate/DecodedData.hpp"
#include "deflate/DeflateDecoder.hpp"

namespace {

struct DecodeOutcome
{
    rapidgzip::Error error;
    std::size_t endBitOffset;
    bool reachedFinalBlock;
    std::size_t blockCount;
    rapidgzip::FastVector<std::uint16_t> marked;
    std::vector<std::uint8_t> plain;

    [[nodiscard]] bool
    operator==( const DecodeOutcome& other ) const
    {
        return ( error == other.error ) && ( endBitOffset == other.endBitOffset )
               && ( reachedFinalBlock == other.reachedFinalBlock )
               && ( blockCount == other.blockCount )
               && ( marked.size() == other.marked.size() )
               && std::equal( marked.begin(), marked.end(), other.marked.begin() )
               && ( plain == other.plain );
    }
};

[[nodiscard]] DecodeOutcome
decodeWith( const std::uint8_t* data,
            std::size_t size,
            std::size_t startBit,
            bool seededWindow,
            std::size_t maxBytes,
            bool reference )
{
    rapidgzip::BitReader reader( data, size );
    reader.seek( startBit );
    rapidgzip::deflate::Decoder decoder;
    decoder.setReferenceHuffmanDecoding( reference );
    std::vector<std::uint8_t> window;
    if ( seededWindow ) {
        window.assign( 1024, 0x5A );  /* deterministic partial window */
        decoder.setInitialWindow( { window.data(), window.size() } );
    }
    rapidgzip::deflate::DecodedData output;
    const auto result = decoder.decode( reader, output, std::numeric_limits<std::size_t>::max(), maxBytes );
    DecodeOutcome outcome;
    outcome.error = result.error;
    outcome.endBitOffset = result.endBitOffset;
    outcome.reachedFinalBlock = result.reachedFinalBlock;
    outcome.blockCount = result.blockCount;
    outcome.marked = output.marked;
    for ( const auto& segment : output.plain ) {
        outcome.plain.insert( outcome.plain.end(), segment.data.begin(), segment.data.end() );
    }
    return outcome;
}

}  // namespace

extern "C" int
LLVMFuzzerTestOneInput( const std::uint8_t* data, std::size_t size )
{
    if ( ( size < 4 ) || ( size > 64 * 1024 ) ) {
        return 0;
    }
    const std::size_t startBit = data[0] % 8;
    const bool seededWindow = ( data[0] & 0x08U ) != 0;
    const unsigned limitExponent = data[0] >> 4U;
    const std::size_t maxBytes = limitExponent == 0 ? 4 * rapidgzip::MiB : std::size_t( 1 ) << limitExponent;

    const auto fast = decodeWith( data + 1, size - 1, startBit, seededWindow, maxBytes, false );
    const auto referenceOutcome = decodeWith( data + 1, size - 1, startBit, seededWindow, maxBytes, true );

    if ( !( fast == referenceOutcome ) ) {
        std::fprintf( stderr,
                      "decoder divergence: startBit %zu seeded %d maxBytes %zu — "
                      "fast(err %d, end %zu, blocks %zu, %zu marked, %zu plain) vs "
                      "reference(err %d, end %zu, blocks %zu, %zu marked, %zu plain)\n",
                      startBit, int( seededWindow ), maxBytes,
                      int( fast.error ), fast.endBitOffset, fast.blockCount,
                      fast.marked.size(), fast.plain.size(),
                      int( referenceOutcome.error ), referenceOutcome.endBitOffset,
                      referenceOutcome.blockCount, referenceOutcome.marked.size(),
                      referenceOutcome.plain.size() );
        std::abort();
    }
    return 0;
}
