/**
 * libFuzzer target: DynamicBlockFinderRapid (cascaded packed-histogram
 * filters) vs DynamicBlockFinderNaive (full header parse) must accept
 * EXACTLY the same bit offsets on arbitrary input — the cascade is an
 * acceleration, not an approximation. Any divergence is a finder bug by
 * construction, no oracle needed beyond the naive parse. The rapid finder
 * scans word-parallel up to an exclusive bound, so it must also stop exactly
 * at the bound and keep the Table 1 tallies of a per-position testCandidate
 * loop over the positions it scanned.
 *
 * Build (Clang only): cmake -DRAPIDGZIP_FUZZ=ON, target fuzz_blockfinder.
 * Run: ./fuzz_blockfinder tests/fuzz/corpus/blockfinder -max_total_time=60
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "blockfinder/DynamicBlockFinderNaive.hpp"
#include "blockfinder/DynamicBlockFinderRapid.hpp"
#include "blockfinder/DynamicBlockFinderSkipLUT.hpp"

extern "C" int
LLVMFuzzerTestOneInput( const std::uint8_t* data, std::size_t size )
{
    using rapidgzip::blockfinder::DynamicBlockFinderRapid;
    using rapidgzip::blockfinder::NOT_FOUND;

    if ( ( size < 8 ) || ( size > 64 * 1024 ) ) {
        return 0;
    }
    /* Two steering bytes: the first picks the start offset so
     * byte-misaligned scans get coverage, the second the rapid finder's
     * bound as a share of the window (0xFF: unbounded); the rest is the
     * scanned window. */
    const std::size_t fromBit = data[0] % 8;
    const rapidgzip::BufferView view( data + 2, size - 2 );
    const auto sizeBits = view.size() * 8;
    const auto untilBit = data[1] == 0xFF ? NOT_FOUND : sizeBits * data[1] / 0xFE;

    const rapidgzip::blockfinder::DynamicBlockFinderNaive naive;
    DynamicBlockFinderRapid rapid;
    const rapidgzip::blockfinder::DynamicBlockFinderSkipLUT skipLut;
    rapidgzip::blockfinder::FilterStatistics tally;

    auto cursor = fromBit;
    for ( int matches = 0; matches < 16; ++matches ) {
        const auto expected = naive.find( view, cursor );
        const auto expectedBelowBound = expected < untilBit ? expected : NOT_FOUND;
        const auto fromRapid = rapid.find( view, cursor, untilBit );
        const auto fromSkipLut = skipLut.find( view, cursor );
        if ( ( fromRapid != expectedBelowBound ) || ( fromSkipLut != expected ) ) {
            std::fprintf( stderr,
                          "finder divergence at fromBit %zu untilBit %zu: naive %zu rapid %zu "
                          "skipLUT %zu\n",
                          cursor, untilBit, expected, fromRapid, fromSkipLut );
            std::abort();
        }

        /* The positions this find() scanned: up to and including its hit,
         * else every probeable one below the bound. */
        const auto scanEnd = fromRapid != NOT_FOUND ? fromRapid + 1 : untilBit;
        for ( auto position = cursor;
              ( position < scanEnd )
              && ( position + rapidgzip::deflate::MIN_DYNAMIC_HEADER_BITS <= sizeBits );
              ++position ) {
            (void)DynamicBlockFinderRapid::testCandidate( view, position, &tally );
        }
        if ( rapid.statistics() != tally ) {
            std::fprintf( stderr,
                          "statistics divergence after [%zu, %zu): %llu vs %llu positions tested\n",
                          cursor, scanEnd,
                          static_cast<unsigned long long>( rapid.statistics().positionsTested ),
                          static_cast<unsigned long long>( tally.positionsTested ) );
            std::abort();
        }

        /* Advance on the naive result so skipLUT is compared over the whole
         * window; past the bound rapid tests no positions and returns
         * NOT_FOUND, and the tally range above is empty. */
        if ( expected == NOT_FOUND ) {
            break;
        }
        cursor = expected + 1;
    }
    return 0;
}
