/**
 * blockfinder layer: every Dynamic block finder must locate the known block
 * starts of a pigz-produced stream (full-flush restart points are
 * byte-aligned Dynamic block starts, so the ground truth is known without
 * trusting any finder); the rapid finder's cascaded filters must agree with
 * the naive full parse on EVERY bit offset of random data (zero false
 * negatives — and, by equality, zero extra positives); its bounded
 * word-parallel find() must match a per-position cascade loop in offsets
 * and Table 1 tallies; the non-compressed finder must locate stored-block
 * LEN fields; and the
 * full-flush marker scan must agree with a byte-by-byte reference, short
 * reads included.
 */

#include <algorithm>
#include <memory>
#include <vector>

#include "blockfinder/DynamicBlockFinderNaive.hpp"
#include "blockfinder/DynamicBlockFinderRapid.hpp"
#include "blockfinder/DynamicBlockFinderSkipLUT.hpp"
#include "blockfinder/DynamicBlockFinderZlib.hpp"
#include "blockfinder/NonCompressedBlockFinder.hpp"
#include "core/DeflateChunks.hpp"
#include "gzip/GzipHeader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/FaultyFileReader.hpp"
#include "io/MemoryFileReader.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

using namespace rapidgzip;

namespace {

/* Forwarding reference: the rapid finder's find() mutates its statistics. */
template<typename Finder>
void
checkFindsKnownOffsets( Finder&& finder,
                        BufferView stream,
                        const std::vector<std::size_t>& knownBlockBits )
{
    for ( const auto expected : knownBlockBits ) {
        /* Scan from a few bits before the block: the preceding bits are the
         * 00 00 FF FF sync marker, which no finder may mistake for a start. */
        REQUIRE( finder.find( stream, expected - 10 ) == expected );
        /* Scanning from the block itself returns it immediately. */
        REQUIRE( finder.find( stream, expected ) == expected );
    }
}

/** LSB-first bit writer matching Deflate's value bit order; Huffman codes
 * go through putCode (Deflate writes codes MSB-of-code-first). */
class DeflateBitWriter
{
public:
    void
    put( std::uint32_t value, std::size_t count )
    {
        for ( std::size_t i = 0; i < count; ++i ) {
            if ( m_fill == 8 ) {
                m_bytes.push_back( 0 );
                m_fill = 0;
            }
            m_bytes.back() = static_cast<std::uint8_t>(
                m_bytes.back() | ( ( ( value >> i ) & 1U ) << m_fill ) );
            ++m_fill;
        }
    }

    void
    putCode( std::uint32_t code, std::size_t count )
    {
        for ( std::size_t i = count; i > 0; --i ) {
            put( ( code >> ( i - 1 ) ) & 1U, 1 );
        }
    }

    [[nodiscard]] std::vector<std::uint8_t>
    finish( std::size_t padBytes )
    {
        auto result = m_bytes;
        if ( result.empty() ) {
            result.push_back( 0 );
        }
        result.insert( result.end(), padBytes, 0 );
        return result;
    }

    DeflateBitWriter()
    {
        m_bytes.push_back( 0 );
        m_fill = 0;
    }

private:
    std::vector<std::uint8_t> m_bytes;
    std::size_t m_fill{ 0 };
};

/**
 * Crafted Dynamic headers aimed at the rapid finder's SURVIVOR TAIL — the
 * cold out-of-line stages 5-7 that only candidates passing the packed
 * precode filter reach. Each case passes stages 1-4 by construction and is
 * then accepted or rejected by the later stages; all three custom finders
 * must agree with the naive full parse on the exact result, offset for
 * offset. The simple precode has symbols {0, 8} with 1-bit codes
 * (canonical: 0 → code 0, 8 → code 1).
 */
struct CraftedHeader
{
    const char* name;
    bool valid;
    std::vector<std::uint8_t> bytes;
};

[[nodiscard]] CraftedHeader
craftHeader( const char* name,
             bool valid,
             std::size_t lengthEightLiterals,   /* precode sym 8 emissions (literal side) */
             std::size_t zeroLengthLiterals,    /* precode sym 0 emissions (literal side) */
             std::size_t hdist,                 /* HDIST field: hdist + 1 distance entries */
             std::size_t lengthEightDistances ) /* sym 8 emissions on the distance side */
{
    DeflateBitWriter writer;
    writer.put( 0, 1 );   /* BFINAL = 0 */
    writer.put( 2, 2 );   /* BTYPE = Dynamic */
    writer.put( 0, 5 );   /* HLIT = 0 → 257 literal entries */
    writer.put( static_cast<std::uint32_t>( hdist ), 5 );
    writer.put( 1, 4 );   /* HCLEN = 1 → 5 precode lengths: 16 17 18 0 8 */
    writer.put( 0, 3 );   /* length(16) = 0 */
    writer.put( 0, 3 );   /* length(17) = 0 */
    writer.put( 0, 3 );   /* length(18) = 0 */
    writer.put( 1, 3 );   /* length(0)  = 1 → canonical code 0 */
    writer.put( 1, 3 );   /* length(8)  = 1 → canonical code 1 */

    for ( std::size_t i = 0; i < lengthEightLiterals; ++i ) {
        writer.putCode( 1, 1 );  /* literal entry of code length 8 */
    }
    for ( std::size_t i = 0; i < zeroLengthLiterals; ++i ) {
        writer.putCode( 0, 1 );  /* literal entry of code length 0 */
    }
    for ( std::size_t i = 0; i < 1 + hdist; ++i ) {
        writer.putCode( i < lengthEightDistances ? 1 : 0, 1 );
    }
    return { name, valid, writer.finish( 64 ) };
}

/** Stage-5 overflow case: precode {18:1, 0:2, 8:2}; a symbol-18 run of
 * 11 + 127 zeros overruns the 258 total entries. */
[[nodiscard]] CraftedHeader
craftRepeatOverflowHeader()
{
    DeflateBitWriter writer;
    writer.put( 0, 1 );
    writer.put( 2, 2 );
    writer.put( 0, 5 );   /* HLIT = 0 */
    writer.put( 0, 5 );   /* HDIST = 0 */
    writer.put( 1, 4 );   /* HCLEN = 1 → lengths for 16 17 18 0 8 */
    writer.put( 0, 3 );   /* length(16) = 0 */
    writer.put( 0, 3 );   /* length(17) = 0 */
    writer.put( 1, 3 );   /* length(18) = 1 → canonical code 0 */
    writer.put( 2, 3 );   /* length(0)  = 2 → canonical code 10 */
    writer.put( 2, 3 );   /* length(8)  = 2 → canonical code 11 */

    for ( std::size_t i = 0; i < 200; ++i ) {
        writer.putCode( 0b11U, 2 );  /* 200 length-8 literal entries */
    }
    writer.putCode( 0, 1 );          /* symbol 18 ... */
    writer.put( 127, 7 );            /* ... repeat 11 + 127 → 200 + 138 > 258 */
    return { "stage-5 repeat overflow", false, writer.finish( 64 ) };
}

void
testCraftedAlmostValidHeaders()
{
    const std::vector<CraftedHeader> cases = {
        /* 256 length-8 literals + EOB length 0: Kraft sum exactly 1. */
        craftHeader( "valid control", true, 256, 1, 0, 0 ),
        /* 257 length-8 literals: Kraft 257/256 — over-subscribed (stage 7). */
        craftHeader( "over-subscribed literal code", false, 257, 0, 0, 0 ),
        /* 255 length-8 literals: Kraft 255/256 — incomplete (stage 7). */
        craftHeader( "incomplete literal code", false, 255, 2, 0, 0 ),
        /* Valid literals but TWO length-8 distance codes: incomplete with
         * more than one symbol (stage 6; one symbol would be legal). */
        craftHeader( "non-optimal distance code", false, 256, 1, 1, 2 ),
        /* Valid literals and exactly ONE distance code: legal single-code
         * incompleteness — must be ACCEPTED (the stage-6 exemption). */
        craftHeader( "single distance code", true, 256, 1, 0, 1 ),
        craftRepeatOverflowHeader(),
    };

    for ( const auto& crafted : cases ) {
        const BufferView view( crafted.bytes.data(), crafted.bytes.size() );
        const blockfinder::DynamicBlockFinderNaive naive;
        blockfinder::DynamicBlockFinderRapid rapid;
        const blockfinder::DynamicBlockFinderSkipLUT skipLut;

        const auto naiveResult = naive.find( view, 0 );
        const auto rapidResult = rapid.find( view, 0 );
        const auto skipResult = skipLut.find( view, 0 );
        REQUIRE( rapidResult == naiveResult );
        REQUIRE( skipResult == naiveResult );
        if ( crafted.valid ) {
            REQUIRE( naiveResult == 0 );
        } else {
            REQUIRE( naiveResult != 0 );
            REQUIRE( !blockfinder::DynamicBlockFinderRapid::testCandidate( view, 0, nullptr ) );
        }
        if ( naiveResult != 0 ) {
            continue;
        }

        /* The accepted cases must also survive at a non-byte-aligned start:
         * re-emit at bit offset 3. */
        DeflateBitWriter shifted;
        shifted.put( 0b101U, 3 );  /* arbitrary preamble bits */
        for ( const auto byte : crafted.bytes ) {
            shifted.put( byte, 8 );
        }
        const auto shiftedBytes = shifted.finish( 8 );
        const BufferView shiftedView( shiftedBytes.data(), shiftedBytes.size() );
        REQUIRE( rapid.find( shiftedView, 3 ) == 3 );
        REQUIRE( naive.find( shiftedView, 3 ) == 3 );
    }
}

/** Every candidate of a scan over [fromBit, untilBit) and the cascade
 * tallies it accumulated. */
struct ScanResult
{
    std::vector<std::size_t> offsets;
    blockfinder::FilterStatistics statistics;
};

/** The scan through DynamicBlockFinderRapid::find(), resuming one past each hit. */
[[nodiscard]] ScanResult
scanWithFind( BufferView view, std::size_t fromBit, std::size_t untilBit )
{
    blockfinder::DynamicBlockFinderRapid finder;
    ScanResult result;
    for ( auto cursor = fromBit; ; ) {
        const auto offset = finder.find( view, cursor, untilBit );
        if ( offset == blockfinder::NOT_FOUND ) {
            break;
        }
        REQUIRE( ( offset >= cursor ) && ( offset < untilBit ) );
        result.offsets.push_back( offset );
        cursor = offset + 1;
    }
    result.statistics = finder.statistics();
    return result;
}

/** The same scan as a per-position testCandidate loop over every probeable
 * offset below untilBit. */
[[nodiscard]] ScanResult
scanPerPosition( BufferView view, std::size_t fromBit, std::size_t untilBit )
{
    ScanResult result;
    const auto sizeBits = view.size() * 8;
    for ( auto position = fromBit;
          ( position < untilBit ) && ( position + deflate::MIN_DYNAMIC_HEADER_BITS <= sizeBits );
          ++position ) {
        if ( blockfinder::DynamicBlockFinderRapid::testCandidate( view, position,
                                                                  &result.statistics ) ) {
            result.offsets.push_back( position );
        }
    }
    return result;
}

/**
 * The word-parallel find() must return the offsets and the full Table 1
 * tallies of the per-position cascade, under every sub-byte start phase and
 * with the scan bound inside a 48-bit stride, on a stride edge, within
 * MIN_DYNAMIC_HEADER_BITS of the buffer end, past the end, and below the
 * start. Resuming one past each hit also checks that the stride returning
 * a hit tallies none of the lanes after it: an overcount would persist.
 */
void
checkFindMatchesPerPosition( const char* name, BufferView view, bool expectHits )
{
    constexpr std::size_t STRIDE = 48;
    const auto sizeBits = view.size() * 8;
    std::size_t hits = 0;
    for ( std::size_t phase = 0; phase < 8; ++phase ) {
        const auto fromBit = phase;
        const std::vector<std::size_t> untilBits = {
            fromBit + 100 * STRIDE + 17,                         /* inside a stride */
            fromBit + 100 * STRIDE,                              /* on a stride edge */
            fromBit + 3,                                         /* shorter than one stride */
            sizeBits - deflate::MIN_DYNAMIC_HEADER_BITS + 1,     /* the last probeable offset + 1 */
            sizeBits - deflate::MIN_DYNAMIC_HEADER_BITS / 2,     /* within the header size of the end */
            sizeBits - STRIDE - 5,
            sizeBits + 1000,                                     /* past the end */
            blockfinder::NOT_FOUND,                              /* unbounded */
            fromBit,                                             /* empty range */
            fromBit > 0 ? fromBit - 1 : 0,                       /* ends below the start */
        };
        for ( const auto untilBit : untilBits ) {
            const auto found = scanWithFind( view, fromBit, untilBit );
            const auto expected = scanPerPosition( view, fromBit, untilBit );
            if ( ( found.offsets != expected.offsets ) || ( found.statistics != expected.statistics ) ) {
                std::fprintf( stderr, "%s: find() diverges from the per-position cascade "
                              "for [%zu, %zu): %zu vs %zu offsets, %llu vs %llu positions\n",
                              name, fromBit, untilBit, found.offsets.size(), expected.offsets.size(),
                              static_cast<unsigned long long>( found.statistics.positionsTested ),
                              static_cast<unsigned long long>( expected.statistics.positionsTested ) );
            }
            REQUIRE( found.offsets == expected.offsets );
            REQUIRE( found.statistics == expected.statistics );
            hits += found.offsets.size();
        }
    }
    REQUIRE( !expectHits || ( hits > 0 ) );
}

/** Byte-by-byte reference for findFullFlushMarkers(): the end offset of
 * every 00 00 FF FF lying wholly in [searchBegin, min(searchEnd, size)). */
[[nodiscard]] std::vector<std::size_t>
naiveFullFlushMarkers( const std::vector<std::uint8_t>& bytes,
                       std::size_t searchBegin,
                       std::size_t searchEnd )
{
    std::vector<std::size_t> result;
    searchEnd = std::min( searchEnd, bytes.size() );
    for ( auto i = searchBegin; i + FULL_FLUSH_MARKER_SIZE <= searchEnd; ++i ) {
        if ( ( bytes[i] == 0x00 ) && ( bytes[i + 1] == 0x00 ) && ( bytes[i + 2] == 0xFF )
             && ( bytes[i + 3] == 0xFF ) ) {
            result.push_back( i + FULL_FLUSH_MARKER_SIZE );
        }
    }
    return result;
}

void
testFullFlushScan()
{
    /* The scan reads in windows of this size, counted from searchBegin. */
    constexpr std::size_t SCAN_BLOCK = FULL_FLUSH_SCAN_WINDOW;

    /* Exhaustive over a short stream: markers at the very start and the
     * very end, the overlapping runs 00 00 00 FF FF (one marker) and
     * 00 00 FF FF 00 00 FF FF (two), and near-misses — under every
     * [searchBegin, searchEnd) pair, so the bounds cut through each marker
     * at every byte, including bounds past the end of the file. */
    {
        const std::vector<std::uint8_t> bytes = {
            0x00, 0x00, 0xFF, 0xFF, 0x42,
            0x00, 0x00, 0x00, 0xFF, 0xFF, 0x42,
            0x00, 0x00, 0xFF, 0xFF, 0x00, 0x00, 0xFF, 0xFF,
            0x00, 0xFF, 0xFF, 0x00, 0x00, 0xFF, 0x42, 0xFF,
            0x00, 0x00, 0xFF, 0xFF,
        };
        const MemoryFileReader file( bytes );
        REQUIRE( findFullFlushMarkers( file, 0, bytes.size() )
                 == std::vector<std::size_t>( { 4, 10, 15, 19, 31 } ) );
        for ( std::size_t begin = 0; begin <= bytes.size() + 1; ++begin ) {
            for ( std::size_t end = 0; end <= bytes.size() + 2; ++end ) {
                REQUIRE( findFullFlushMarkers( file, begin, end )
                         == naiveFullFlushMarkers( bytes, begin, end ) );
            }
        }
    }

    /* Markers starting at SCAN_BLOCK - 3 .. SCAN_BLOCK straddle or abut the
     * seam between the first two read blocks: each is reported exactly once. */
    {
        const auto noise = workloads::randomData( SCAN_BLOCK + 64 * KiB, 0x5CA7 );
        for ( const std::size_t searchBegin : { std::size_t( 0 ), std::size_t( 7 ) } ) {
            for ( auto start = searchBegin + SCAN_BLOCK - 3; start <= searchBegin + SCAN_BLOCK;
                  ++start ) {
                auto bytes = noise;
                bytes[start] = 0x00;
                bytes[start + 1] = 0x00;
                bytes[start + 2] = 0xFF;
                bytes[start + 3] = 0xFF;
                const MemoryFileReader file( bytes );
                const auto found = findFullFlushMarkers( file, searchBegin, bytes.size() );
                REQUIRE( found == naiveFullFlushMarkers( bytes, searchBegin, bytes.size() ) );
                REQUIRE( std::count( found.begin(), found.end(), start + FULL_FLUSH_MARKER_SIZE )
                         == 1 );
            }
        }
    }

    /* Random bytes over the alphabet {00, FF, 42} — markers, zero runs and
     * near-misses everywhere — spanning three read blocks, under the full
     * range and random bounds. */
    {
        static constexpr std::uint8_t ALPHABET[] = { 0x00, 0xFF, 0x42 };
        Xorshift64 random( 0xF1A5 );
        std::vector<std::uint8_t> bytes( 2 * SCAN_BLOCK + 1000 );
        for ( auto& byte : bytes ) {
            byte = ALPHABET[random.below( 3 )];
        }
        const MemoryFileReader file( bytes );
        REQUIRE( findFullFlushMarkers( file, 0, bytes.size() )
                 == naiveFullFlushMarkers( bytes, 0, bytes.size() ) );
        for ( int i = 0; i < 8; ++i ) {
            const auto begin = random.below( bytes.size() );
            const auto end = begin + random.below( bytes.size() - begin + 1 );
            REQUIRE( findFullFlushMarkers( file, begin, end )
                     == naiveFullFlushMarkers( bytes, begin, end ) );
        }
    }

    /* Short reads must not move the restart points: on a pigz-style file
     * spanning three read blocks, a reader whose every second pread returns
     * half of what was asked yields the same markers as a clean one. */
    {
        const auto data = workloads::base64Data( 12 * MiB, 0x5407 );
        const auto gz = compressPigzLike( { data.data(), data.size() }, 1, 256 * KiB );
        REQUIRE( gz.size() > 2 * SCAN_BLOCK );
        const auto deflateStart = parseGzipHeader( { gz.data(), gz.size() } );
        const MemoryFileReader clean( gz );
        const auto expected = findFullFlushMarkers( clean, deflateStart, gz.size() );
        REQUIRE( expected.size() >= 40 );

        FaultyFileReader::Behavior behavior;
        behavior.shortReadEveryN = 2;
        const FaultyFileReader faulty( std::make_unique<MemoryFileReader>( gz ), behavior );
        REQUIRE( findFullFlushMarkers( faulty, deflateStart, gz.size() ) == expected );
        REQUIRE( faulty.faultCount() > 0 );
    }
}

}  // namespace

int
main()
{
    /* Ground truth: pigz-style full flushes byte-align the stream and reset
     * the window, so each marker-end offset is a known Dynamic block start
     * (base64 data at level 6 always produces Dynamic blocks). */
    const auto data = workloads::base64Data( 4 * MiB, 0xB10C );
    const auto gz = compressPigzLike( { data.data(), data.size() }, 6, 256 * KiB );
    const auto deflateStart = parseGzipHeader( { gz.data(), gz.size() } );
    const BufferView stream( gz.data() + deflateStart, gz.size() - deflateStart );

    MemoryFileReader file( gz );
    const auto markerEnds = findFullFlushMarkers( file, deflateStart, gz.size() );
    REQUIRE( markerEnds.size() >= 10 );

    std::vector<std::size_t> knownBlockBits;
    for ( std::size_t i = 0; i + 1 < markerEnds.size(); ++i ) {  /* skip the last: may be final */
        knownBlockBits.push_back( ( markerEnds[i] - deflateStart ) * 8 );
    }

    {
        blockfinder::DynamicBlockFinderRapid rapid;
        checkFindsKnownOffsets( rapid, stream, knownBlockBits );
        REQUIRE( rapid.statistics().validHeaders >= 2 * knownBlockBits.size() );
        REQUIRE( rapid.statistics().positionsTested > rapid.statistics().validHeaders );
    }
    checkFindsKnownOffsets( blockfinder::DynamicBlockFinderNaive(), stream, knownBlockBits );
    checkFindsKnownOffsets( blockfinder::DynamicBlockFinderSkipLUT(), stream, knownBlockBits );
    {
        /* The zlib trial-inflate baseline is ~100x slower: spot-check a few. */
        const blockfinder::DynamicBlockFinderZlib zlib;
        const std::vector<std::size_t> sample = {
            knownBlockBits.front(),
            knownBlockBits[knownBlockBits.size() / 2],
            knownBlockBits.back(),
        };
        checkFindsKnownOffsets( zlib, stream, sample );
    }

    /* Zero false negatives (and, symmetrically, zero extra positives) of
     * rapid vs naive: both must accept EXACTLY the same bit offsets over
     * random data — the cascade is a pure acceleration, not an
     * approximation. The skip-LUT must agree as well. */
    {
        const auto noise = workloads::randomData( 256 * KiB, 0xFA15E );
        const BufferView view( noise.data(), noise.size() );
        const blockfinder::DynamicBlockFinderNaive naive;
        blockfinder::DynamicBlockFinderRapid rapid;
        const blockfinder::DynamicBlockFinderSkipLUT skipLut;

        std::vector<std::size_t> naiveFound;
        for ( auto fromBit = std::size_t( 0 ); ; ) {
            const auto offset = naive.find( view, fromBit );
            if ( offset == blockfinder::NOT_FOUND ) {
                break;
            }
            naiveFound.push_back( offset );
            fromBit = offset + 1;
        }

        std::vector<std::size_t> rapidFound;
        for ( auto fromBit = std::size_t( 0 ); ; ) {
            const auto offset = rapid.find( view, fromBit );
            if ( offset == blockfinder::NOT_FOUND ) {
                break;
            }
            rapidFound.push_back( offset );
            fromBit = offset + 1;
        }
        REQUIRE( rapidFound == naiveFound );

        std::vector<std::size_t> skipLutFound;
        for ( auto fromBit = std::size_t( 0 ); ; ) {
            const auto offset = skipLut.find( view, fromBit );
            if ( offset == blockfinder::NOT_FOUND ) {
                break;
            }
            skipLutFound.push_back( offset );
            fromBit = offset + 1;
        }
        REQUIRE( skipLutFound == naiveFound );

        /* Per-position agreement of the static cascade entry point, too. */
        for ( std::size_t position = 0; position < 64 * KiB; ++position ) {
            BitReader reader( view.data(), view.size() );
            reader.seek( position );
            deflate::DynamicHuffmanCodings codings;
            const bool naiveAccepts =
                ( ( reader.peek( 3 ) & 0b111U ) == 0b100U )
                && ( ( reader.skip( 3 ), deflate::readDynamicCodings( reader, codings ) )
                     == Error::NONE );
            REQUIRE( blockfinder::DynamicBlockFinderRapid::testCandidate( view, position, nullptr )
                     == naiveAccepts );
        }

        /* Bounded word-parallel find() vs the per-position cascade, offsets
         * and tallies, on three kinds of streams. 32 KiB windows keep the
         * exhaustive reference cheap; the two gzip windows start 64 bytes
         * before a header, so the bounded scans have hits to stop at. */
        checkFindMatchesPerPosition( "random noise", { noise.data(), 32 * KiB }, false );

        const auto base64Window = stream.data() + knownBlockBits[1] / 8 - 64;
        checkFindMatchesPerPosition( "pigz base64", { base64Window, 32 * KiB }, true );

        const auto silesia = workloads::silesiaLikeData( 1 * MiB, 0x51E5 );
        const auto silesiaGz = compressGzipLike( { silesia.data(), silesia.size() }, 6 );
        const BufferView silesiaStream( silesiaGz.data(), silesiaGz.size() );
        blockfinder::DynamicBlockFinderRapid locator;
        const auto header = locator.find( silesiaStream, silesiaGz.size() / 4 * 8 );
        REQUIRE( ( header != blockfinder::NOT_FOUND ) && ( header / 8 + 32 * KiB < silesiaGz.size() ) );
        checkFindMatchesPerPosition( "silesia-like gzip",
                                     { silesiaGz.data() + header / 8 - 64, 32 * KiB }, true );
    }

    /* NonCompressedBlockFinder: stored blocks from incompressible data. The
     * LEN field of the first stored block of a chunk is byte-aligned; check
     * the finder reports a position whose LEN/NLEN are complements and that
     * every full-flush sync marker (LEN = 0) is found as well. */
    {
        const auto noise = workloads::randomData( 1 * MiB, 0x57A7 );
        const auto storedGz = compressPigzLike( { noise.data(), noise.size() }, 6, 128 * KiB );
        const auto storedDeflateStart = parseGzipHeader( { storedGz.data(), storedGz.size() } );
        const BufferView storedStream( storedGz.data() + storedDeflateStart,
                                       storedGz.size() - storedDeflateStart );

        const blockfinder::NonCompressedBlockFinder finder;
        std::size_t found = 0;
        for ( auto fromBit = std::size_t( 0 ); ; ) {
            const auto offset = finder.find( storedStream, fromBit );
            if ( offset == blockfinder::NOT_FOUND ) {
                break;
            }
            REQUIRE( offset % 8 == 0 );
            const auto byte = offset / 8;
            const auto len = static_cast<unsigned>( storedStream[byte] )
                             | ( static_cast<unsigned>( storedStream[byte + 1] ) << 8U );
            const auto nlen = static_cast<unsigned>( storedStream[byte + 2] )
                              | ( static_cast<unsigned>( storedStream[byte + 3] ) << 8U );
            REQUIRE( ( len ^ nlen ) == 0xFFFFU );
            ++found;
            fromBit = offset + 1;
        }
        REQUIRE( found > 0 );

        /* Every sync marker (the empty stored block 00 00 FF FF) must be
         * among the found positions — rescan from just before each. */
        MemoryFileReader storedFile( storedGz );
        const auto syncMarkers = findFullFlushMarkers( storedFile, storedDeflateStart,
                                                       storedGz.size() );
        REQUIRE( !syncMarkers.empty() );
        for ( const auto markerEnd : syncMarkers ) {
            const auto lenBit = ( markerEnd - FULL_FLUSH_MARKER_SIZE - storedDeflateStart ) * 8;
            REQUIRE( finder.find( storedStream, lenBit ) == lenBit );
        }
    }

    /* Survivor-tail negative tests: crafted almost-valid headers that pass
     * the packed stages 1-4 and must be decided — identically across
     * finders — by the cold stages 5-7. */
    testCraftedAlmostValidHeaders();

    testFullFlushScan();

    return rapidgzip::test::finish( "testBlockFinder" );
}
