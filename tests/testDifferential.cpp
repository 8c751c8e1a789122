/**
 * Differential decompression suite: every backend's writer feeds every
 * corpus through OUR reader and through the VENDOR decoder, byte-exact.
 * This is the randomized cross-check the PR 2-4 spot tests lacked — the
 * corpus generator is seeded-PRNG (base64, long runs, incompressible
 * random, boundary-heavy LZ windows), so failures reproduce from the seed
 * printed by the harness.
 *
 * Per format:
 *   gzip  — ParallelGzipReader vs zlib inflate, on plain (two-stage
 *           pipeline), pigz-like and BGZF (restart-point checkpoints)
 *           layouts, with seeded single-byte flips in the Deflate data
 *           that every reader must agree on (salvage included: it must
 *           recover exactly the members zlib accepts one by one), the
 *           restart-point probe against zlib raw inflate on real and
 *           decoy markers, a second member whose history reaches
 *           into the first, which every reader must reject, layouts
 *           whose restart points lie past discovery's first search,
 *           concatenated plain members (4 KiB, 32 KiB, a decoy member in
 *           stored data) whose guessed chunks cross member ends, and a
 *           sync-flushed stream whose restart points need the window;
 *   zstd  — frame-parallel dispatch reader vs ZSTD_decompressStream;
 *   lz4   — from-scratch frame+block decoder vs LZ4_decompress_safe per
 *           block (both directions: our writer → vendor, vendor → ours);
 *   bzip2 — block-scan parallel reader vs libbz2 whole-stream streaming.
 *
 * Plus, per the acceptance criteria: multi-frame/member/stream inputs and
 * truncated-input rejection (every truncation must throw RapidgzipError —
 * never crash, never return success with wrong bytes).
 *
 * RAPIDGZIP_DIFF_SCALE scales the corpus sizes (default 0.01 for quick
 * ctest runs; the nightly CI job runs 0.05).
 */

#include <zlib.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ParallelGzipReader.hpp"
#include "formats/Formats.hpp"
#include "formats/Lz4Codec.hpp"
#include "formats/Salvage.hpp"
#include "formats/Lz4Writer.hpp"
#include "formats/VendorLz4.hpp"
#include "formats/VendorZstd.hpp"
#include "formats/VendorBzip2.hpp"
#include "gzip/BgzfWriter.hpp"
#include "gzip/GzipReader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "io/MemoryFileReader.hpp"
#include "telemetry/Registry.hpp"
#include "workloads/DataGenerators.hpp"

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
#include "formats/ZstdWriter.hpp"
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
#include "formats/Bzip2Writer.hpp"
#endif

#include "TestHelpers.hpp"
#include "GzipTestHelpers.hpp"

using namespace rapidgzip;
using rapidgzip::test::answerOf;

namespace {

[[nodiscard]] double
diffScale()
{
    if ( const auto* value = std::getenv( "RAPIDGZIP_DIFF_SCALE" ) ) {
        const auto parsed = std::atof( value );
        if ( parsed > 0.0 ) {
            return parsed;
        }
    }
    return 0.01;
}

[[nodiscard]] std::size_t
scaled( std::size_t bytes )
{
    const auto result = static_cast<std::size_t>( static_cast<double>( bytes ) * diffScale() );
    return std::max<std::size_t>( result, 16 * KiB );
}

struct Corpus
{
    std::string name;
    std::vector<std::uint8_t> data;
};

[[nodiscard]] std::vector<Corpus>
buildCorpora( std::uint64_t seed )
{
    const auto size = scaled( 32 * MiB );
    return {
        { "base64", workloads::base64Data( size, seed ) },
        { "runs", workloads::runsData( size, seed + 1 ) },
        { "random", workloads::randomData( size, seed + 2 ) },
        { "lz-boundary", workloads::lzBoundaryData( size, seed + 3 ) },
    };
}

[[nodiscard]] ChunkFetcherConfiguration
config( std::size_t chunkSizeBytes = 256 * KiB )
{
    ChunkFetcherConfiguration result;
    result.parallelism = 4;
    result.chunkSizeBytes = chunkSizeBytes;
    return result;
}

/** Decompress @p file through the dispatch layer, collecting all bytes. */
[[nodiscard]] std::vector<std::uint8_t>
decompressOurs( const std::vector<std::uint8_t>& file )
{
    auto decompressor = formats::makeDecompressor(
        std::make_unique<MemoryFileReader>( file ), config() );
    std::vector<std::uint8_t> result;
    const auto total = decompressor->decompress( [&result] ( BufferView span ) {
        result.insert( result.end(), span.begin(), span.end() );
    } );
    REQUIRE( total == result.size() );
    return result;
}

/** Every strict prefix of @p file must be REJECTED (throw), never crash and
 * never decode "successfully". Sampled stride keeps the quadratic cost down;
 * boundaries (±1 byte) are always included. */
void
requireTruncationsRejected( const std::vector<std::uint8_t>& file,
                            const std::vector<std::uint8_t>& original )
{
    std::vector<std::size_t> cuts;
    for ( std::size_t cut = 1; cut < file.size();
          cut += std::max<std::size_t>( 1, file.size() / 37 ) ) {
        cuts.push_back( cut );
    }
    cuts.push_back( file.size() - 1 );
    cuts.push_back( file.size() / 2 );

    for ( const auto cut : cuts ) {
        const std::vector<std::uint8_t> truncated( file.begin(),
                                                   file.begin()
                                                   + static_cast<std::ptrdiff_t>( cut ) );
        bool rejected = false;
        try {
            const auto decoded = decompressOurs( truncated );
            /* A truncated multi-frame container can decode VALIDLY to a
             * prefix (e.g. cut exactly between gzip members/zstd frames) —
             * then the bytes must be a clean prefix of the original, never
             * garbage. */
            rejected = true;
            REQUIRE( decoded.size() <= original.size() );
            REQUIRE( std::equal( decoded.begin(), decoded.end(), original.begin() ) );
        } catch ( const RapidgzipError& ) {
            rejected = true;
        }
        REQUIRE( rejected );
    }
}

/** The answers of GzipReader (zlib), decompressAll(), decompress(sink)
 * and a fresh reader's size() + read() for @p file, the parallel readers
 * reading with @p configuration: the same bytes, or a throw from all of
 * them. A file zlib accepts is verified by the parallel pass alone: no
 * parallel reader falls back to the serial walk. Returns that answer. */
std::optional<std::vector<std::uint8_t> >
requireReadersAgree( const std::vector<std::uint8_t>& file,
                     const ChunkFetcherConfiguration& configuration = config() )
{
    const auto serial = answerOf( [&file] () {
        return GzipReader( std::make_unique<MemoryFileReader>( file ) ).decompressToVector();
    } );
    const auto metricsWereEnabled = telemetry::metricsEnabled();
    telemetry::setMetricsEnabled( true );
    const auto serialFallbacks = [] () {
        return telemetry::Registry::instance().counterTotal( "rapidgzip_serial_fallbacks_total" );
    };
    const auto fallbacksBefore = serialFallbacks();
    const auto count = answerOf( [&] () {
        return ParallelGzipReader( std::make_unique<MemoryFileReader>( file ), configuration ).decompressAll();
    } );
    const auto streamed = answerOf( [&] () {
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( file ), configuration );
        std::vector<std::uint8_t> bytes;
        const auto total = reader.decompress( [&bytes] ( BufferView view ) {
            bytes.insert( bytes.end(), view.begin(), view.end() );
        } );
        REQUIRE( total == bytes.size() );
        return bytes;
    } );
    REQUIRE( count.has_value() == serial.has_value() );
    REQUIRE( !count || ( *count == serial->size() ) );
    REQUIRE( streamed == serial );
    const auto readBack = answerOf( [&] () {
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( file ), configuration );
        std::vector<std::uint8_t> bytes( reader.size() );
        bytes.resize( reader.read( bytes.data(), bytes.size() ) );
        return bytes;
    } );
    REQUIRE( readBack == serial );
    const auto fallbacks = serialFallbacks() - fallbacksBefore;
    telemetry::setMetricsEnabled( metricsWereEnabled );
    REQUIRE( !serial || ( fallbacks == 0 ) );
    return serial;
}

/** Run salvage over @p file collecting output; no throw allowed. */
[[nodiscard]] std::pair<formats::SalvageReport, std::vector<std::uint8_t>>
salvageAll( const std::vector<std::uint8_t>& file )
{
    std::vector<std::uint8_t> output;
    const auto report = formats::salvageDecompress(
        BufferView{ file.data(), file.size() },
        [&output] ( BufferView view ) {
            output.insert( output.end(), view.begin(), view.end() );
        } );
    REQUIRE( report.recoveredBytes == output.size() );
    return { report, output };
}

/**
 * Flip single bytes at seeded positions in the Deflate data of @p file —
 * between each member's header and footer — and require the readers
 * (requireReadersAgree() with @p configuration) to agree on every flipped
 * file. The serial walk is our own decoder, so no
 * fallback hides a stream that zlib decodes and ours rejects. Salvage is
 * one more reader: it must recover exactly the members GzipReader accepts
 * when given each member's bytes alone, and report clean() exactly when
 * the strict readers return bytes.
 */
void
requireFlipsAgree( const std::vector<std::uint8_t>& file, std::uint64_t seed,
                   const ChunkFetcherConfiguration& configuration = config() )
{
    constexpr std::size_t FLIPS = 12;
    const MemoryFileReader reader( file );
    const auto header = readHeaderBytes( reader, 0 );
    auto memberStart = parseGzipHeader( { header.data(), header.size() } );
    const auto whole = GzipChunkFetcher::decodeChunkFromCheckpoint(
        reader, memberStart * 8, std::numeric_limits<std::size_t>::max(), {} );
    REQUIRE( whole.reachedStreamEnd );
    std::vector<std::pair<std::size_t, std::size_t> > deflateRanges;
    std::vector<std::pair<std::size_t, std::size_t> > memberRanges;  /* header to footer end */
    std::size_t deflateBytes = 0;
    for ( const auto& memberEnd : whole.memberEnds ) {
        deflateRanges.emplace_back( memberStart, memberEnd.footerStartByte );
        deflateBytes += memberEnd.footerStartByte - memberStart;
        const auto memberEndByte = memberEnd.footerStartByte + GZIP_FOOTER_SIZE;
        memberRanges.emplace_back( memberRanges.empty() ? 0 : memberRanges.back().second, memberEndByte );
        memberStart = nextGzipMember( reader, memberEndByte ).value_or( 0 );
    }

    Xorshift64 random( seed );
    for ( std::size_t i = 0; i < FLIPS; ++i ) {
        auto offset = random() % deflateBytes;
        auto range = deflateRanges.begin();
        while ( offset >= range->second - range->first ) {
            offset -= range->second - range->first;
            ++range;
        }
        auto flipped = file;
        flipped[range->first + offset] ^= static_cast<std::uint8_t>( 1 + random() % 255 );
        const auto strict = requireReadersAgree( flipped, configuration );

        std::vector<std::uint8_t> acceptedMembers;
        for ( const auto& [begin, end] : memberRanges ) {
            const std::vector<std::uint8_t> member( flipped.begin() + static_cast<std::ptrdiff_t>( begin ),
                                                    flipped.begin() + static_cast<std::ptrdiff_t>( end ) );
            const auto alone = answerOf( [&member] () {
                return GzipReader( std::make_unique<MemoryFileReader>( member ) ).decompressToVector();
            } );
            if ( alone ) {
                acceptedMembers.insert( acceptedMembers.end(), alone->begin(), alone->end() );
            }
        }
        const auto [report, output] = salvageAll( flipped );
        REQUIRE( output == acceptedMembers );
        REQUIRE( report.clean() == strict.has_value() );
    }
}

/** Raw Deflate of @p data with @p dictionary preset as its history. */
[[nodiscard]] std::vector<std::uint8_t>
rawDeflateWithDictionary( BufferView data, BufferView dictionary )
{
    z_stream stream{};
    REQUIRE( deflateInit2( &stream, 6, Z_DEFLATED, RAW_DEFLATE_WINDOW_BITS, 8, Z_DEFAULT_STRATEGY ) == Z_OK );
    if ( !dictionary.empty() ) {
        REQUIRE( deflateSetDictionary( &stream, dictionary.data(), static_cast<uInt>( dictionary.size() ) )
                 == Z_OK );
    }
    std::vector<std::uint8_t> result( deflateBound( &stream, static_cast<uLong>( data.size() ) ) );
    stream.next_in = const_cast<Bytef*>( data.data() );
    stream.avail_in = static_cast<uInt>( data.size() );
    stream.next_out = result.data();
    stream.avail_out = static_cast<uInt>( result.size() );
    REQUIRE( ::deflate( &stream, Z_FINISH ) == Z_STREAM_END );
    result.resize( stream.total_out );
    deflateEnd( &stream );
    return result;
}

/** A gzip member of @p payload around its raw Deflate data @p deflated:
 * a plain 10-byte header, or BGZF's 18-byte header with its BC field. */
[[nodiscard]] std::vector<std::uint8_t>
gzipMember( const std::vector<std::uint8_t>& deflated, BufferView payload, bool bgzf )
{
    std::vector<std::uint8_t> member{ GZIP_MAGIC_1, GZIP_MAGIC_2, GZIP_CM_DEFLATE,
                                      bgzf ? gzipflag::FEXTRA : std::uint8_t( 0 ), 0, 0, 0, 0, 0, 0xFF };
    const auto appendLE = [&member] ( std::size_t value, int bytes ) {
        for ( int i = 0; i < bytes; ++i ) {
            member.push_back( static_cast<std::uint8_t>( value >> ( 8 * i ) ) );
        }
    };
    if ( bgzf ) {
        appendLE( 6, 2 );  /* XLEN */
        member.insert( member.end(), { 'B', 'C', 2, 0 } );
        appendLE( 18 + deflated.size() + GZIP_FOOTER_SIZE - 1, 2 );  /* BSIZE - 1 */
    }
    member.insert( member.end(), deflated.begin(), deflated.end() );
    appendLE( simd::crc32( 0, payload.data(), payload.size() ), 4 );
    appendLE( payload.size(), 4 );
    return member;
}

/**
 * A back-reference may not reach into the previous member. The second
 * member is deflated with the first member's tail as its dictionary, and
 * both members' CRCs are valid, so only the decoder can catch a history
 * that runs across members. GzipReader rejects such a file, and so must
 * every reader on plain, pigz-like and BGZF-style layouts in which both
 * members fall in one chunk, and on a plain layout read with 128 KiB chunks
 * whose first member is longer than two chunk sizes, so that a guessed row
 * of the guess grid crosses into the second member. The same layouts with a
 * second member deflated without the dictionary decode to both payloads.
 */
void
testCrossMemberBackReference()
{
    constexpr std::size_t GUESSED_CHUNK_SIZE = 128 * KiB;
    const auto first = workloads::base64Data( 48 * KiB, 0xC805 );
    auto longFirst = workloads::base64Data( 592 * KiB, 0xC806 );
    longFirst.insert( longFirst.end(), first.begin(), first.end() );
    const BufferView firstView( first.data(), first.size() );
    const BufferView tail = firstView.subView( first.size() - deflate::WINDOW_SIZE, deflate::WINDOW_SIZE );
    const BufferView second = firstView.subView( first.size() - 8 * KiB, 8 * KiB );
    const auto appendSecond = [&second] ( std::vector<std::uint8_t> bytes ) {
        bytes.insert( bytes.end(), second.begin(), second.end() );
        return bytes;
    };

    auto bgzfFirst = writeBgzf( firstView, 6 );
    const std::vector<std::uint8_t> bgzfEof( bgzfFirst.end() - 28, bgzfFirst.end() );
    bgzfFirst.resize( bgzfFirst.size() - bgzfEof.size() );
    const auto longPlainFirst = compressGzipLike( { longFirst.data(), longFirst.size() }, 6 );
    REQUIRE( longPlainFirst.size() > 2 * GUESSED_CHUNK_SIZE );

    for ( const bool withDictionary : { true, false } ) {
        const auto deflated = rawDeflateWithDictionary( second, withDictionary ? tail : BufferView() );
        const auto plainSecond = gzipMember( deflated, second, false );
        const auto concatenate = [] ( std::vector<std::uint8_t> file,
                                      std::initializer_list<const std::vector<std::uint8_t>*> parts ) {
            for ( const auto* part : parts ) {
                file.insert( file.end(), part->begin(), part->end() );
            }
            return file;
        };
        const auto bgzfSecond = gzipMember( deflated, second, true );
        struct Layout
        {
            const char* name;
            std::vector<std::uint8_t> file;
            std::vector<std::uint8_t> expected;
            ChunkFetcherConfiguration configuration;
        };
        const std::vector<Layout> layouts = {
            { "plain", concatenate( compressGzipLike( firstView, 6 ), { &plainSecond } ),
              appendSecond( first ), config() },
            { "pigz-like", concatenate( compressPigzLike( firstView, 6, 16 * KiB ), { &plainSecond } ),
              appendSecond( first ), config() },
            { "BGZF-style", concatenate( bgzfFirst, { &bgzfSecond, &bgzfEof } ), appendSecond( first ), config() },
            { "plain, crossed by a guessed row", concatenate( longPlainFirst, { &plainSecond } ),
              appendSecond( longFirst ), config( GUESSED_CHUNK_SIZE ) },
        };
        for ( const auto& [name, file, expected, configuration] : layouts ) {
            std::printf( "  cross-member back-reference: %s, %s dictionary\n", name,
                         withDictionary ? "with" : "without" );
            std::fflush( stdout );
            requireReadersAgree( file, configuration );
            const auto serial = answerOf( [&file] () {
                return GzipReader( std::make_unique<MemoryFileReader>( file ) ).decompressToVector();
            } );
            REQUIRE( serial.has_value() != withDictionary );
            REQUIRE( !serial || ( *serial == expected ) );

            /* Both members in one chunk: the decode crosses the member
             * boundary inside one buffer. */
            const MemoryFileReader reader( file );
            const auto header = readHeaderBytes( reader, 0 );
            const auto chunk = answerOf( [&] () {
                return GzipChunkFetcher::decodeChunkFromCheckpoint(
                    reader, parseGzipHeader( { header.data(), header.size() } ) * 8,
                    std::numeric_limits<std::size_t>::max(), {} ).data;
            } );
            REQUIRE( chunk == serial );
        }
    }
}

/**
 * The probe on decoy sync markers that zlib rejects as well as accepts.
 * Real layouts only carry markers both accept, so stored data of a level-0
 * member carries a marker before each of: a valid raw Deflate stream whose
 * output overruns the probe's 8 KiB, the same text deflated against a
 * preset dictionary (its back-references reach before the marker), a
 * reserved block type, and a stored block whose NLEN is not ~LEN.
 */
void
testProbeOnDecoys()
{
    const auto text = workloads::base64Data( 12 * KiB, 0x9B0B );
    const BufferView view( text.data(), text.size() );
    const std::vector<std::vector<std::uint8_t> > decoys = {
        rawDeflateWithDictionary( view, {} ),
        rawDeflateWithDictionary( view, view ),
        { 0x07, 0xA5, 0x5A },              /* BFINAL 1, BTYPE 11 */
        { 0x00, 0x34, 0x12, 0x00, 0x00 },  /* stored, LEN 0x1234, NLEN 0 */
    };
    std::vector<std::uint8_t> payload;
    for ( std::size_t i = 0; i < 3; ++i ) {
        for ( const auto& decoy : decoys ) {
            const auto filler = workloads::base64Data( 3 * KiB, payload.size() );
            payload.insert( payload.end(), filler.begin(), filler.end() );
            payload.insert( payload.end(), { 0x00, 0x00, 0xFF, 0xFF } );
            payload.insert( payload.end(), decoy.begin(), decoy.end() );
        }
    }
    const auto file = compressGzipLike( { payload.data(), payload.size() }, 0 );
    REQUIRE( decompressWithZlib( { file.data(), file.size() } ) == payload );
    const auto verdicts = test::requireProbeAgreesWithZlib( file );
    std::printf( "  probe decoys: %zu accepted, %zu rejected\n", verdicts.accepted, verdicts.rejected );
    REQUIRE( verdicts.accepted >= 2 );
    REQUIRE( verdicts.rejected >= 6 );
}

/**
 * Two layouts whose first restart point ends more than two chunk sizes past
 * the first Deflate byte, so discovery returns that byte alone and the
 * sweep takes the two-stage pipeline: a pigz-like file whose flushes lie
 * more than two chunk sizes apart, and a plain member of more than two
 * chunk sizes followed by a pigz-like member. GzipReader, decompressAll(),
 * decompress(sink), size() + read() and salvage agree on both, intact
 * and under the flip sweep.
 */
void
testLayoutsPastTheFirstSearch( std::uint64_t seed )
{
    constexpr std::size_t CHUNK_SIZE = 32 * KiB;
    const auto text = workloads::base64Data( 512 * KiB + 321, seed );
    const auto plainPart = workloads::base64Data( 128 * KiB, seed + 1 );
    const auto fastq = workloads::fastqData( 256 * KiB, seed + 2 );
    auto plainThenPigzLike = compressGzipLike( { plainPart.data(), plainPart.size() }, 6 );
    const auto pigzLikeMember = compressPigzLike( { fastq.data(), fastq.size() }, 6, 16 * KiB );
    plainThenPigzLike.insert( plainThenPigzLike.end(), pigzLikeMember.begin(), pigzLikeMember.end() );
    auto plainThenPigzLikeData = plainPart;
    plainThenPigzLikeData.insert( plainThenPigzLikeData.end(), fastq.begin(), fastq.end() );

    struct Layout
    {
        const char* name;
        std::vector<std::uint8_t> file;
        std::vector<std::uint8_t> data;
    };
    const std::vector<Layout> layouts = {
        { "pigz-like, flushes more than two chunk sizes apart",
          compressPigzLike( { text.data(), text.size() }, 6, 256 * KiB ), text },
        { "plain member, then a pigz-like one", plainThenPigzLike, plainThenPigzLikeData },
    };
    for ( const auto& layout : layouts ) {
        std::printf( "  restart points past the first search: %s\n", layout.name );
        std::fflush( stdout );
        const MemoryFileReader reader( layout.file );
        const auto markers = findFullFlushMarkers( reader, 0, layout.file.size() );
        REQUIRE( !markers.empty() );
        const auto starts = discoverRestartPoints( reader, CHUNK_SIZE );
        REQUIRE( ( starts.size() == 1 ) && ( markers.front() - starts.front() > 2 * CHUNK_SIZE ) );

        REQUIRE( requireReadersAgree( layout.file, config( CHUNK_SIZE ) ) == layout.data );
        const auto [report, output] = salvageAll( layout.file );
        REQUIRE( report.clean() );
        REQUIRE( output == layout.data );
        requireFlipsAgree( layout.file, seed++, config( CHUNK_SIZE ) );
    }
}

/**
 * Concatenated plain members, the layout no restart point marks: members of
 * 4 KiB and of 32 KiB, one compressGzipLike() call each, and a member whose
 * stored block carries a complete gzip member as a decoy, followed by a
 * plain member. Read with 128 KiB chunks, the guessed rows of the guess
 * grid cross many member ends. GzipReader, decompressAll(),
 * decompress(sink), size() + read() and salvage agree on each, intact
 * and under the flip sweep.
 */
void
testConcatenatedMembers( std::uint64_t seed )
{
    constexpr std::size_t CHUNK_SIZE = 128 * KiB;
    const auto members = [] ( const std::vector<std::uint8_t>& data, std::size_t memberSize ) {
        std::vector<std::uint8_t> file;
        for ( std::size_t offset = 0; offset < data.size(); offset += memberSize ) {
            const auto member = compressGzipLike(
                { data.data() + offset, std::min( memberSize, data.size() - offset ) }, 6 );
            file.insert( file.end(), member.begin(), member.end() );
        }
        return file;
    };
    const auto text = workloads::base64Data( 384 * KiB + 123, seed );

    auto decoyData = workloads::base64Data( 200 * KiB, seed + 1 );
    const auto decoyText = workloads::base64Data( 16 * KiB, seed + 2 );
    const auto decoy = compressGzipLike( { decoyText.data(), decoyText.size() }, 6 );
    decoyData.insert( decoyData.begin() + 150 * KiB, decoy.begin(), decoy.end() );
    auto decoyFile = compressGzipLike( { decoyData.data(), decoyData.size() }, 0 );
    const auto after = workloads::fastqData( 96 * KiB, seed + 3 );
    const auto afterMember = compressGzipLike( { after.data(), after.size() }, 6 );
    decoyFile.insert( decoyFile.end(), afterMember.begin(), afterMember.end() );
    decoyData.insert( decoyData.end(), after.begin(), after.end() );

    struct Layout
    {
        const char* name;
        std::vector<std::uint8_t> file;
        const std::vector<std::uint8_t>& data;
    };
    const std::vector<Layout> layouts = {
        { "4 KiB members", members( text, 4 * KiB ), text },
        { "32 KiB members", members( text, 32 * KiB ), text },
        { "a stored member carrying a decoy member, then a plain one", decoyFile, decoyData },
    };
    for ( const auto& layout : layouts ) {
        std::printf( "  concatenated members: %s (%zu bytes)\n", layout.name, layout.file.size() );
        std::fflush( stdout );
        REQUIRE( findFullFlushMarkers( MemoryFileReader( layout.file ), 0, layout.file.size() ).empty() );
        REQUIRE( requireReadersAgree( layout.file, config( CHUNK_SIZE ) ) == layout.data );
        const auto [report, output] = salvageAll( layout.file );
        REQUIRE( report.clean() );
        REQUIRE( output == layout.data );
        requireFlipsAgree( layout.file, seed++, config( CHUNK_SIZE ) );
    }
}

/**
 * A sync-flushed stream: 24 segments of 64 KiB with a Z_SYNC_FLUSH between
 * them, each segment referring to the one before, read with 32 KiB chunks.
 * Its restart points need the history before them, so their rows fall back
 * to guesses from the same start, and flipped bytes make the exact decodes
 * of some rows fail for the data. GzipReader, decompressAll(),
 * decompress(sink), size() + read() and salvage agree, intact and under
 * the flip sweep.
 */
void
testSyncFlushedStream( std::uint64_t seed )
{
    constexpr std::size_t CHUNK_SIZE = 32 * KiB;
    const auto stream = test::syncFlushedStream( 24, seed );
    std::printf( "  sync-flushed stream (%zu bytes)\n", stream.bytes.size() );
    std::fflush( stdout );
    REQUIRE( discoverRestartPoints( MemoryFileReader( stream.bytes ), CHUNK_SIZE ).size() > 2 );
    REQUIRE( requireReadersAgree( stream.bytes, config( CHUNK_SIZE ) ) == stream.decoded );
    const auto [report, output] = salvageAll( stream.bytes );
    REQUIRE( report.clean() );
    REQUIRE( output == stream.decoded );
    requireFlipsAgree( stream.bytes, seed, config( CHUNK_SIZE ) );
}

void
testGzipDifferential( const Corpus& corpus, std::uint64_t seed )
{
    const BufferView span{ corpus.data.data(), corpus.data.size() };

    /* Our parallel reader vs the vendor (zlib) oracle, single member. */
    const auto file = compressGzipLike( { corpus.data.data(), corpus.data.size() }, 6 );
    REQUIRE( formats::detectFormat( { file.data(), file.size() } ) == formats::Format::GZIP );
    REQUIRE( decompressOurs( file ) == corpus.data );
    REQUIRE( decompressWithZlib( { file.data(), file.size() } ) == corpus.data );

    /* Multi-member (concatenated gzip). */
    auto concatenated = file;
    const auto second = compressGzipLike( { corpus.data.data(), corpus.data.size() / 2 }, 1 );
    concatenated.insert( concatenated.end(), second.begin(), second.end() );
    std::vector<std::uint8_t> expected = corpus.data;
    expected.insert( expected.end(), corpus.data.begin(),
                     corpus.data.begin() + static_cast<std::ptrdiff_t>( corpus.data.size() / 2 ) );
    REQUIRE( decompressOurs( concatenated ) == expected );

    requireTruncationsRejected( file, corpus.data );

    /* The restart-point layouts: pigz-like full flushes (marker-derived
     * checkpoints) and BGZF (several members per chunk), both decoded by the
     * checkpoint decode that crosses member boundaries. */
    const auto pigzLike = compressPigzLike( span, 6, 64 * KiB );
    const auto bgzf = writeBgzf( span, 6 );
    for ( const auto* layout : { &pigzLike, &bgzf } ) {
        REQUIRE( decompressWithZlib( { layout->data(), layout->size() } ) == corpus.data );
        REQUIRE( decompressOurs( *layout ) == corpus.data );
        requireTruncationsRejected( *layout, corpus.data );
        (void)test::requireProbeAgreesWithZlib( *layout );
    }
    for ( const auto* layout : { &file, &pigzLike, &bgzf } ) {
        requireFlipsAgree( *layout, seed++ );
    }
}

#if defined( RAPIDGZIP_HAVE_VENDOR_LZ4 )
/** Frame walk mirroring the spec (not our reader), bytes via vendor
 * blocks: replays the file as liblz4 would see each block. Only the
 * profile our writer emits needs supporting here. */
class Lz4BlockOracle
{
public:
    explicit Lz4BlockOracle( std::vector<std::uint8_t> file ) :
        m_file( std::move( file ) )
    {}

    [[nodiscard]] std::vector<std::uint8_t>
    decodeAll()
    {
        std::vector<std::uint8_t> result;
        std::size_t offset = 0;
        const auto le32 = [this] ( std::size_t at ) {
            return formats::readLE32( m_file.data() + at );
        };
        while ( offset < m_file.size() ) {
            const auto magic = le32( offset );
            if ( ( magic & formats::ZSTD_SKIPPABLE_MAGIC_MASK )
                 == formats::ZSTD_SKIPPABLE_MAGIC_BASE ) {
                offset += 8 + le32( offset + 4 );
                continue;
            }
            REQUIRE( magic == formats::LZ4_FRAME_MAGIC );
            const auto flg = m_file[offset + 4];
            const auto bd = m_file[offset + 5];
            const bool blockChecksums = ( flg & 0x10U ) != 0;
            const bool contentSize = ( flg & 0x08U ) != 0;
            const bool contentChecksum = ( flg & 0x04U ) != 0;
            const auto blockMaxSize = formats::Lz4Writer::blockMaxSizeBytes(
                static_cast<formats::Lz4Writer::BlockMaxSize>( ( bd >> 4U ) & 0x7U ) );
            offset += 4 + 2 + ( contentSize ? 8 : 0 ) + 1;

            while ( true ) {
                const auto header = le32( offset );
                offset += 4;
                if ( header == 0 ) {
                    break;
                }
                const bool stored = ( header & 0x80000000U ) != 0;
                const auto dataSize = header & 0x7FFFFFFFU;
                if ( stored ) {
                    result.insert( result.end(),
                                   m_file.begin() + static_cast<std::ptrdiff_t>( offset ),
                                   m_file.begin()
                                   + static_cast<std::ptrdiff_t>( offset + dataSize ) );
                } else {
                    std::vector<std::uint8_t> decoded( blockMaxSize );
                    const auto size = formats::vendorLz4DecompressBlock(
                        { m_file.data() + offset, dataSize }, decoded.data(), decoded.size() );
                    result.insert( result.end(), decoded.begin(),
                                   decoded.begin() + static_cast<std::ptrdiff_t>( size ) );
                }
                offset += dataSize + ( blockChecksums ? 4 : 0 );
            }
            offset += contentChecksum ? 4 : 0;
        }
        return result;
    }

private:
    std::vector<std::uint8_t> m_file;
};
#endif

void
testLz4Differential( const Corpus& corpus )
{
    const BufferView span{ corpus.data.data(), corpus.data.size() };

    /* Block-level differential, both directions, before any framing. */
#if defined( RAPIDGZIP_HAVE_VENDOR_LZ4 )
    {
        const auto blockInput = span.subView( 0, 64 * KiB );
        const auto ourBlock = formats::lz4CompressBlock( blockInput );
        std::vector<std::uint8_t> vendorDecoded( blockInput.size() );
        const auto vendorSize = formats::vendorLz4DecompressBlock(
            { ourBlock.data(), ourBlock.size() }, vendorDecoded.data(), vendorDecoded.size() );
        REQUIRE( vendorSize == blockInput.size() );
        REQUIRE( std::equal( vendorDecoded.begin(), vendorDecoded.end(), blockInput.begin() ) );

        const auto vendorBlock = formats::vendorLz4CompressBlock( blockInput );
        std::vector<std::uint8_t> ourDecoded;
        formats::lz4DecompressBlock( { vendorBlock.data(), vendorBlock.size() }, ourDecoded,
                                     0, blockInput.size() );
        REQUIRE( ourDecoded.size() == blockInput.size() );
        REQUIRE( std::equal( ourDecoded.begin(), ourDecoded.end(), blockInput.begin() ) );
    }
#endif

    /* Frame level: our writer → our parallel reader, both block sizes. */
    for ( const auto blockSize : { formats::Lz4Writer::BlockMaxSize::KIB64,
                                   formats::Lz4Writer::BlockMaxSize::KIB256 } ) {
        const auto file = formats::writeLz4( span, blockSize );
        REQUIRE( formats::detectFormat( { file.data(), file.size() } ) == formats::Format::LZ4 );
        REQUIRE( decompressOurs( file ) == corpus.data );

#if defined( RAPIDGZIP_HAVE_VENDOR_LZ4 )
        /* Vendor oracle on every framed block our writer produced: parse
         * with the frame walk (shared), decode blocks with liblz4. */
        Lz4BlockOracle oracle( file );
        REQUIRE( oracle.decodeAll() == corpus.data );
#endif
    }

    /* Multi-frame: two frames back to back plus a skippable frame. */
    {
        std::vector<std::uint8_t> file;
        formats::Lz4Writer::writeFrame( file, span, formats::Lz4Writer::BlockMaxSize::KIB64 );
        const std::vector<std::uint8_t> metadata{ 'm', 'e', 't', 'a' };
        formats::Lz4Writer::writeSkippableFrame( file, { metadata.data(), metadata.size() } );
        formats::Lz4Writer::writeFrame( file, span.subView( 0, corpus.data.size() / 2 ),
                                        formats::Lz4Writer::BlockMaxSize::KIB64 );
        std::vector<std::uint8_t> expected = corpus.data;
        expected.insert( expected.end(), corpus.data.begin(),
                         corpus.data.begin()
                         + static_cast<std::ptrdiff_t>( corpus.data.size() / 2 ) );
        REQUIRE( decompressOurs( file ) == expected );
        requireTruncationsRejected( file, expected );
    }
}

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
void
testZstdDifferential( const Corpus& corpus )
{
    const BufferView span{ corpus.data.data(), corpus.data.size() };

    /* Seekable (frame-parallel) and plain multi-frame layouts. */
    for ( const bool seekable : { true, false } ) {
        const auto file = seekable ? formats::writeZstdSeekable( span, 3, 256 * KiB )
                                   : formats::writeZstdFrames( span, 3, 256 * KiB );
        REQUIRE( formats::detectFormat( { file.data(), file.size() } ) == formats::Format::ZSTD );

        /* Ours vs vendor streaming oracle vs ground truth. */
        REQUIRE( decompressOurs( file ) == corpus.data );
        REQUIRE( formats::vendorZstdDecompressAll( { file.data(), file.size() } )
                 == corpus.data );

        auto decompressor = formats::makeDecompressor(
            std::make_unique<MemoryFileReader>( file ), config() );
        REQUIRE( decompressor->parallelizable() );
        REQUIRE( decompressor->size() == corpus.data.size() );
    }

    const auto file = formats::writeZstdSeekable( span, 3, 256 * KiB );
    requireTruncationsRejected( file, corpus.data );
}
#endif

#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
void
testBzip2Differential( const Corpus& corpus )
{
    const BufferView span{ corpus.data.data(), corpus.data.size() };

    for ( const int level : { 1, 9 } ) {
        const auto file = formats::writeBzip2( span, level );
        REQUIRE( formats::detectFormat( { file.data(), file.size() } )
                 == formats::Format::BZIP2 );
        REQUIRE( decompressOurs( file ) == corpus.data );
        REQUIRE( formats::vendorBzip2DecompressAll( { file.data(), file.size() } )
                 == corpus.data );
    }

    /* Multi-stream (bzip2 -c a >> out; bzip2 -c b >> out). */
    {
        auto file = formats::writeBzip2( span, 1 );
        const auto second = formats::writeBzip2( span.subView( 0, corpus.data.size() / 2 ), 1 );
        file.insert( file.end(), second.begin(), second.end() );
        std::vector<std::uint8_t> expected = corpus.data;
        expected.insert( expected.end(), corpus.data.begin(),
                         corpus.data.begin()
                         + static_cast<std::ptrdiff_t>( corpus.data.size() / 2 ) );

        auto decompressor = formats::makeDecompressor(
            std::make_unique<MemoryFileReader>( file ), config() );
        REQUIRE( decompressor->parallelizable() );  /* scan follows both streams */
        std::vector<std::uint8_t> decoded;
        (void)decompressor->decompress( [&decoded] ( BufferView view ) {
            decoded.insert( decoded.end(), view.begin(), view.end() );
        } );
        REQUIRE( decoded == expected );
    }

    const auto file = formats::writeBzip2( span, 1 );
    requireTruncationsRejected( file, corpus.data );
}
#endif

/* --- corruption matrix -------------------------------------------------- */

/** @p output must be exactly the in-order concatenation of a subset of
 * @p blocks; returns which blocks made it. Block contents are distinct
 * (different seeds), so the greedy match is unambiguous. */
[[nodiscard]] std::vector<bool>
matchConcatSubset( const std::vector<std::uint8_t>& output,
                   const std::vector<std::vector<std::uint8_t>>& blocks )
{
    std::vector<bool> included( blocks.size(), false );
    std::size_t position = 0;
    for ( std::size_t i = 0; i < blocks.size(); ++i ) {
        const auto& block = blocks[i];
        if ( ( position + block.size() <= output.size() )
             && ( std::memcmp( output.data() + position, block.data(), block.size() ) == 0 ) ) {
            included[i] = true;
            position += block.size();
        }
    }
    REQUIRE( position == output.size() );
    return included;
}

/** Strict (non-salvage) decode of damaged input: must throw RapidgzipError
 * or produce a clean prefix of @p original — never crash, hang, or emit
 * bytes that differ from the original. */
void
requireStrictContainment( const std::vector<std::uint8_t>& corrupted,
                          const std::vector<std::uint8_t>& original )
{
    try {
        const auto decoded = decompressOurs( corrupted );
        REQUIRE( decoded.size() <= original.size() );
        REQUIRE( std::equal( decoded.begin(), decoded.end(), original.begin() ) );
    } catch ( const RapidgzipError& ) {
        /* typed rejection is the expected common outcome */
    }
}

/**
 * The corruption matrix the robustness acceptance asks for: per backend,
 * an archive of four independent units (members / frames / streams) is
 * damaged by single-byte flips (unit magic, and mid-unit for the formats
 * whose units carry checksums) and by mid-unit truncation. Without
 * salvage every damaged variant must throw or yield a clean prefix; with
 * salvage the undamaged units must come back byte-exact with the damage
 * reported as byte-ranged holes.
 */
void
testCorruptionMatrix()
{
    constexpr std::size_t BLOCK_SIZE = 24 * KiB;
    constexpr std::size_t BLOCK_COUNT = 4;

    struct Layout
    {
        std::string name;
        std::vector<std::uint8_t> file;
        std::vector<std::size_t> unitOffsets;
        /** Units carry their own integrity check, so mid-unit flips are
         * guaranteed to be detected (zstd frames here carry none). */
        bool checksummedUnits{ true };
    };

    std::vector<std::vector<std::uint8_t>> blocks;
    for ( std::size_t i = 0; i < BLOCK_COUNT; ++i ) {
        blocks.push_back( workloads::base64Data( BLOCK_SIZE, 900 + i ) );
    }
    std::vector<std::uint8_t> reference;
    for ( const auto& block : blocks ) {
        reference.insert( reference.end(), block.begin(), block.end() );
    }

    const auto concatenate = [&blocks] ( const std::string& name,
                                         const auto& writeUnit,
                                         bool checksummedUnits ) {
        Layout layout;
        layout.name = name;
        layout.checksummedUnits = checksummedUnits;
        for ( const auto& block : blocks ) {
            layout.unitOffsets.push_back( layout.file.size() );
            const auto unit = writeUnit( BufferView{ block.data(), block.size() } );
            layout.file.insert( layout.file.end(), unit.begin(), unit.end() );
        }
        return layout;
    };

    std::vector<Layout> layouts;
    layouts.push_back( concatenate( "gzip", [] ( BufferView span ) {
        return compressGzipLike( span, 6 );
    }, true ) );
    layouts.push_back( concatenate( "lz4", [] ( BufferView span ) {
        return formats::writeLz4( span, formats::Lz4Writer::BlockMaxSize::KIB64 );
    }, true ) );
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
    layouts.push_back( concatenate( "zstd", [] ( BufferView span ) {
        return formats::writeZstdFrames( span, 3, 256 * KiB );
    }, false ) );
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
    layouts.push_back( concatenate( "bzip2", [] ( BufferView span ) {
        return formats::writeBzip2( span, 1 );
    }, true ) );
#endif

    for ( const auto& layout : layouts ) {
        std::printf( "  corruption matrix: %s (%zu bytes)\n",
                     layout.name.c_str(), layout.file.size() );
        std::fflush( stdout );

        /* Intact archive: salvage is a no-op recovery — clean report, all
         * units, byte-exact against the strict decode. A failing sink (a
         * full disk under rapidgzip-cat) aborts salvage; it is no damaged
         * unit to skip. */
        {
            const auto [report, output] = salvageAll( layout.file );
            REQUIRE( report.clean() );
            REQUIRE( report.recoveredUnits == BLOCK_COUNT );
            REQUIRE( output == reference );
            REQUIRE( decompressOurs( layout.file ) == reference );
            REQUIRE_THROWS_AS( (void)formats::salvageDecompress(
                                   BufferView{ layout.file.data(), layout.file.size() },
                                   [] ( BufferView ) { throw FileIoError( "sink failed" ); } ),
                               FileIoError );
        }

        const auto unitEnd = [&layout] ( std::size_t i ) {
            return i + 1 < layout.unitOffsets.size() ? layout.unitOffsets[i + 1]
                                                     : layout.file.size();
        };

        /* Single-byte flips. Magic-byte flips hide a unit from any
         * scanner; mid-unit flips must trip the unit's own checksum. */
        std::vector<std::pair<std::size_t, std::size_t>> flips;  /* unit, offset */
        for ( const std::size_t unit : { std::size_t( 0 ), std::size_t( 1 ),
                                         BLOCK_COUNT - 1 } ) {
            flips.emplace_back( unit, layout.unitOffsets[unit] );
        }
        if ( layout.checksummedUnits ) {
            flips.emplace_back( 2, ( layout.unitOffsets[2] + unitEnd( 2 ) ) / 2 );
        }

        for ( const auto& [unit, flipOffset] : flips ) {
            auto corrupted = layout.file;
            corrupted[flipOffset] ^= 0x40U;

            std::printf( "    flip unit %zu offset %zu\n", unit, flipOffset );
            std::fflush( stdout );
            requireStrictContainment( corrupted, reference );

            const auto [report, output] = salvageAll( corrupted );
            const auto included = matchConcatSubset( output, blocks );
            for ( std::size_t i = 0; i < BLOCK_COUNT; ++i ) {
                if ( i != unit ) {
                    REQUIRE( included[i] );  /* undamaged units always recover */
                }
            }
            if ( !included[unit] ) {
                /* The damaged unit was lost: its bytes must be accounted
                 * for as holes inside the file. */
                REQUIRE( !report.clean() );
                REQUIRE( report.missingCompressedBytes() > 0 );
                for ( const auto& hole : report.holes ) {
                    REQUIRE( hole.compressedBegin < hole.compressedEnd );
                    REQUIRE( hole.compressedEnd <= corrupted.size() );
                }
            }
        }

        /* Mid-unit truncation: everything before the cut recovers, the
         * tail is reported as a hole reaching the (truncated) EOF. */
        {
            const auto cut = ( layout.unitOffsets[2] + unitEnd( 2 ) ) / 2;
            const std::vector<std::uint8_t> truncated( layout.file.begin(),
                                                       layout.file.begin()
                                                       + static_cast<std::ptrdiff_t>( cut ) );

            requireStrictContainment( truncated, reference );

            const auto [report, output] = salvageAll( truncated );
            const auto included = matchConcatSubset( output, blocks );
            REQUIRE( included[0] );
            REQUIRE( included[1] );
            REQUIRE( !included[3] );  /* entirely beyond the cut */
            REQUIRE( !report.clean() );
            REQUIRE( !report.holes.empty() );
            REQUIRE( report.holes.back().compressedEnd == truncated.size() );
        }
    }
}

/**
 * Intact lz4 archives with a skippable frame: between the two data frames,
 * and ahead of the first. Salvage must route both to lz4, count the
 * skippable frame as covered bytes, and return the strict decode's bytes.
 */
void
testSalvageLz4SkippableFrames()
{
    const auto first = workloads::base64Data( 100'000, 0x5A1 );
    const auto second = workloads::base64Data( 100'000, 0x5A2 );
    const auto firstFrame = formats::writeLz4( { first.data(), first.size() } );
    const auto secondFrame = formats::writeLz4( { second.data(), second.size() } );
    const std::vector<std::uint8_t> payload( 16, 0xA5 );
    std::vector<std::uint8_t> skippable;
    formats::Lz4Writer::writeSkippableFrame( skippable, { payload.data(), payload.size() }, 3 );

    const auto concatenate = [] ( std::initializer_list<const std::vector<std::uint8_t>*> parts ) {
        std::vector<std::uint8_t> result;
        for ( const auto* part : parts ) {
            result.insert( result.end(), part->begin(), part->end() );
        }
        return result;
    };
    const std::vector<std::pair<const char*, std::vector<std::uint8_t> > > layouts = {
        { "between the frames", concatenate( { &firstFrame, &skippable, &secondFrame } ) },
        { "ahead of the first frame", concatenate( { &skippable, &firstFrame, &secondFrame } ) },
    };
    for ( const auto& [name, file] : layouts ) {
        std::printf( "  salvage lz4 with a skippable frame %s\n", name );
        std::fflush( stdout );
        const auto strict = decompressOurs( file );
        REQUIRE( strict == concatenate( { &first, &second } ) );
        const auto [report, output] = salvageAll( file );
        REQUIRE( report.clean() );
        REQUIRE( report.format == formats::Format::LZ4 );
        REQUIRE( report.recoveredUnits == 2 );
        REQUIRE( output == strict );
    }
}

}  // namespace

int
main()
{
    const std::uint64_t seed = 0xD1FFE2E47ULL;
    std::printf( "differential scale %.3f, seed %llu\n", diffScale(),
                 static_cast<unsigned long long>( seed ) );

    auto flipSeed = seed;
    for ( const auto& corpus : buildCorpora( seed ) ) {
        std::printf( "  corpus %-12s (%zu bytes)\n", corpus.name.c_str(), corpus.data.size() );
        std::fflush( stdout );
        testGzipDifferential( corpus, flipSeed += 16 );
        testLz4Differential( corpus );
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
        testZstdDifferential( corpus );
#endif
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
        testBzip2Differential( corpus );
#endif
    }
    testCrossMemberBackReference();
    testLayoutsPastTheFirstSearch( seed );
    testConcatenatedMembers( seed );
    testSyncFlushedStream( seed );
    testProbeOnDecoys();
    testCorruptionMatrix();
    testSalvageLz4SkippableFrames();
    return rapidgzip::test::finish( "testDifferential" );
}
