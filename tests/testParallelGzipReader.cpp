/**
 * core layer: ParallelGzipReader must reproduce the serial decoder's output
 * exactly — decompressAll counts, random access reads, index export/import,
 * and single-chunk files without any flush markers.
 * On every base (plain, pigz-like, BGZF) with every kind of trailing bytes
 * (padding, cut or damaged members, intact members), GzipReader,
 * decompressAll() and a fresh reader's size() + read() agree; a sync
 * marker inside stored data never makes size()/read() return unverified
 * bytes, and a restart point at a member's footer never drops the members
 * after it. A member header with a wrong FHCRC or a reserved flag bit is
 * rejected wherever it sits, as `gzip -d` rejects it. The restart-point
 * probe accepts the decoy markers exactly when zlib does. A checkpoint
 * decode reads its compressed span once, whatever the number of members in
 * it. Restart-point discovery returns the whole-file scan's table, or the
 * first start alone when no restart point lies within two chunk sizes of
 * it, and reads one chunk size of a plain member. An ordered pass keeps
 * max(2P, 4) chunks decoding ahead from its first chunk without wasting
 * one, and reads outside a pass prefetch min(P, 2^streak) chunks ahead,
 * counted in the registry. A fetcher on a shared tier decodes on the
 * tier's pool and joins nothing when it goes. A guessed chunk that starts
 * inside an incompressible stretch must bound its block search at the
 * stored block it decodes from. False
 * restart points cost one re-decode each in a single pass, and a
 * sync-flushed stream, whose restart points need the history before them,
 * decodes each row once, through a shared cache too. A guess at the LEN
 * field of a member's final stored block is re-decoded in place instead of
 * sending the file to the serial walk.
 */

#include <zlib.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "blockfinder/NonCompressedBlockFinder.hpp"
#include "core/ParallelGzipReader.hpp"
#include "gzip/BgzfWriter.hpp"
#include "gzip/GzipReader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "index/BgzfIndex.hpp"
#include "io/MemoryFileReader.hpp"
#include "telemetry/Registry.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"
#include "GzipTestHelpers.hpp"

using namespace rapidgzip;
using rapidgzip::test::answerOf;
using rapidgzip::test::GzipFile;

namespace {

ChunkFetcherConfiguration
config( std::size_t parallelism, std::size_t chunkSize )
{
    ChunkFetcherConfiguration result;
    result.parallelism = parallelism;
    result.chunkSizeBytes = chunkSize;
    return result;
}

/** The chunk fetchers' registry counters in the process so far, while
 * metrics are enabled. */
struct FetcherCounts
{
    std::uint64_t issued{ 0 };    /**< speculative decodes submitted */
    std::uint64_t consumed{ 0 };  /**< accesses served by a speculative decode */
    std::uint64_t wasted{ 0 };    /**< speculative decodes evicted unused */
    std::uint64_t onDemand{ 0 };  /**< accesses that decoded synchronously */

    [[nodiscard]] static FetcherCounts
    now()
    {
        const auto& registry = telemetry::Registry::instance();
        return { registry.counterTotal( "rapidgzip_prefetch_issued_total" ),
                 registry.counterTotal( "rapidgzip_prefetch_consumed_total" ),
                 registry.counterTotal( "rapidgzip_prefetch_wasted_total" ),
                 registry.counterTotal( "rapidgzip_chunk_on_demand_decodes_total" ) };
    }

    [[nodiscard]] FetcherCounts
    operator-( const FetcherCounts& before ) const
    {
        return { issued - before.issued, consumed - before.consumed, wasted - before.wasted,
                 onDemand - before.onDemand };
    }
};

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

/** A fresh reader's size() and then read() of everything. */
[[nodiscard]] std::vector<std::uint8_t>
sizeThenRead( const std::vector<std::uint8_t>& file, const ChunkFetcherConfiguration& configuration )
{
    ParallelGzipReader reader( std::make_unique<MemoryFileReader>( file ), configuration );
    std::vector<std::uint8_t> bytes( reader.size() + 16 );
    bytes.resize( reader.read( bytes.data(), bytes.size() ) );
    return bytes;
}

/**
 * @p member, whose header has no optional fields, with an FHCRC field: the
 * low 16 bits of the CRC32 of the header, or that value with one bit flipped.
 */
[[nodiscard]] std::vector<std::uint8_t>
withHeaderCrc( std::vector<std::uint8_t> member, bool correct )
{
    const auto headerSize = parseGzipHeader( { member.data(), member.size() } );
    member[3] |= gzipflag::FHCRC;
    const auto crc16 = ( simd::crc32( 0, member.data(), headerSize ) & 0xFFFFU ) ^ ( correct ? 0U : 1U );
    const std::uint8_t field[2] = { static_cast<std::uint8_t>( crc16 ), static_cast<std::uint8_t>( crc16 >> 8U ) };
    member.insert( member.begin() + static_cast<std::ptrdiff_t>( headerSize ), field, field + 2 );
    return member;
}

/**
 * The reader-agreement matrix: each base — plain gzip (two-stage sweep),
 * pigz-like (marker-derived checkpoints), BGZF (BC-field index), and plain
 * gzip whose header carries a wrong FHCRC — with each tail: none, 512 zero
 * bytes, a bare `1f 8b`, `1f 8b 08`, and a pigz-like second member that is
 * damaged in its magic, damaged in its body, intact, or intact with a wrong
 * FHCRC, a reserved flag bit or a correct FHCRC. In every cell GzipReader,
 * decompressAll() (count and streamed bytes) and a fresh reader's size() +
 * read() return the same bytes, or all throw RapidgzipError.
 */
void
testReadersAgreeOnTrailingBytes()
{
    const auto data = workloads::base64Data( 512 * KiB + 4321, 0xF00D );
    const auto extra = workloads::fastqData( 1 * MiB, 0xFA57 );
    const auto member = compressPigzLike( { extra.data(), extra.size() }, 6, 64 * KiB );
    const auto plain = compressGzipLike( { data.data(), data.size() }, 6 );

    struct Base
    {
        const char* name;
        std::vector<std::uint8_t> bytes;
        bool serialDecodes;  /**< false: GzipReader rejects the base itself */
    };
    const std::vector<Base> bases = {
        { "plain", plain, true },
        { "pigz-like", compressPigzLike( { data.data(), data.size() }, 6, 64 * KiB ), true },
        { "BGZF", writeBgzf( { data.data(), data.size() }, 6 ), true },
        { "plain with wrong FHCRC", withHeaderCrc( plain, false ), false },
    };
    auto damagedMagic = member;
    damagedMagic[1] ^= 0x01U;
    auto damagedBody = member;
    damagedBody[damagedBody.size() / 2] ^= 0x10U;
    auto reservedFlag = member;
    reservedFlag[3] |= 0x20U;
    struct Tail
    {
        const char* name;
        std::vector<std::uint8_t> bytes;
        bool serialDecodes;  /**< false: GzipReader reports a truncated or corrupt stream */
    };
    const std::vector<Tail> tails = {
        { "no tail", {}, true },
        { "512 zero bytes", std::vector<std::uint8_t>( 512, 0 ), true },
        { "1f 8b", { GZIP_MAGIC_1, GZIP_MAGIC_2 }, false },
        { "1f 8b 08", { GZIP_MAGIC_1, GZIP_MAGIC_2, GZIP_CM_DEFLATE }, false },
        { "member with damaged magic", damagedMagic, true },  /* padding, like `gzip -d` */
        { "member with flipped body byte", damagedBody, false },
        { "intact member", member, true },
        { "member with wrong FHCRC", withHeaderCrc( member, false ), false },
        { "member with a reserved flag bit", reservedFlag, false },
        { "member with correct FHCRC", withHeaderCrc( member, true ), true },
    };

    const auto configuration = config( 4, 128 * KiB );
    for ( const auto& base : bases ) {
        for ( const auto& tail : tails ) {
            auto file = base.bytes;
            file.insert( file.end(), tail.bytes.begin(), tail.bytes.end() );

            const auto serial = answerOf( [&file] () {
                return GzipReader( std::make_unique<MemoryFileReader>( file ) ).decompressToVector();
            } );
            const auto count = answerOf( [&] () {
                return ParallelGzipReader( std::make_unique<MemoryFileReader>( file ),
                                           configuration ).decompressAll();
            } );
            const auto streamed = answerOf( [&] () {
                ParallelGzipReader reader( std::make_unique<MemoryFileReader>( file ), configuration );
                std::vector<std::uint8_t> bytes;
                const auto total = reader.decompressAll( [&bytes] ( BufferView view ) {
                    bytes.insert( bytes.end(), view.begin(), view.end() );
                } );
                REQUIRE( total == bytes.size() );
                return bytes;
            } );
            const auto readBack = answerOf( [&] () { return sizeThenRead( file, configuration ); } );

            REQUIRE( serial.has_value() == ( base.serialDecodes && tail.serialDecodes ) );
            const bool agree = ( count.has_value() == serial.has_value() )
                               && ( !count || ( *count == serial->size() ) )
                               && ( streamed == serial ) && ( readBack == serial );
            if ( !agree ) {
                std::fprintf( stderr, "Readers disagree on %s + %s\n", base.name, tail.name );
            }
            REQUIRE( agree );
        }
    }
}

/**
 * A gzip member holding @p payload in stored blocks of at most 65 535 bytes.
 * With @p emptyFinalBlock, all payload blocks are non-final and an empty
 * final stored block `01 00 00 FF FF` closes the stream, as Go's
 * compress/flate writes on Close.
 */
[[nodiscard]] std::vector<std::uint8_t>
storedGzipMember( const std::vector<std::uint8_t>& payload, bool emptyFinalBlock )
{
    constexpr std::size_t STORED_MAX = 65535;
    std::vector<std::uint8_t> file{ GZIP_MAGIC_1, GZIP_MAGIC_2, GZIP_CM_DEFLATE, 0, 0, 0, 0, 0, 0, 0xFF };
    const auto appendLE = [&file] ( std::uint32_t value, int bytes ) {
        for ( int i = 0; i < bytes; ++i ) {
            file.push_back( static_cast<std::uint8_t>( value >> ( 8 * i ) ) );
        }
    };
    const auto appendBlock = [&] ( bool final, std::size_t offset, std::uint32_t length ) {
        file.push_back( final ? 1 : 0 );  /* BFINAL, BTYPE 00 */
        appendLE( length, 2 );
        appendLE( ~length, 2 );
        file.insert( file.end(), payload.begin() + static_cast<std::ptrdiff_t>( offset ),
                     payload.begin() + static_cast<std::ptrdiff_t>( offset + length ) );
    };
    for ( std::size_t offset = 0; offset < payload.size(); offset += STORED_MAX ) {
        const auto length = static_cast<std::uint32_t>( std::min( STORED_MAX, payload.size() - offset ) );
        appendBlock( !emptyFinalBlock && ( offset + length == payload.size() ), offset, length );
    }
    if ( emptyFinalBlock ) {
        appendBlock( true, payload.size(), 0 );
    }
    appendLE( simd::crc32( 0, payload.data(), payload.size() ), 4 );
    appendLE( static_cast<std::uint32_t>( payload.size() ), 4 );
    return file;
}

/**
 * A stored gzip member whose payload holds @p decoys times, in its fourth
 * stored block and in every third one after it, a sync marker followed by a
 * complete raw Deflate stream: false restart points that decode.
 */
[[nodiscard]] GzipFile
syncMarkerInsideStoredData( std::size_t decoys = 1 )
{
    constexpr std::size_t STORED_MAX = 65535;
    auto payload = workloads::base64Data( 300 * KiB + ( decoys - 1 ) * 3 * STORED_MAX, 0x5707 );
    const auto text = workloads::base64Data( 16 * KiB, 0xDEC0 );
    const auto decoyMember = compressGzipLike( { text.data(), text.size() }, 6 );
    const auto decoyStart = parseGzipHeader( { decoyMember.data(), decoyMember.size() } );
    std::vector<std::uint8_t> decoy{ 0x00, 0x00, 0xFF, 0xFF };
    decoy.insert( decoy.end(), decoyMember.begin() + static_cast<std::ptrdiff_t>( decoyStart ),
                  decoyMember.end() - GZIP_FOOTER_SIZE );
    for ( std::size_t block = 3; block < 3 + 3 * decoys; block += 3 ) {
        /* Inside one stored block, so no block header interrupts it. */
        const auto decoyOffset = block * STORED_MAX + 100;
        REQUIRE( decoyOffset + decoy.size() <= ( block + 1 ) * STORED_MAX );
        std::copy( decoy.begin(), decoy.end(), payload.begin() + static_cast<std::ptrdiff_t>( decoyOffset ) );
    }
    return { storedGzipMember( payload, /* emptyFinalBlock */ false ), payload };
}

/**
 * A stored member closed by an empty final stored block whose CRC32 bits
 * 0-9 read 0x003 (BFINAL, fixed Huffman codes, the 7-bit end-of-block
 * code), so its footer start is a restart point the probe accepts, followed
 * by a second member. Also returns where that footer starts.
 */
[[nodiscard]] std::pair<GzipFile, std::size_t>
restartPointAtFooter()
{
    /* Vary three leading letters until the CRC32 reads as wanted. */
    auto payload = workloads::base64Data( 200 * KiB, 0xF007 );
    std::uint32_t tweak = 0;
    while ( ( simd::crc32( 0, payload.data(), payload.size() ) & 0x3FFU ) != 0x003U ) {
        ++tweak;
        REQUIRE( tweak < 26U * 26U * 26U );
        for ( std::size_t i = 0, rest = tweak; i < 3; ++i, rest /= 26 ) {
            payload[i] = static_cast<std::uint8_t>( 'A' + rest % 26 );
        }
    }
    auto file = storedGzipMember( payload, /* emptyFinalBlock */ true );
    const auto footerStart = file.size() - GZIP_FOOTER_SIZE;
    const auto text = workloads::base64Data( 64 * KiB, 0x5EC0 );
    const auto second = compressGzipLike( { text.data(), text.size() }, 6 );
    file.insert( file.end(), second.begin(), second.end() );
    payload.insert( payload.end(), text.begin(), text.end() );
    return { { std::move( file ), std::move( payload ) }, footerStart };
}

/**
 * A sync marker inside stored data is a false restart point that decodes:
 * a stored block's payload holds `00 00 FF FF` and then a complete raw
 * Deflate stream, more than a chunk into the stream. It becomes a restart
 * point, and the footer-verified pass must keep its bytes out of size() and
 * read(): they equal the serial decode.
 */
void
testSyncMarkerInsideStoredData()
{
    const auto stored = syncMarkerInsideStoredData();
    const auto& file = stored.bytes;
    const auto& payload = stored.decoded;

    const auto configuration = config( 4, 128 * KiB );
    REQUIRE( GzipReader( std::make_unique<MemoryFileReader>( file ) ).decompressToVector() == payload );
    REQUIRE( test::requireProbeAgreesWithZlib( file ).accepted >= 1 );
    /* The decoy passes the restart-point probe and cuts the stream in two. */
    REQUIRE( ParallelGzipReader( std::make_unique<MemoryFileReader>( file ), configuration ).chunkCount()
             == 2 );
    REQUIRE( ParallelGzipReader( std::make_unique<MemoryFileReader>( file ), configuration ).decompressAll()
             == payload.size() );
    REQUIRE( sizeThenRead( file, configuration ) == payload );
}

/**
 * A member closed by an empty final stored block ends in a sync marker, so
 * its footer start is a restart-point candidate. When the CRC32 bytes there
 * decode as an empty final block, the probe accepts it, and the chunk before
 * it ends where the footer and the next member's header begin. The pass
 * must re-decode the row at the footer from the next member's start instead
 * of taking the member end for the stream end: size(), read() and
 * decompressAll() keep the later member, as GzipReader does.
 */
void
testRestartPointAtFooter()
{
    const auto [gzipFile, footerStart] = restartPointAtFooter();
    const auto& file = gzipFile.bytes;
    const auto& expected = gzipFile.decoded;

    const auto configuration = config( 4, 128 * KiB );
    const auto starts = discoverRestartPoints( MemoryFileReader( file ), configuration.chunkSizeBytes );
    REQUIRE( std::find( starts.begin(), starts.end(), footerStart ) != starts.end() );
    REQUIRE( test::requireProbeAgreesWithZlib( file ).accepted >= 1 );

    REQUIRE( GzipReader( std::make_unique<MemoryFileReader>( file ) ).decompressToVector() == expected );
    REQUIRE( ParallelGzipReader( std::make_unique<MemoryFileReader>( file ), configuration ).decompressAll()
             == expected.size() );
    REQUIRE( sizeThenRead( file, configuration ) == expected );
}

/** A FileReader over an in-memory file that counts the bytes its preads
 * return, summed over all clones. */
class CountingFileReader final : public FileReader
{
public:
    explicit CountingFileReader( const std::vector<std::uint8_t>& data ) :
        m_file( std::make_shared<MemoryFileReader>( data ) ),
        m_bytesRead( std::make_shared<std::atomic<std::size_t> >( 0 ) )
    {}

    [[nodiscard]] std::size_t
    read( void* buffer, std::size_t size ) override
    {
        const auto got = m_file->read( buffer, size );
        *m_bytesRead += got;
        return got;
    }

    [[nodiscard]] std::size_t
    pread( void* buffer, std::size_t size, std::size_t offset ) const override
    {
        const auto got = m_file->pread( buffer, size, offset );
        *m_bytesRead += got;
        return got;
    }

    void
    seek( std::size_t offset ) override
    {
        m_file->seek( offset );
    }

    [[nodiscard]] std::size_t
    tell() const override
    {
        return m_file->tell();
    }

    [[nodiscard]] std::size_t
    size() const override
    {
        return m_file->size();
    }

    [[nodiscard]] std::unique_ptr<FileReader>
    clone() const override
    {
        return std::make_unique<CountingFileReader>( *this );
    }

    [[nodiscard]] std::size_t
    bytesRead() const
    {
        return *m_bytesRead;
    }

private:
    std::shared_ptr<MemoryFileReader> m_file;
    std::shared_ptr<std::atomic<std::size_t> > m_bytesRead;
};

/**
 * A checkpoint decode reads its compressed span once and decodes every
 * member in it from that buffer: decoding every 1 MiB chunk of an 8 MiB
 * silesia-like BGZF file (~64 KiB members) and of a pigz-like file reads at
 * most 1.25x the compressed size. A loop that re-read the rest of the span
 * per member read the BGZF file ~23 times over.
 */
void
testCheckpointDecodeReadsSpanOnce()
{
    constexpr auto NO_LIMIT = std::numeric_limits<std::size_t>::max();
    constexpr std::size_t CHUNK_SIZE = 1 * MiB;
    const auto data = workloads::silesiaLikeData( 8 * MiB, 0xA3F1 );
    const BufferView view( data.data(), data.size() );
    const auto dataCrc = simd::crc32( 0, data.data(), data.size() );

    for ( const bool bgzf : { true, false } ) {
        const auto file = bgzf ? writeBgzf( view, 6 ) : compressPigzLike( view, 6, 64 * KiB );
        const MemoryFileReader reader( file );
        std::vector<std::size_t> startBits;
        if ( bgzf ) {
            const auto bgzfIndex = index::tryBuildBgzfIndex( reader, CHUNK_SIZE );
            REQUIRE( bgzfIndex.has_value() );
            for ( const auto& checkpoint : bgzfIndex->checkpoints ) {
                startBits.push_back( checkpoint.compressedOffsetBits );
            }
        } else {
            for ( const auto start : discoverRestartPoints( reader, CHUNK_SIZE ) ) {
                startBits.push_back( start * 8 );
            }
        }
        REQUIRE( startBits.size() >= 3 );

        const CountingFileReader counting( file );
        std::size_t total = 0;
        std::uint32_t crc = 0;
        std::size_t members = 0;
        for ( std::size_t i = 0; i < startBits.size(); ++i ) {
            const auto chunk = GzipChunkFetcher::decodeChunkFromCheckpoint(
                counting, startBits[i], i + 1 < startBits.size() ? startBits[i + 1] : NO_LIMIT, {} );
            crc = simd::crc32Combine( crc, chunk.crc32, chunk.data.size() );
            total += chunk.data.size();
            members += chunk.memberEnds.size();
        }
        REQUIRE( total == data.size() );
        REQUIRE( crc == dataCrc );
        REQUIRE( members >= ( bgzf ? 100U : 1U ) );
        const auto amplification = static_cast<double>( counting.bytesRead() )
                                   / static_cast<double>( file.size() );
        std::printf( "  %s: %zu chunks read %.3fx the compressed size\n", bgzf ? "BGZF" : "pigz-like",
                     startBits.size(), amplification );
        REQUIRE( amplification <= 1.25 );
    }
}

/** The restart points of a scan over the whole file: every marker end at
 * least @p chunkSizeBytes past the previous start that the probe accepts.
 * Discovery worked this way before it jumped between chunks. */
[[nodiscard]] std::vector<std::size_t>
fullScanRestartPoints( const FileReader& file, std::size_t chunkSizeBytes )
{
    const auto header = readHeaderBytes( file, 0 );
    std::vector<std::size_t> starts{ parseGzipHeader( { header.data(), header.size() } ) };
    for ( const auto candidate : findFullFlushMarkers( file, starts.front(), file.size() ) ) {
        if ( ( candidate < file.size() )
             && ( candidate - starts.back() >= std::max<std::size_t>( chunkSizeBytes, 1 ) )
             && probeRawDeflatePoint( file, candidate ) ) {
            starts.push_back( candidate );
        }
    }
    return starts;
}

/**
 * Discovery jumps from one chunk to the next and bounds its first search at
 * two chunk sizes C past the first Deflate byte S. On pigz-like base64,
 * silesia-like and FASTQ files at 16, 64 and 512 KiB flush intervals, and on
 * the decoy files above, read with 32 KiB, 128 KiB and 1 MiB chunks, it
 * returns the whole-file scan's restart points where their first restart
 * point ends within 2C of S, and {S} elsewhere. On a 16 MiB plain base64
 * member with 1 MiB chunks, it reads one chunk size of the file and the
 * header, not the whole file: at most 2C + 128 KiB.
 */
void
testDiscoveryReadsOneSlice()
{
    std::vector<std::vector<std::uint8_t> > files;
    for ( const auto& data : { workloads::base64Data( 3 * MiB, 0xD15C ),
                               workloads::silesiaLikeData( 3 * MiB, 0xD15C ),
                               workloads::fastqData( 3 * MiB, 0xD15C ) } ) {
        for ( const auto flushInterval : { 16 * KiB, 64 * KiB, 512 * KiB } ) {
            files.push_back( compressPigzLike( { data.data(), data.size() }, 6, flushInterval ) );
        }
    }
    files.push_back( syncMarkerInsideStoredData().bytes );
    files.push_back( restartPointAtFooter().first.bytes );

    std::size_t sameAsScan = 0;
    std::size_t firstSearchOnly = 0;
    for ( const auto& file : files ) {
        const MemoryFileReader reader( file );
        for ( const auto chunkSize : { 32 * KiB, 128 * KiB, 1 * MiB } ) {
            const auto reference = fullScanRestartPoints( reader, chunkSize );
            const auto starts = discoverRestartPoints( reader, chunkSize );
            if ( ( reference.size() > 1 ) && ( reference[1] - reference[0] <= 2 * chunkSize ) ) {
                REQUIRE( starts == reference );
                ++sameAsScan;
            } else {
                REQUIRE( starts == std::vector<std::size_t>{ reference.front() } );
                ++firstSearchOnly;
            }
        }
    }
    std::printf( "  discovery: %zu cases equal the whole-file scan, %zu stop after the first search\n",
                 sameAsScan, firstSearchOnly );
    REQUIRE( sameAsScan >= 15 );
    REQUIRE( firstSearchOnly >= 3 );

    constexpr std::size_t CHUNK_SIZE = 1 * MiB;
    const auto text = workloads::base64Data( 16 * MiB, 0x511CE );
    const CountingFileReader plain( compressGzipLike( { text.data(), text.size() }, 6 ) );
    REQUIRE( plain.size() > 8 * CHUNK_SIZE );
    REQUIRE( discoverRestartPoints( plain, CHUNK_SIZE ).size() == 1 );
    std::printf( "  discovery read %zu of %zu bytes of a plain member\n", plain.bytesRead(), plain.size() );
    REQUIRE( plain.bytesRead() <= 2 * CHUNK_SIZE + 128 * KiB );
}

constexpr std::size_t SYNTHETIC_CHUNKS = 64;
constexpr std::size_t SYNTHETIC_CHUNK_BYTES = 4 * KiB;
constexpr std::size_t SYNTHETIC_PARALLELISM = 4;

/** Decodes synthetic chunk i to 4 KiB of bytes i. A valid
 * @p chunkOneDecodes holds chunk 1's decode until it is ready. */
[[nodiscard]] ChunkFetcher::ChunkDecoder
syntheticDecoder( std::shared_future<void> chunkOneDecodes )
{
    return [chunkOneDecodes] ( const FileReader&, std::size_t i ) {
        if ( ( i == 1 ) && chunkOneDecodes.valid() ) {
            chunkOneDecodes.wait();
        }
        DecodedChunk chunk;
        chunk.data.assign( SYNTHETIC_CHUNK_BYTES, static_cast<std::uint8_t>( i ) );
        return chunk;
    };
}

/** A ChunkedReader at parallelism 4 over 64 synthetic chunks, decoded by
 * syntheticDecoder( @p chunkOneDecodes ): a sized table, or one awaiting a
 * pass. */
[[nodiscard]] std::unique_ptr<ChunkedReader>
syntheticChunks( bool sized, std::shared_future<void> chunkOneDecodes = {} )
{
    auto reader = std::make_unique<ChunkedReader>(
        std::make_shared<MemoryFileReader>( std::vector<std::uint8_t>( SYNTHETIC_CHUNKS ) ),
        config( SYNTHETIC_PARALLELISM, SYNTHETIC_CHUNK_BYTES ), [] () {} );
    std::vector<index::Checkpoint> checkpoints;
    for ( std::size_t i = 0; i < SYNTHETIC_CHUNKS; ++i ) {
        checkpoints.push_back( { i * 8, sized ? i * SYNTHETIC_CHUNK_BYTES : 0 } );
    }
    reader->publish( checkpoints,
                     sized ? std::optional<std::size_t>( SYNTHETIC_CHUNKS * SYNTHETIC_CHUNK_BYTES ) : std::nullopt,
                     syntheticDecoder( std::move( chunkOneDecodes ) ) );
    return reader;
}

/**
 * A fetcher on a shared tier owns no threads: its decodes run on the tier's
 * pool, so destroying it joins none of them. Chunk 0's read dispatches a
 * prefetch of chunk 1, whose decode waits on a gate; the fetcher goes at
 * once, and the decode still lands in the tier once the gate opens.
 */
void
testSharedTierFetcherJoinsNothing()
{
    std::promise<void> gate;
    auto configuration = config( SYNTHETIC_PARALLELISM, SYNTHETIC_CHUNK_BYTES );
    configuration.sharedCache = std::make_shared<LruChunkCache>( 1 * MiB );
    auto fetcher = std::make_unique<ChunkFetcher>(
        std::make_shared<MemoryFileReader>( std::vector<std::uint8_t>( SYNTHETIC_CHUNKS ) ), SYNTHETIC_CHUNKS,
        syntheticDecoder( gate.get_future().share() ), configuration );
    REQUIRE( fetcher->get( 0 )->data.front() == 0 );
    REQUIRE( configuration.sharedCache->statistics().insertions == 1 );

    /* Destroyed on another thread, so a join fails the check instead of
     * hanging the test. */
    auto destroyed = std::async( std::launch::async, [&fetcher] () { fetcher.reset(); } );
    REQUIRE( destroyed.wait_for( std::chrono::seconds( 1 ) ) == std::future_status::ready );

    gate.set_value();
    destroyed.get();
    for ( int attempt = 0; ( attempt < 500 ) && ( configuration.sharedCache->statistics().insertions < 2 );
          ++attempt ) {
        std::this_thread::sleep_for( std::chrono::milliseconds( 10 ) );
    }
    REQUIRE( configuration.sharedCache->statistics().insertions == 2 );
}

/**
 * A sweep is a pass over every chunk, known as one before its first access,
 * so it fills the pool at once: when the hook of a sweep over 64 fixed-size
 * chunks at parallelism 4 sees chunk 0, the fetcher has dispatched
 * max(2P, 4) = 8 prefetches, where a read would have dispatched one. The
 * cache holds that look-ahead plus the chunk in use, and a prefetch of a
 * cached chunk counts as a use, so the LRU evicts no ready prefetch before
 * the pass consumes it: no prefetch is wasted, and only chunk 0 decodes on
 * demand.
 */
void
testOrderedPassLookAhead()
{
    const auto reader = syntheticChunks( /* sized */ false );
    telemetry::setMetricsEnabled( true );
    const auto before = FetcherCounts::now();
    std::uint64_t dispatchedAtFirstChunk = 0;
    const auto lock = reader->lock();
    const auto total = reader->sweep( [&] ( std::size_t i, const DecodedChunk& chunk ) {
        if ( i == 0 ) {
            dispatchedAtFirstChunk = ( FetcherCounts::now() - before ).issued;
        }
        REQUIRE( chunk.data == std::vector<std::uint8_t>( SYNTHETIC_CHUNK_BYTES, static_cast<std::uint8_t>( i ) ) );
        return true;
    } );
    const auto counts = FetcherCounts::now() - before;
    telemetry::setMetricsEnabled( false );
    REQUIRE( total == SYNTHETIC_CHUNKS * SYNTHETIC_CHUNK_BYTES );
    REQUIRE( dispatchedAtFirstChunk == 2 * SYNTHETIC_PARALLELISM );
    REQUIRE( counts.wasted == 0 );
    REQUIRE( counts.onDemand == 1 );
    REQUIRE( counts.consumed == SYNTHETIC_CHUNKS - 1 );
}

/**
 * A read outside a pass prefetches min(P, 2^streak) chunks ahead, where the
 * streak counts sequential steps. One-byte reads at chunks 0, 1, 2, 3, 3, 4
 * and 40 of 64 at P = 4 issue 1, 2, 3, 1, 0, 1 and 1 prefetches: the depth
 * doubles per sequential step up to P, a repeated chunk leaves it alone (so
 * chunk 4 still prefetches 8; a reset would stop at 6, already cached), and
 * a jump resets it. Only chunks 0 and 40 decode on demand.
 */
void
testPrefetchRamp()
{
    struct Step
    {
        std::size_t chunk;
        std::uint64_t prefetches;
    };
    const auto reader = syntheticChunks( /* sized */ true );
    telemetry::setMetricsEnabled( true );
    for ( const auto step : { Step{ 0, 1 }, Step{ 1, 2 }, Step{ 2, 3 }, Step{ 3, 1 }, Step{ 3, 0 }, Step{ 4, 1 },
                              Step{ 40, 1 } } ) {
        const auto before = FetcherCounts::now();
        std::uint8_t byte = 0;
        REQUIRE( reader->readAt( step.chunk * SYNTHETIC_CHUNK_BYTES, &byte, 1 ) == 1 );
        const auto counts = FetcherCounts::now() - before;
        REQUIRE( byte == static_cast<std::uint8_t>( step.chunk ) );
        REQUIRE( counts.issued == step.prefetches );
        REQUIRE( counts.onDemand == ( ( step.chunk == 0 ) || ( step.chunk == 40 ) ? 1U : 0U ) );
    }
    telemetry::setMetricsEnabled( false );
}

/**
 * A read that may not wait walks only when a cache tier holds every chunk of
 * its range. A range that runs from a decoded chunk into one still decoding
 * answers nothing, and counts no hit and dispatches no prefetch on the way:
 * the read that may wait, which follows it, makes the only accesses.
 */
void
testNeverWaitingReadGivesUpUncounted()
{
    std::promise<void> chunkOneDecodes;
    const auto reader = syntheticChunks( /* sized */ true, chunkOneDecodes.get_future().share() );
    telemetry::setMetricsEnabled( true );
    const auto& registry = telemetry::Registry::instance();
    const auto hits = [&registry] () { return registry.counterTotal( "rapidgzip_chunk_cache_hits_total" ); };

    /* Chunk 0 decodes on demand and dispatches chunk 1, which stays
     * decoding. */
    std::uint8_t byte = 0;
    REQUIRE( reader->readAt( 0, &byte, 1 ) == 1 );

    auto before = FetcherCounts::now();
    auto hitsBefore = hits();
    std::vector<OwnedSpan> spans;
    REQUIRE( reader->readSpansAt( SYNTHETIC_CHUNK_BYTES - 10, 20, spans, Wait::NEVER ) == 0 );
    REQUIRE( spans.empty() );
    auto counts = FetcherCounts::now() - before;
    REQUIRE( ( counts.issued == 0 ) && ( counts.consumed == 0 ) && ( counts.onDemand == 0 ) );
    REQUIRE( hits() == hitsBefore );

    /* Inside chunk 0 it answers, and counts the hit. */
    REQUIRE( reader->readSpansAt( 10, 20, spans, Wait::NEVER ) == 20 );
    REQUIRE( ( spans.size() == 1 ) && ( spans[0].data[0] == 0 ) );
    REQUIRE( hits() == hitsBefore + 1 );

    chunkOneDecodes.set_value();
    spans.clear();
    before = FetcherCounts::now();
    hitsBefore = hits();
    REQUIRE( reader->readSpansAt( SYNTHETIC_CHUNK_BYTES - 10, 20, spans, Wait::ALLOWED ) == 20 );
    REQUIRE( ( spans.size() == 2 ) && ( spans[0].data[0] == 0 ) && ( spans[1].data[0] == 1 ) );
    counts = FetcherCounts::now() - before;
    REQUIRE( ( counts.consumed == 1 ) && ( counts.onDemand == 0 ) );
    REQUIRE( hits() == hitsBefore + 1 );
    telemetry::setMetricsEnabled( false );
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
    const auto chunk = GzipChunkFetcher::decodeChunkFromGuess( file, guessBit, endBitGuess, NO_LIMIT );
    const auto tested = registry.counterTotal( "rapidgzip_blockfinder_positions_tested_total" )
                        - testedBefore;
    telemetry::setMetricsEnabled( false );
    const auto& guess = *chunk.guess;
    REQUIRE( guess.error == Error::NONE );
    REQUIRE( guess.startedAtStoredBlock );
    REQUIRE( guess.startBitOffset == storedBit );
    REQUIRE( chunk.data.empty() );
    /* Every position up to and including the stored candidate, plus at most
     * one 48-position stride. An unbounded scan runs on through the second
     * block's payload to the next Dynamic header. */
    REQUIRE( tested <= storedBit - guessBit + 48 );

    /* Exact reference from the decode loop behind the checkpoint chunks:
     * decode from the stream start up to the second block's header in the
     * byte before its LEN, then on from there with the propagated window to
     * the first boundary at or past the end guess. */
    const auto prefix = GzipChunkFetcher::decodeChunkFromCheckpoint( file, deflateStartBit, storedBit - 8, {} );
    REQUIRE( prefix.endBitOffset == storedBit - 8 );
    const auto& prefixBytes = prefix.data;
    REQUIRE( std::equal( prefixBytes.begin(), prefixBytes.end(), data.begin() ) );
    const auto windowSize = std::min<std::size_t>( prefixBytes.size(), deflate::WINDOW_SIZE );
    const BufferView window( prefixBytes.data() + prefixBytes.size() - windowSize, windowSize );
    const auto reference = GzipChunkFetcher::decodeMembers( file, storedBit - 8, endBitGuess, window );
    REQUIRE( chunk.endBitOffset == reference.endBitOffset );

    std::vector<std::uint8_t> resolved;
    deflate::resolveInto( guess.firstSegment, window, resolved );
    REQUIRE( !resolved.empty() );
    REQUIRE( resolved == reference.data );
    REQUIRE( prefixBytes.size() + resolved.size() <= data.size() );
    REQUIRE( std::equal( resolved.begin(), resolved.end(),
                         data.begin() + static_cast<std::ptrdiff_t>( prefixBytes.size() ) ) );
}

/** Decodes in the process so far, while metrics are enabled. */
struct DecodeCounts
{
    std::uint64_t fetcher{ 0 };    /**< prefetch_issued + on_demand_decodes */
    std::uint64_t redecodes{ 0 };  /**< a Stitcher's sequential re-decodes */
    std::uint64_t fallbacks{ 0 };  /**< passes that left the stream to the serial walk */

    [[nodiscard]] static DecodeCounts
    now()
    {
        const auto& registry = telemetry::Registry::instance();
        const auto fetcher = FetcherCounts::now();
        return { fetcher.issued + fetcher.onDemand,
                 registry.counterTotal( "rapidgzip_chunk_redecodes_total" ),
                 registry.counterTotal( "rapidgzip_serial_fallbacks_total" ) };
    }

    [[nodiscard]] DecodeCounts
    operator-( const DecodeCounts& before ) const
    {
        return { fetcher - before.fetcher, redecodes - before.redecodes, fallbacks - before.fallbacks };
    }
};

/** decompressAll() of a fresh reader of @p file, checked against @p size:
 * the decodes it took, printed under @p name, and the exported index. */
[[nodiscard]] std::pair<DecodeCounts, GzipIndex>
decompressCounted( const char* name, const std::vector<std::uint8_t>& file, std::size_t size,
                   const ChunkFetcherConfiguration& configuration )
{
    telemetry::setMetricsEnabled( true );
    const auto before = DecodeCounts::now();
    ParallelGzipReader reader( std::make_unique<MemoryFileReader>( file ), configuration );
    REQUIRE( reader.decompressAll() == size );
    const auto counts = DecodeCounts::now() - before;
    telemetry::setMetricsEnabled( false );
    std::printf( "  %s: %llu chunk decodes, %llu redecodes, %llu serial fallbacks\n", name,
                 static_cast<unsigned long long>( counts.fetcher ),
                 static_cast<unsigned long long>( counts.redecodes ),
                 static_cast<unsigned long long>( counts.fallbacks ) );
    return { counts, reader.exportIndex() };
}

/** A fresh reader that imports @p index reads @p expected back whole. */
void
requireImportReadsBack( const std::vector<std::uint8_t>& file, const GzipIndex& index,
                        const std::vector<std::uint8_t>& expected, const ChunkFetcherConfiguration& configuration )
{
    ParallelGzipReader reader( std::make_unique<MemoryFileReader>( file ), configuration );
    reader.importIndex( index );
    std::vector<std::uint8_t> bytes( expected.size() + 16 );
    bytes.resize( reader.read( bytes.data(), bytes.size() ) );
    REQUIRE( bytes == expected );
}

/**
 * k = 16 false restart points that decode, three stored blocks apart, read
 * with 128 KiB chunks at parallelism 4: discovery takes all of them, and
 * one pass decodes each of the k + 1 rows once and re-decodes each decoy's
 * row in place from where the previous row ended — exactly k redecodes.
 * The fetcher's decodes stay within 2(k + 1): a pass that started again
 * from chunk 0 for each false point would decode O(k²) chunks. size() +
 * read() and an exported index read the payload back.
 */
void
testFalseRestartPoints()
{
    constexpr std::size_t DECOYS = 16;
    const auto stored = syncMarkerInsideStoredData( DECOYS );
    const auto configuration = config( 4, 128 * KiB );
    REQUIRE( discoverRestartPoints( MemoryFileReader( stored.bytes ), configuration.chunkSizeBytes ).size()
             == DECOYS + 1 );

    const auto [counts, exported] = decompressCounted( "16 false restart points", stored.bytes,
                                                       stored.decoded.size(), configuration );
    REQUIRE( counts.redecodes == DECOYS );
    REQUIRE( counts.fallbacks == 0 );
    REQUIRE( counts.fetcher <= 2 * ( DECOYS + 1 ) );

    REQUIRE( sizeThenRead( stored.bytes, configuration ) == stored.decoded );
    requireImportReadsBack( stored.bytes, exported, stored.decoded, configuration );
}

/**
 * A sync-flushed stream (24 segments of 64 KiB, each referring to the one
 * before) read with 32 KiB chunks: its restart points need the history
 * before them, so their empty-window decodes fail, and each such row falls
 * back to a guess from the same start in the same task, which stitches
 * without a re-decode. The fetcher decodes at most two chunks per restart
 * point, and fewer than half of the rows are re-decoded. The output equals
 * zlib's, through size() + read(), an exported index, and a shared cache,
 * where the rows of the restart-point table, some of them stage-one output,
 * must not be served to reads of the index the pass harvested at the same
 * offsets.
 */
void
testSyncFlushedStream()
{
    constexpr auto NO_LIMIT = std::numeric_limits<std::size_t>::max();
    const auto stream = test::syncFlushedStream( 24, 0x5F1A );
    const auto& file = stream.bytes;
    const auto configuration = config( 4, 32 * KiB );
    REQUIRE( decompressWithZlib( { file.data(), file.size() } ) == stream.decoded );

    const MemoryFileReader fileReader( file );
    const auto starts = discoverRestartPoints( fileReader, configuration.chunkSizeBytes );
    std::size_t windowDependent = 0;
    for ( std::size_t i = 0; i < starts.size(); ++i ) {
        const auto untilBits = i + 1 < starts.size() ? starts[i + 1] * 8 : NO_LIMIT;
        windowDependent += answerOf( [&] () {
            return GzipChunkFetcher::decodeMembers( fileReader, starts[i] * 8, untilBits, {} ).data.size();
        } ) ? 0 : 1;
    }
    std::printf( "  sync-flushed stream: %zu restart points, %zu need the window\n", starts.size(),
                 windowDependent );
    REQUIRE( windowDependent >= 1 );

    const auto [counts, exported] = decompressCounted( "sync-flushed stream", file, stream.decoded.size(),
                                                       configuration );
    REQUIRE( counts.fetcher <= 2 * starts.size() );
    REQUIRE( counts.redecodes < starts.size() / 2 );
    REQUIRE( counts.fallbacks == 0 );

    REQUIRE( sizeThenRead( file, configuration ) == stream.decoded );
    requireImportReadsBack( file, exported, stream.decoded, configuration );

    /* The rows that fell back to stage-one output stay out of the shared
     * cache, whose budget charges only `data`: after the pass it holds at
     * most the rows that decoded exactly. */
    auto shared = configuration;
    const auto cache = std::make_shared<LruChunkCache>( 64 * MiB );
    shared.sharedCache = cache;
    shared.cacheIdentity = 0x5F1A;
    ParallelGzipReader reader( std::make_unique<MemoryFileReader>( file ), shared );
    REQUIRE( reader.size() == stream.decoded.size() );
    REQUIRE( cache->statistics().insertions <= starts.size() - windowDependent );
    std::vector<std::uint8_t> bytes( stream.decoded.size() + 16 );
    bytes.resize( reader.read( bytes.data(), bytes.size() ) );
    REQUIRE( bytes == stream.decoded );
}

/**
 * A restart point whose empty-window decode fails decodes from a guess on
 * the bytes that decode read: a sync-flushed stream of 512 segments
 * (8.6 MB) through a reader that counts its reads, parallelism 4, 1 MiB
 * chunks, reads at most 1.5 times the file for a count-only
 * decompressAll(). When the guess read the span and its 256 KiB margin
 * again, this read 2.4 times the file.
 */
void
testGuessFallbackReadsSpanOnce()
{
    const auto stream = test::syncFlushedStream( 512, 11 );
    auto counting = std::make_unique<CountingFileReader>( stream.bytes );
    const auto* const counter = counting.get();
    ParallelGzipReader reader( std::move( counting ), config( 4, 1 * MiB ) );
    REQUIRE( reader.decompressAll() == stream.decoded.size() );
    const auto amplification = static_cast<double>( counter->bytesRead() )
                               / static_cast<double>( stream.bytes.size() );
    std::printf( "  sync-flushed stream of %zu bytes: read %.3fx\n", stream.bytes.size(), amplification );
    REQUIRE( amplification <= 1.5 );
}

/**
 * Text in Dynamic blocks, then a short tail in one FINAL stored block. The
 * switch to level 0 closes the text's last block with Z_BLOCK, so the
 * tail's block header sits at a bit offset. The tail is varied until the
 * footer's CRC32 bits 0-9 read 0x003 (BFINAL, fixed Huffman codes, the
 * 7-bit end-of-block code): a decode from the tail's LEN field, which
 * assumes BFINAL 0, then reads the footer as a final empty block and
 * succeeds. Also returns where that LEN field starts and a chunk size that
 * puts row 1 of the guess grid 64 bytes before it, inside the text's last
 * block.
 */
struct FinalStoredBlockFile
{
    GzipFile gzip;
    std::size_t lenBit{ 0 };
    std::size_t chunkSize{ 0 };
};

[[nodiscard]] FinalStoredBlockFile
finalStoredBlockAfterText()
{
    const auto text = workloads::base64Data( 256 * KiB, 0x57F1 );
    std::vector<std::uint8_t> tail( 100, 'x' );
    const auto textCrc = simd::crc32( 0, text.data(), text.size() );
    std::uint32_t tweak = 0;
    while ( ( simd::crc32( textCrc, tail.data(), tail.size() ) & 0x3FFU ) != 0x003U ) {
        ++tweak;
        REQUIRE( tweak < 26U * 26U * 26U );
        for ( std::size_t i = 0, rest = tweak; i < 3; ++i, rest /= 26 ) {
            tail[i] = static_cast<std::uint8_t>( 'A' + rest % 26 );
        }
    }

    z_stream stream{};
    REQUIRE( deflateInit2( &stream, 6, Z_DEFLATED, MAX_WBITS + 16, 8, Z_DEFAULT_STRATEGY ) == Z_OK );
    std::vector<std::uint8_t> file( deflateBound( &stream, static_cast<uLong>( text.size() + tail.size() ) )
                                    + 1 * KiB );
    stream.next_out = file.data();
    stream.avail_out = static_cast<uInt>( file.size() );
    stream.next_in = const_cast<Bytef*>( text.data() );
    stream.avail_in = static_cast<uInt>( text.size() );
    REQUIRE( ::deflate( &stream, Z_NO_FLUSH ) == Z_OK );
    REQUIRE( stream.avail_in == 0 );
    REQUIRE( deflateParams( &stream, 0, Z_DEFAULT_STRATEGY ) == Z_OK );
    stream.next_in = tail.data();
    stream.avail_in = static_cast<uInt>( tail.size() );
    REQUIRE( ::deflate( &stream, Z_FINISH ) == Z_STREAM_END );
    file.resize( stream.total_out );
    REQUIRE( deflateEnd( &stream ) == Z_OK );

    /* One final stored block holds the tail: LEN, NLEN, the tail, the footer. */
    const auto lenByte = file.size() - GZIP_FOOTER_SIZE - tail.size() - 4;
    REQUIRE( ( file[lenByte] | ( file[lenByte + 1] << 8U ) ) == static_cast<int>( tail.size() ) );

    auto decoded = text;
    decoded.insert( decoded.end(), tail.begin(), tail.end() );
    const auto chunkSize = lenByte - 64 - parseGzipHeader( { file.data(), file.size() } );
    REQUIRE( chunkSize >= 128 * KiB );
    return { { std::move( file ), std::move( decoded ) }, lenByte * 8, chunkSize };
}

/**
 * A guessed row that starts at the LEN field of a member's FINAL stored
 * block, right after the previous row's end: its decode assumed BFINAL 0
 * and read the member's footer as a final empty block. The stitch reads
 * the block header at the previous row's end, finds BFINAL 1, and
 * re-decodes the row in place: one redecode and no fallback to the serial
 * walk, with zlib's bytes through decompressAll(), size() + read() and an
 * exported index.
 */
void
testGuessAtFinalStoredBlock()
{
    constexpr auto NO_LIMIT = std::numeric_limits<std::size_t>::max();
    const auto [gzipFile, lenBit, chunkSize] = finalStoredBlockAfterText();
    const auto& file = gzipFile.bytes;
    const auto& expected = gzipFile.decoded;
    REQUIRE( decompressWithZlib( { file.data(), file.size() } ) == expected );

    /* Row 0 ends at the tail's block header, and row 1's guess starts at its
     * LEN field and reaches a false stream end. */
    const MemoryFileReader fileReader( file );
    const auto deflateStart = parseGzipHeader( { file.data(), file.size() } );
    const auto rowStart = ( deflateStart + chunkSize ) * 8;
    const auto row0 = GzipChunkFetcher::decodeMembers( fileReader, deflateStart * 8, rowStart, {} );
    REQUIRE( !row0.reachedStreamEnd );
    REQUIRE( ceilDiv<std::size_t>( row0.endBitOffset + 3, 8 ) * 8 == lenBit );
    const auto headerByte = row0.endBitOffset / 8;
    const auto header = static_cast<unsigned>( file[headerByte] | ( file[headerByte + 1] << 8U ) );
    REQUIRE( ( ( header >> ( row0.endBitOffset % 8 ) ) & 0b111U ) == 0b001U );  /* BFINAL 1, BTYPE 00 */
    const auto row1 = GzipChunkFetcher::decodeChunkFromGuess( fileReader, rowStart, file.size() * 8, NO_LIMIT );
    REQUIRE( row1.guess->error == Error::NONE );
    REQUIRE( row1.guess->startedAtStoredBlock );
    REQUIRE( row1.guess->startBitOffset == lenBit );

    const auto configuration = config( 2, chunkSize );
    const auto [counts, exported] = decompressCounted( "final stored block after a row", file, expected.size(),
                                                       configuration );
    REQUIRE( counts.redecodes == 1 );
    REQUIRE( counts.fallbacks == 0 );
    REQUIRE( sizeThenRead( file, configuration ) == expected );
    requireImportReadsBack( file, exported, expected, configuration );
}

}  // namespace

int
main()
{
    const auto data = workloads::base64Data( 8 * MiB + 4321, 0xF00D );
    const auto compressed = compressPigzLike( { data.data(), data.size() }, 6, 128 * 1024 );

    /* Several parallelism/chunk-size combinations. */
    checkFullRead( data, compressed, config( 4, 256 * 1024 ) );
    checkFullRead( data, compressed, config( 1, 64 * 1024 ) );
    checkFullRead( data, compressed, config( 8, 4 * MiB ) );

    /* Gzip-like stream without a single flush marker: discovery finds no
     * restart point, but decompressAll stitches the guess grid's rows,
     * decoded in parallel on the reader's own fetcher. Verify the actual
     * BYTES against the serial zlib decode. */
    {
        const auto plain = compressGzipLike( { data.data(), data.size() }, 6 );
        const auto serial = decompressWithZlib( { plain.data(), plain.size() } );
        REQUIRE( serial == data );
        telemetry::setMetricsEnabled( true );
        const auto redecodesBefore =
            telemetry::Registry::instance().counterTotal( "rapidgzip_chunk_redecodes_total" );
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( plain ), config( 4, 1 * MiB ) );
        REQUIRE( reader.decompressAll() == data.size() );
        const auto redecodes =
            telemetry::Registry::instance().counterTotal( "rapidgzip_chunk_redecodes_total" ) - redecodesBefore;
        telemetry::setMetricsEnabled( false );
        /* The harvested index holds one checkpoint per stitched row. Most
         * rows must come from the SPECULATIVE guessed-offset decode — if the
         * block finders regressed, every row would silently fall back to the
         * sequential re-decode and parallelism would be dead. */
        REQUIRE( reader.chunkCount() > 1 );
        REQUIRE( redecodes < reader.chunkCount() / 2 );
        std::vector<std::uint8_t> parallel( data.size() + 16 );
        parallel.resize( reader.read( parallel.data(), parallel.size() ) );
        REQUIRE( parallel == serial );

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

        /* Filling in the swept offsets keeps the fetcher: the tail of the
         * sweep behind size() serves the next read without a decode. */
        telemetry::setMetricsEnabled( true );
        const auto beforeRead = FetcherCounts::now();
        std::uint8_t lastByte = 0;
        reader.seek( data.size() - 1 );
        REQUIRE( reader.read( &lastByte, 1 ) == 1 );
        REQUIRE( lastByte == data.back() );
        const auto readCounts = FetcherCounts::now() - beforeRead;
        telemetry::setMetricsEnabled( false );
        REQUIRE( readCounts.issued + readCounts.onDemand == 0 );

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

    /* Truncated streams must raise, not silently return a partial count —
     * on both the decompressAll and the read/size (offset discovery) path.
     * The pass stops at the chunk the file ends in instead of decoding the
     * stream once per chunk, and that restart point's row reports the
     * truncation without a guess search over its blocks. */
    {
        auto truncated = compressed;
        truncated.resize( truncated.size() / 2 );
        auto counting = std::make_unique<CountingFileReader>( truncated );
        const auto* const counter = counting.get();
        ParallelGzipReader reader( std::move( counting ), config( 4, 256 * 1024 ) );
        REQUIRE( reader.chunkCount() >= 10 );
        telemetry::setMetricsEnabled( true );
        const auto positionsTested = [] () {
            return telemetry::Registry::instance().counterTotal( "rapidgzip_blockfinder_positions_tested_total" );
        };
        const auto testedBefore = positionsTested();
        REQUIRE_THROWS_AS( (void)reader.decompressAll(), RapidgzipError );
        REQUIRE( positionsTested() == testedBefore );
        telemetry::setMetricsEnabled( false );
        REQUIRE( counter->bytesRead() <= 4 * truncated.size() );

        ParallelGzipReader sizeReader( std::make_unique<MemoryFileReader>( truncated ),
                                       config( 4, 256 * 1024 ) );
        REQUIRE_THROWS_AS( (void)sizeReader.size(), RapidgzipError );
    }

    /* Fetcher counters: a sequential sweep must mostly hit prefetches. */
    {
        telemetry::setMetricsEnabled( true );
        const auto before = FetcherCounts::now();
        ParallelGzipReader reader( std::make_unique<MemoryFileReader>( compressed ),
                                   config( 4, 256 * 1024 ) );
        REQUIRE( reader.decompressAll() == data.size() );
        const auto counts = FetcherCounts::now() - before;
        telemetry::setMetricsEnabled( false );
        REQUIRE( counts.issued > 0 );
        REQUIRE( counts.consumed > 0 );
        REQUIRE( counts.onDemand >= 1 );
        REQUIRE( counts.consumed + counts.onDemand >= reader.chunkCount() );
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

    testReadersAgreeOnTrailingBytes();
    testSyncMarkerInsideStoredData();
    testRestartPointAtFooter();
    testCheckpointDecodeReadsSpanOnce();
    testDiscoveryReadsOneSlice();
    testOrderedPassLookAhead();
    testPrefetchRamp();
    testNeverWaitingReadGivesUpUncounted();
    testSharedTierFetcherJoinsNothing();
    testGuessInsideStoredStretch();
    testFalseRestartPoints();
    testSyncFlushedStream();
    testGuessFallbackReadsSpanOnce();
    testGuessAtFinalStoredBlock();

    return rapidgzip::test::finish( "testParallelGzipReader" );
}
