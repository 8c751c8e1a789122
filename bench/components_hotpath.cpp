/**
 * Hot-path component benchmark: before/after throughput for each
 * optimization of the PR-4 overhaul, emitted as JSON (BENCH_hotpath.json)
 * so the perf trajectory is measured, committed, and CI-reproducible.
 *
 * "Before" is the VERBATIM pre-PR implementation, vendored under
 * bench/legacy/ (namespace rapidgzip_legacy) — byte-wise BitReader refill,
 * per-symbol two-level-LUT decoding with push_back emission, per-symbol
 * precode counting — NOT the current tree in a compatibility mode, so the
 * committed speedups are true pre-PR-vs-post-PR deltas. Both sides'
 * measurement loops are compiled in their own translation units
 * (LegacyBaseline.cpp / CurrentHotpaths.cpp); see HotpathContracts.hpp.
 *
 *  - bitreader_refill:      checked per-call read() on the legacy reader vs
 *                           the amortized ensureBits()/readUnsafe() loop
 *  - marker_decoder:        windowless (16-bit marker) Deflate decode from a
 *                           mid-stream block
 *  - plain_decoder:         the same comparison with a known window
 *  - blockfinder_rejection: the precode rejection stage of the rapid block
 *                           finder (positions surviving the 8-bit prefix
 *                           filters), per-symbol counting vs the packed
 *                           64-bit histogram with the fused Kraft sum
 *  - chunk_pipeline:        end-to-end ParallelGzipReader::decompressAll(), current
 *                           infrastructure with the symbol loop switched
 *                           between reference and fast (an in-tree ablation,
 *                           the one component not measured against legacy)
 *
 * PR 7 adds the SIMD dispatch layer (src/simd/) and three more components:
 *
 *  - replace_markers:       the two-stage marker substitution, pre-PR scalar
 *                           per-symbol loop vs the dispatched compare-and-
 *                           blend kernel (measured on a ~10%-marker mix and
 *                           on marker-free data, the fast-path sweep)
 *  - crc32:                 zlib's crc32 (the pre-PR CRC on every hot path)
 *                           vs the dispatched slice-by-16 / PCLMULQDQ kernel
 *  - precode_stage5:        the full cascade on positions that SURVIVE
 *                           stages 1-4, where the stage-5 RLE parse
 *                           dominates: pre-PR heap-allocating HuffmanCoding
 *                           vs the cached 128-entry precode LUT
 *
 * Every before/after pair is checked for bit-exact agreement before it is
 * timed — a diverging component aborts the benchmark.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blockfinder/DynamicBlockFinderNaive.hpp"
#include "common/Util.hpp"
#include "deflate/definitions.hpp"
#include "failsafe/FaultInjection.hpp"
#include "gzip/GzipHeader.hpp"
#include "gzip/ZlibCompressor.hpp"
#include "simd/Crc32.hpp"
#include "simd/Dispatch.hpp"
#include "telemetry/Registry.hpp"
#include "telemetry/Trace.hpp"
#include "workloads/DataGenerators.hpp"

#include "BenchmarkHelpers.hpp"
#include "CurrentHotpaths.hpp"
#include "LegacyBaseline.hpp"

using namespace rapidgzip;

namespace {

struct Row
{
    std::string component;
    std::string workload;
    std::string unit;
    double before{ 0 };
    double after{ 0 };
};

std::vector<Row> g_rows;

void
addRow( const std::string& component, const std::string& workload, const std::string& unit,
        double before, double after )
{
    g_rows.push_back( { component, workload, unit, before, after } );
    std::printf( "  %-24s %-10s %12.2f -> %12.2f %-8s %6.2fx\n",
                 component.c_str(), workload.c_str(), before, after, unit.c_str(),
                 after / std::max( before, 1e-9 ) );
    std::fflush( stdout );
}

void
writeJson( const char* path, double scale, std::size_t repeats, const char* notes )
{
    std::FILE* file = std::fopen( path, "w" );
    if ( file == nullptr ) {
        std::fprintf( stderr, "Cannot open %s for writing!\n", path );
        std::exit( 1 );
    }
    std::fprintf( file, "{\n  \"benchmark\": \"components_hotpath\",\n"
                        "  \"baseline\": \"bench/legacy (verbatim pre-PR hot paths)\",\n"
                        "  \"simd_dispatch\": \"%s\",\n"
                        "  \"scale\": %g,\n  \"repeats\": %zu,\n  \"components\": [\n",
                  simd::toString( simd::activeLevel() ), scale, repeats );
    for ( std::size_t i = 0; i < g_rows.size(); ++i ) {
        const auto& row = g_rows[i];
        std::fprintf( file,
                      "    { \"component\": \"%s\", \"workload\": \"%s\", \"unit\": \"%s\", "
                      "\"before\": %.2f, \"after\": %.2f, \"speedup\": %.3f }%s\n",
                      row.component.c_str(), row.workload.c_str(), row.unit.c_str(),
                      row.before, row.after, row.after / std::max( row.before, 1e-9 ),
                      i + 1 < g_rows.size() ? "," : "" );
    }
    std::fprintf( file, "  ],\n  \"notes\": \"%s\"\n}\n", notes );
    std::fclose( file );
    std::printf( "\n  JSON written to %s\n", path );
}

[[nodiscard]] BufferView
deflateStream( const std::vector<std::uint8_t>& gz )
{
    const auto start = parseGzipHeader( { gz.data(), gz.size() } );
    return { gz.data() + start, gz.size() - start };
}

void
require( bool condition, const char* what )
{
    if ( !condition ) {
        std::fprintf( stderr, "EQUIVALENCE FAILURE: %s\n", what );
        std::exit( 1 );
    }
}

/** Interleave single-repeat before/after measurements and keep each side's
 * best: ambient load on a shared machine comes in phases, and pairing the
 * runs makes a slow phase hit both sides instead of biasing one. */
template<typename MeasureBefore, typename MeasureAfter>
[[nodiscard]] std::pair<double, double>
interleaved( std::size_t repeats, const MeasureBefore& before, const MeasureAfter& after )
{
    double bestBefore = 0;
    double bestAfter = 0;
    for ( std::size_t i = 0; i < repeats; ++i ) {
        bestBefore = std::max( bestBefore, before() );
        bestAfter = std::max( bestAfter, after() );
    }
    return { bestBefore, bestAfter };
}

void
benchmarkBitReader( std::size_t repeats )
{
    const auto data = workloads::randomData( bench::scaledSize( 32 * MiB ), 0xB17 );
    constexpr unsigned BITS = 12;  /* a typical Huffman-code-sized request */
    const BufferView view{ data.data(), data.size() };
    const auto [before, after] = interleaved(
        repeats,
        [&] () { return legacybench::measureBitReaderBandwidth( view, BITS, 1 ); },
        [&] () { return currentbench::measureBitReaderBandwidth( view, BITS, 1 ); } );
    addRow( "bitreader_refill", "random_bits", "MB/s", before / 1e6, after / 1e6 );
}

void
benchmarkDecoder( const char* workload, const std::vector<std::uint8_t>& raw,
                  std::size_t repeats )
{
    const auto gz = compressGzipLike( { raw.data(), raw.size() }, 6 );
    const auto stream = deflateStream( gz );

    /* Marker mode: start at a found mid-stream block, window unknown. */
    const blockfinder::DynamicBlockFinderNaive finder;
    const auto midBlock = finder.find( stream, stream.size() / 4 * 8 );
    require( midBlock != blockfinder::NOT_FOUND, "no mid-stream block found" );

    for ( const bool windowKnown : { false, true } ) {
        const auto fromBit = windowKnown ? 0 : midBlock;

        /* Equivalence first: the legacy and current decoders must produce
         * identical bytes (and identical markers, via the flattening). */
        const auto legacyOut = legacybench::decodeOnce( stream, fromBit, windowKnown );
        const auto currentOut = currentbench::decodeOnce( stream, fromBit, windowKnown );
        require( legacyOut.ok, "legacy decoder error" );
        require( currentOut.ok, "current decoder error" );
        require( legacyOut.flattened == currentOut.flattened,
                 "current decode diverges from the pre-PR decode" );

        const auto decodedBytes = currentOut.totalSize;
        const auto [before, after] = interleaved(
            repeats,
            [&] () { return legacybench::measureDecodeBandwidth(
                         stream, fromBit, windowKnown, decodedBytes, 1 ); },
            [&] () { return currentbench::measureDecodeBandwidth(
                         stream, fromBit, windowKnown, decodedBytes, 1 ); } );
        require( ( before > 0 ) && ( after > 0 ), "decode changed between runs" );
        addRow( windowKnown ? "plain_decoder" : "marker_decoder", workload, "MB/s",
                before / 1e6, after / 1e6 );
    }
}

void
benchmarkRejection( const char* workload, const std::vector<std::uint8_t>& raw,
                    std::size_t repeats )
{
    const auto gz = compressGzipLike( { raw.data(), raw.size() }, 6 );
    const auto stream = deflateStream( gz );

    /* The precode stage only runs on positions surviving the 8-bit prefix
     * filters (BFINAL = 0, BTYPE = dynamic, HLIT <= 29) — collect those so
     * the measurement isolates the rejection stage this PR optimizes. */
    const auto positions = currentbench::collectPrecodeStagePositions( stream );
    require( !positions.empty(), "no precode-stage candidate positions" );

    /* Equivalence first: packed vs pre-PR on acceptance and every precode
     * counter, and packed vs the in-tree scalar variant per position. */
    require( currentbench::runFilter( stream, positions )
             == legacybench::runFilter( stream, positions ),
             "packed precode filter diverges from the pre-PR filter" );
    require( currentbench::scalarMatchesPacked( stream, positions ),
             "packed precode filter diverges from the scalar variant" );

    const auto [before, after] = interleaved(
        repeats,
        [&] () { return legacybench::measureRejectionRate( stream, positions, 1 ); },
        [&] () { return currentbench::measureRejectionRate( stream, positions, 1 ); } );
    addRow( "blockfinder_rejection", workload, "Mpos/s", before / 1e6, after / 1e6 );
}

void
benchmarkReplaceMarkers( std::size_t repeats )
{
    /* A full 32 KiB last-window plus two symbol mixes: ~10% markers (a
     * mid-chunk block that keeps referencing the unknown window) and
     * marker-free (the dominant case once back-references die out, where the
     * vector kernel degenerates to a narrowing sweep with zero per-symbol
     * branches). */
    auto window = workloads::randomData( deflate::WINDOW_SIZE, 0x37A7 );
    const auto symbolCount = bench::scaledSize( 16 * MiB );

    Xorshift64 random( 0x5CA1E );
    for ( const auto markerPermille : { std::size_t( 100 ), std::size_t( 0 ) } ) {
        std::vector<std::uint16_t> symbols( symbolCount );
        for ( auto& symbol : symbols ) {
            const auto raw16 = static_cast<std::uint16_t>( random() );
            symbol = ( random() % 1000 ) < markerPermille
                     ? static_cast<std::uint16_t>( raw16 | 0x8000U )
                     : static_cast<std::uint16_t>( raw16 & 0x7FFFU );
        }

        require( legacybench::replaceMarkersOnce( symbols, window )
                 == currentbench::replaceMarkersOnce( symbols, window ),
                 "simd replaceMarkers diverges from the pre-PR scalar loop" );

        const auto [before, after] = interleaved(
            repeats,
            [&] () { return legacybench::measureReplaceMarkersBandwidth( symbols, window, 1 ); },
            [&] () { return currentbench::measureReplaceMarkersBandwidth( symbols, window, 1 ); } );
        addRow( "replace_markers", markerPermille > 0 ? "markers_10pct" : "marker_free",
                "MB/s", before / 1e6, after / 1e6 );
    }
}

void
benchmarkCrc32( std::size_t repeats )
{
    /* L2-resident working set: the row compares the KERNELS (zlib's
     * slice-by-4 vs the dispatched PCLMUL fold), so the buffer must not be
     * large enough for DRAM bandwidth to cap the fast side — at multi-GB/s
     * a 64 MiB sweep measures the memory subsystem of a loaded shared
     * machine, not the CRC code. In the pipeline the verifier runs on
     * chunk-sized pieces that are cache-warm from the decoder anyway, so
     * the resident case is also the representative one. Several passes per
     * sample keep each timing window well above clock granularity. */
    const auto data = workloads::randomData( bench::scaledSize( 2 * MiB ), 0xC12C );
    const BufferView view{ data.data(), data.size() };

    require( legacybench::crc32Once( view ) == currentbench::crc32Once( view ),
             "simd crc32 diverges from zlib" );

    const auto [before, after] = interleaved(
        repeats,
        [&] () { return legacybench::measureCrc32Bandwidth( view, 8 ); },
        [&] () { return currentbench::measureCrc32Bandwidth( view, 8 ); } );
    addRow( "crc32", "random", "MB/s", before / 1e6, after / 1e6 );
}

void
benchmarkPrecodeStage5( const char* workload, const std::vector<std::uint8_t>& raw,
                        std::size_t repeats )
{
    const auto gz = compressGzipLike( { raw.data(), raw.size() }, 6 );
    const auto stream = deflateStream( gz );

    /* Positions surviving stages 1-4: on these the stage-5 RLE parse IS the
     * cost, so the full cascade isolates the cached-LUT change. Survivors
     * are rare by design (~0.2% of precode-stage candidates), so tile the
     * set up to a stable measurement size — identical work for both sides,
     * and repeated header configurations are exactly what the LUT cache
     * exploits on real streams. */
    auto positions = currentbench::collectStage5Positions( stream );
    require( !positions.empty(), "no stage-5 survivor positions" );
    const auto uniquePositions = positions.size();
    while ( positions.size() < 4096 ) {
        positions.insert( positions.end(), positions.begin(),
                          positions.begin() + uniquePositions );
    }

    require( currentbench::runFilter( stream, positions )
             == legacybench::runFilter( stream, positions ),
             "cached-LUT stage 5 diverges from the pre-PR cascade" );

    const auto [before, after] = interleaved(
        repeats,
        [&] () { return legacybench::measureRejectionRate( stream, positions, 1 ); },
        [&] () { return currentbench::measureRejectionRate( stream, positions, 1 ); } );
    addRow( "precode_stage5", workload, "Mpos/s", before / 1e6, after / 1e6 );
}

/* --- telemetry overhead guard (PR 8) ------------------------------------ */

/* The two sweeps must live in this TU, [[gnu::noinline]], so the compiler
 * cannot specialize the hooked loop on the (known-at-link-time) disabled
 * gate: the point is to price exactly what shipping code pays — one relaxed
 * load per hook — around a realistic unit of work (a 4 KiB CRC update, the
 * granularity at which the pipeline hooks fire). */

[[gnu::noinline]] std::uint32_t
telemetrySweepWithHook( const std::uint8_t* data, std::size_t size, std::size_t iterations )
{
    std::uint32_t crc = 0;
    for ( std::size_t i = 0; i < iterations; ++i ) {
        telemetry::Span span{ "bench", "bench.hooked" };
        RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_bench_hook_total",
                                   "Overhead-guard hook counter.", 1 );
        crc = simd::crc32( crc, data, size );
    }
    return crc;
}

[[gnu::noinline]] std::uint32_t
telemetrySweepWithoutHook( const std::uint8_t* data, std::size_t size, std::size_t iterations )
{
    std::uint32_t crc = 0;
    for ( std::size_t i = 0; i < iterations; ++i ) {
        crc = simd::crc32( crc, data, size );
    }
    return crc;
}

/* The overhead guards compare two numbers expected to be EQUAL, unlike the
 * figure benches which measure a speedup: a single tiny smoke-scale sample
 * turns scheduler noise straight into phantom "overhead". Floor the work
 * and the repeat count independently of RAPIDGZIP_BENCH_SCALE — a guard
 * sweep is a few milliseconds, so even the floored repeats stay cheap. */
constexpr std::size_t GUARD_MIN_ITERATIONS = 16 * 1024;  /* x 4 KiB = 64 MiB per sweep */
constexpr std::size_t GUARD_MIN_REPEATS = 7;

/* Sanitizers instrument the gate's relaxed load itself, so under ASan/TSan
 * the guards measure instrumentation, not the production invariant: report
 * the number but do not enforce the budget there. */
#if defined( __SANITIZE_ADDRESS__ ) || defined( __SANITIZE_THREAD__ )
constexpr bool GUARD_ENFORCED = false;
#elif defined( __has_feature )
    #if __has_feature( address_sanitizer ) || __has_feature( thread_sanitizer )
constexpr bool GUARD_ENFORCED = false;
    #else
constexpr bool GUARD_ENFORCED = true;
    #endif
#else
constexpr bool GUARD_ENFORCED = true;
#endif

/* interleaved() always samples before-then-after, which is fine for the
 * figure benches but biases an EQUALITY guard: on a machine whose clock is
 * decaying (turbo falling off right after the rest of the suite), the
 * second position in every pair is systematically slower, and max-of-N
 * then charges that bias to one side as phantom overhead. Alternate the
 * order within pairs so clock drift hits both sides equally. */
template<typename MeasureA, typename MeasureB>
[[nodiscard]] std::pair<double, double>
interleavedBalanced( std::size_t repeats, const MeasureA& a, const MeasureB& b )
{
    double bestA = 0;
    double bestB = 0;
    for ( std::size_t i = 0; i < repeats; ++i ) {
        if ( i % 2 == 0 ) {
            bestA = std::max( bestA, a() );
            bestB = std::max( bestB, b() );
        } else {
            bestB = std::max( bestB, b() );
            bestA = std::max( bestA, a() );
        }
    }
    return { bestA, bestB };
}

/** Shared body of the two gate-overhead guards: best-of order-balanced
 * plain-vs-gated bandwidth, re-measured on a breach. A genuinely regressed
 * gate (work before the relaxed load) is over budget on EVERY attempt; a
 * scheduler hiccup on a busy host is not, so only a breach on all attempts
 * fails. The first attempt's numbers go into the committed JSON row. */
template<typename PlainSweep, typename GatedSweep>
void
runOverheadGuard( const char* rowName, const char* gateLabel, const char* failureTag,
                  const char* thresholdEnv, std::uint64_t dataSeed, std::size_t repeats,
                  const PlainSweep& plainSweep, const GatedSweep& gatedSweep )
{
    const auto data = workloads::randomData( 4 * KiB, dataSeed );
    const auto iterations = std::max( bench::scaledSize( 64 * 1024 ), GUARD_MIN_ITERATIONS );
    volatile std::uint32_t sink = 0;

    const auto measure = [&] ( auto&& sweep ) {
        Stopwatch stopwatch;
        sink = sink + sweep( data.data(), data.size(), iterations );
        const auto seconds = stopwatch.elapsed();
        return static_cast<double>( iterations * data.size() ) / std::max( seconds, 1e-12 );
    };

    /* Warm up both code paths (page-in, branch history, frequency) before
     * any sample counts. */
    sink = sink + plainSweep( data.data(), data.size(), iterations );
    sink = sink + gatedSweep( data.data(), data.size(), iterations );

    double threshold = 2.0;
    if ( const char* env = std::getenv( thresholdEnv );
         ( env != nullptr ) && ( env[0] != '\0' ) )
    {
        threshold = std::atof( env );
    }

    constexpr int ATTEMPTS = 5;
    double overheadPercent = 0;
    for ( int attempt = 0; attempt < ATTEMPTS; ++attempt ) {
        if ( attempt > 0 ) {
            /* Let a transient host-load spike pass before re-measuring;
             * escalate so a multi-second grind still gets a clean window. */
            std::this_thread::sleep_for( std::chrono::milliseconds( 100 * attempt ) );
        }
        const auto [plain, gated] = interleavedBalanced(
            std::max( repeats, GUARD_MIN_REPEATS ),
            [&] () { return measure( plainSweep ); },
            [&] () { return measure( gatedSweep ); } );
        if ( attempt == 0 ) {
            /* Row semantics match the others: before = plain, after = with
             * the disabled gate; "speedup" ~1.0 is the pass condition,
             * printed so the committed JSON carries the overhead number,
             * not just pass/fail. */
            addRow( rowName, "crc32_4KiB", "MB/s", plain / 1e6, gated / 1e6 );
        }
        overheadPercent = ( plain / std::max( gated, 1.0 ) - 1.0 ) * 100.0;
        if ( !GUARD_ENFORCED || ( overheadPercent <= threshold ) ) {
            break;
        }
        std::printf( "  %s overhead %.2f%% > %.1f%% on attempt %d/%d, re-measuring\n",
                     gateLabel, overheadPercent, threshold, attempt + 1, ATTEMPTS );
    }

    std::printf( "  %s overhead: %.2f%% (budget %.1f%%%s)\n",
                 gateLabel, std::max( overheadPercent, 0.0 ), threshold,
                 GUARD_ENFORCED ? "" : ", not enforced under sanitizers" );
    if ( GUARD_ENFORCED && ( overheadPercent > threshold ) ) {
        std::fprintf( stderr,
                      "%s OVERHEAD FAILURE: disabled gates cost %.2f%% > %.1f%% on every "
                      "attempt of the crc32 sweep — a %s is doing work before checking "
                      "the gate\n",
                      failureTag, overheadPercent, threshold, gateLabel );
        std::exit( 1 );
    }
}

void
benchmarkTelemetryOverhead( std::size_t repeats )
{
    /* Measure the DISABLED state — that is the invariant this guard protects
     * (library users who never opt in must not pay for the hooks) — but
     * restore whatever the process had, so RAPIDGZIP_TRACE runs still trace. */
    const auto savedBits = telemetry::g_activeBits.exchange( 0, std::memory_order_relaxed );

    runOverheadGuard( "telemetry_overhead", "telemetry-disabled hook", "TELEMETRY",
                      "RAPIDGZIP_TELEMETRY_OVERHEAD_PCT", 0x7E1E, repeats,
                      telemetrySweepWithoutHook, telemetrySweepWithHook );

    telemetry::g_activeBits.store( savedBits, std::memory_order_relaxed );
}

/* --- failsafe overhead guard (PR 9) ------------------------------------- */

/* Same contract as the telemetry guard: a DISABLED fault probe must cost one
 * relaxed load and nothing else. The sweep interleaves a shouldInject()
 * probe with the same 4 KiB CRC unit of work; [[gnu::noinline]] keeps the
 * compiler from specializing on the statically-disarmed mask. */

[[gnu::noinline]] std::uint32_t
failsafeSweepWithProbe( const std::uint8_t* data, std::size_t size, std::size_t iterations )
{
    std::uint32_t crc = 0;
    for ( std::size_t i = 0; i < iterations; ++i ) {
        if ( failsafe::shouldInject( failsafe::FaultPoint::CHUNK_DECODE ) ) {
            ++crc;  /* unreachable while disarmed; defeats dead-probe elision */
        }
        crc = simd::crc32( crc, data, size );
    }
    return crc;
}

[[gnu::noinline]] std::uint32_t
failsafeSweepWithoutProbe( const std::uint8_t* data, std::size_t size, std::size_t iterations )
{
    std::uint32_t crc = 0;
    for ( std::size_t i = 0; i < iterations; ++i ) {
        crc = simd::crc32( crc, data, size );
    }
    return crc;
}

void
benchmarkFailsafeOverhead( std::size_t repeats )
{
    failsafe::disarmAll();  /* price the production state: no faults armed */

    runOverheadGuard( "failsafe_overhead", "failsafe-disarmed probe", "FAILSAFE",
                      "RAPIDGZIP_FAILSAFE_OVERHEAD_PCT", 0xFA17, repeats,
                      failsafeSweepWithoutProbe, failsafeSweepWithProbe );
}

void
benchmarkPipeline( const char* workload, const std::vector<std::uint8_t>& raw,
                   std::size_t repeats )
{
    const auto gz = compressGzipLike( { raw.data(), raw.size() }, 6 );
    const auto parallelism = std::min<std::size_t>( 4, bench::threadSweep().back() );
    const auto [before, after] = interleaved(
        repeats,
        [&] () { return currentbench::measurePipelineBandwidth(
                     gz, raw.size(), /* referenceSymbolLoop */ true, parallelism, 1 ); },
        [&] () { return currentbench::measurePipelineBandwidth(
                     gz, raw.size(), /* referenceSymbolLoop */ false, parallelism, 1 ); } );
    require( ( before > 0 ) && ( after > 0 ), "pipeline size mismatch" );
    addRow( "chunk_pipeline", workload, "MB/s", before / 1e6, after / 1e6 );
}

}  // namespace

int
main()
{
    bench::printHeader( "Hot-path components: pre-PR baseline vs current (PR 4 + PR 7)" );
    std::printf( "  simd dispatch: %s (detected %s)\n\n",
                 simd::toString( simd::activeLevel() ),
                 simd::toString( simd::detectedLevel() ) );

    const auto repeats = bench::benchRepeats( 3 );
    const auto scale = bench::benchScale();
    std::printf( "  %-24s %-13s %12s    %12s %-8s %7s\n",
                 "component", "workload", "before", "after", "unit", "speedup" );

    benchmarkBitReader( repeats );

    const auto base64 = workloads::base64Data( bench::scaledSize( 16 * MiB ), 0x407B );
    const auto silesia = workloads::silesiaLikeData( bench::scaledSize( 16 * MiB ), 0x407C );

    benchmarkDecoder( "base64", base64, repeats );
    benchmarkDecoder( "silesia", silesia, repeats );
    benchmarkRejection( "base64", base64, repeats );
    benchmarkRejection( "silesia", silesia, repeats );
    benchmarkReplaceMarkers( repeats );
    benchmarkCrc32( repeats );
    benchmarkPrecodeStage5( "base64", base64, repeats );
    benchmarkPrecodeStage5( "silesia", silesia, repeats );
    benchmarkPipeline( "base64", base64, repeats );
    benchmarkPipeline( "silesia", silesia, repeats );
    benchmarkTelemetryOverhead( repeats );
    benchmarkFailsafeOverhead( repeats );

    const char* jsonPath = std::getenv( "RAPIDGZIP_BENCH_JSON" );
    writeJson( ( jsonPath != nullptr ) && ( jsonPath[0] != '\0' ) ? jsonPath
                                                                  : "BENCH_hotpath.json",
               scale, repeats,
               "PR 7 profiling: with markers, CRC32, and the stage-5 precode parse "
               "vectorized or cached, the remaining bottleneck of the chunk pipeline is "
               "the serial Huffman symbol-decode loop itself (bit-serial code resolution "
               "in deflate::Decoder) - the multi-symbol LUT shrank it but it still "
               "dominates per-chunk time ahead of stitching and verification." );

    std::printf( "\n  Expected shape: >= 1.5x on marker_decoder and >= 2x on\n"
                 "  blockfinder_rejection vs the pre-PR baseline (the PR-4 acceptance\n"
                 "  gates); >= 1.5x on replace_markers and >= 3x on crc32 (the PR-7\n"
                 "  gates, on an AVX2 machine); the refill amortization and pipeline\n"
                 "  rows track the same wins upstream and downstream of the symbol loop.\n" );
    return 0;
}
