#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "../common/Util.hpp"
#include "../simd/ReplaceMarkers.hpp"
#include "definitions.hpp"

namespace rapidgzip::deflate {

/**
 * Two-stage decoding intermediate format (paper §3.3). A chunk decoded from
 * an arbitrary bit offset does not know the 32 KiB window preceding it, so
 * back-references into that window cannot be resolved during decoding.
 * Instead the first stage emits 16-bit symbols:
 *
 *   value < 256            : a resolved literal byte
 *   value >= MARKER_BASE   : a marker — (value - MARKER_BASE) indexes the
 *                            unknown window, 0 = oldest byte (WINDOW_SIZE
 *                            bytes before the chunk start), WINDOW_SIZE-1 =
 *                            the byte immediately preceding the chunk
 *
 * Markers propagate through LZ77 copies, so they persist for as long as the
 * data keeps referencing the pre-chunk history. The second stage replaces
 * them via replaceMarkers() once the previous chunk's window is available.
 */
inline constexpr std::uint16_t MARKER_BASE = 32768;

/** One stretch of conventionally (8-bit) decoded output. FastVector: the
 * decoder's sinks size the buffer ahead of raw-cursor writes, so resize()
 * must not value-initialize. */
struct Segment
{
    FastVector<std::uint8_t> data;

    [[nodiscard]] std::size_t
    decodedSize() const noexcept
    {
        return data.size();
    }
};

/**
 * A decoded chunk: the 16-bit "marked" prefix (possibly empty when the
 * window was known from the start), followed by 8-bit "plain" segments
 * produced after the decoder's fallback to conventional decoding — triggered
 * once the trailing WINDOW_SIZE outputs contain no markers, at which point
 * every future back-reference is guaranteed to resolve inside the chunk.
 */
struct DecodedData
{
    FastVector<std::uint16_t> marked;
    std::vector<Segment> plain;

    [[nodiscard]] std::size_t
    totalSize() const noexcept
    {
        auto size = marked.size();
        for ( const auto& segment : plain ) {
            size += segment.decodedSize();
        }
        return size;
    }

    /** Clear contents but KEEP the allocations (the first plain segment's
     * buffer and the marked buffer) — the reuse primitive the buffer pool
     * is built on. */
    void
    reset()
    {
        marked.clear();
        if ( plain.size() > 1 ) {
            plain.resize( 1 );
        }
        if ( !plain.empty() ) {
            plain.front().data.clear();
        }
    }
};

/**
 * Freelist of DecodedData buffers so steady-state chunk decoding does zero
 * heap allocation: a worker acquires a buffer whose vectors already hold
 * their steady-state capacity, decodes into it, and the consumer releases it
 * back after marker resolution. Producers and consumers are different
 * threads (pool workers decode, the stitch thread consumes), hence one
 * shared mutex-guarded freelist rather than thread-local caches; the lock is
 * taken twice per multi-megabyte chunk, which is noise.
 *
 * Buffers that never come back (error paths, tests, benches) are simply
 * destroyed by their owner — the pool holds only what was released, capped
 * at MAX_POOLED entries, itself bounded in practice by the in-flight batch.
 */
class DecodedDataPool
{
public:
    [[nodiscard]] static DecodedData
    acquire()
    {
        auto& pool = instance();
        const std::lock_guard<std::mutex> lock( pool.m_mutex );
        if ( pool.m_free.empty() ) {
            return {};
        }
        auto data = std::move( pool.m_free.back() );
        pool.m_free.pop_back();
        return data;
    }

    static void
    release( DecodedData&& data )
    {
        /* Outliers (a pathological-ratio chunk's buffers) are destroyed
         * instead of retained: the pool bounds its steady-state footprint
         * to MAX_POOLED * MAX_POOLED_CAPACITY_BYTES worst case. A buffer
         * that holds nothing (moved from) is not worth a slot. */
        const auto retainedBytes =
            data.marked.capacity() * sizeof( std::uint16_t )
            + ( data.plain.empty() ? 0 : data.plain.front().data.capacity() );
        if ( ( retainedBytes == 0 ) || ( retainedBytes > MAX_POOLED_CAPACITY_BYTES ) ) {
            return;
        }
        data.reset();
        auto& pool = instance();
        const std::lock_guard<std::mutex> lock( pool.m_mutex );
        if ( pool.m_free.size() < MAX_POOLED ) {
            pool.m_free.push_back( std::move( data ) );
        }
    }

    /** Drop every retained buffer — for callers that know the heavy
     * decoding phase is over and want the memory back before process end. */
    static void
    clear()
    {
        auto& pool = instance();
        const std::lock_guard<std::mutex> lock( pool.m_mutex );
        pool.m_free.clear();
        pool.m_free.shrink_to_fit();
    }

private:
    static constexpr std::size_t MAX_POOLED = 64;
    static constexpr std::size_t MAX_POOLED_CAPACITY_BYTES = std::size_t( 128 ) << 20U;

    [[nodiscard]] static DecodedDataPool&
    instance()
    {
        static DecodedDataPool pool;
        return pool;
    }

    std::mutex m_mutex;
    std::vector<DecodedData> m_free;
};

/**
 * Stage two: substitute every marker in @p symbols with the corresponding
 * byte of @p window and narrow the rest to bytes, writing totalSize bytes to
 * @p output. @p window holds the last window.size() bytes of output
 * preceding the chunk; the full-window case (WINDOW_SIZE bytes) is the hot
 * path the paper benchmarks at 1254 MB/s in Table 2.
 *
 * Markers reaching in front of a short window decode to 0 — a valid stream
 * never produces them (a back-reference cannot outreach the real history),
 * so they only appear for false block-finder positives, which the chunk
 * fetcher's checksum verification rejects wholesale.
 */
inline void
replaceMarkers( VectorView<std::uint16_t> symbols,
                VectorView<std::uint8_t> window,
                std::uint8_t* output ) noexcept
{
    /* The SIMD kernel hardwires the marker encoding; keep it impossible to
     * drift from these constants silently. */
    static_assert( MARKER_BASE == 0x8000U, "simd::replaceMarkers assumes the int16 sign bit" );
    static_assert( WINDOW_SIZE == 0x8000U, "simd::replaceMarkers masks offsets with 0x7FFF" );

    const auto* const windowData = window.data();
    if ( window.size() >= WINDOW_SIZE ) {
        /* Hot path: any marker offset is addressable — runtime-dispatched
         * (SSE2/AVX2/NEON) compare-and-patch narrowing. */
        const auto* const recent = windowData + ( window.size() - WINDOW_SIZE );
        simd::replaceMarkers( symbols.data(), symbols.size(), recent, output );
        return;
    }

    const auto missing = WINDOW_SIZE - window.size();
    for ( std::size_t i = 0; i < symbols.size(); ++i ) {
        const auto symbol = symbols[i];
        if ( symbol < MARKER_BASE ) {
            output[i] = static_cast<std::uint8_t>( symbol );
        } else {
            const std::size_t offset = symbol - MARKER_BASE;
            output[i] = offset >= missing ? windowData[offset - missing] : std::uint8_t( 0 );
        }
    }
}

/** Convenience overload appending the resolved bytes to @p output. */
inline void
resolveInto( const DecodedData& data,
             VectorView<std::uint8_t> window,
             std::vector<std::uint8_t>& output )
{
    if ( !data.marked.empty() ) {
        const auto offset = output.size();
        output.resize( offset + data.marked.size() );
        replaceMarkers( { data.marked.data(), data.marked.size() }, window, output.data() + offset );
    }
    for ( const auto& segment : data.plain ) {
        output.insert( output.end(), segment.data.begin(), segment.data.end() );
    }
}

}  // namespace rapidgzip::deflate
