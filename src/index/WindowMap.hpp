#pragma once

#include <zlib.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../deflate/definitions.hpp"

namespace rapidgzip::index {

/**
 * The windows of a gzip index, stored zlib-compressed. Windows dominate
 * index size — a full 32 KiB per checkpoint versus 16-ish bytes of offsets —
 * so they are compressed on insert and decompressed on access. Keys are the
 * checkpoints' bit offsets; an absent key means an EMPTY window (restart
 * point), which is a valid resume state, not an error.
 *
 * Sparse windows: a checkpoint's window only needs the bytes that decoding
 * from the checkpoint actually back-references. The stage-one marker decode
 * knows exactly which ones those are — every surviving 16-bit marker names
 * one window offset — so insertSparse() zeroes the never-referenced bytes
 * before compressing, which typically shrinks the stored window by an order
 * of magnitude on text-like data. Zeroing is transparent to consumers: the
 * zeroed bytes are by construction never read when decoding resumes at the
 * owning checkpoint.
 *
 * All accessors are const-thread-safe once the map is built (get() works on
 * immutable compressed buffers), which is what lets the parallel chunk
 * fetcher's worker threads pull windows concurrently.
 */
class WindowMap
{
public:
    struct CompressedWindow
    {
        std::vector<std::uint8_t> zlibData;     /**< zlib-format (RFC 1950) stream */
        std::uint32_t decompressedSize{ 0 };

        [[nodiscard]] friend bool
        operator==( const CompressedWindow& a, const CompressedWindow& b ) noexcept
        {
            return ( a.decompressedSize == b.decompressedSize ) && ( a.zlibData == b.zlibData );
        }
    };

    /** Compress and store the up-to-32 KiB @p window for the checkpoint at
     * @p compressedOffsetBits. Empty windows are not stored (absence means
     * empty). Re-inserting overwrites. */
    void
    insert( std::size_t compressedOffsetBits, BufferView window )
    {
        if ( window.empty() ) {
            m_windows.erase( compressedOffsetBits );
            return;
        }
        m_windows[compressedOffsetBits] = compress( window );
    }

    /**
     * Sparse insert: store @p window with every byte whose window offset is
     * not flagged in @p referenced replaced by zero. @p referenced indexes
     * the FULL 32 KiB window coordinate space (0 = oldest byte, as markers
     * do); when @p window is shorter than 32 KiB its first byte corresponds
     * to offset 32 KiB - window.size().
     */
    void
    insertSparse( std::size_t compressedOffsetBits,
                  BufferView window,
                  const std::vector<bool>& referenced )
    {
        if ( window.empty() ) {
            m_windows.erase( compressedOffsetBits );
            return;
        }
        std::vector<std::uint8_t> sparse( window.size() );
        const auto missing = deflate::WINDOW_SIZE - std::min( window.size(),
                                                              deflate::WINDOW_SIZE );
        for ( std::size_t i = 0; i < window.size(); ++i ) {
            const auto markerOffset = missing + i;
            sparse[i] = ( ( markerOffset < referenced.size() ) && referenced[markerOffset] )
                        ? window[i]
                        : std::uint8_t( 0 );
        }
        m_windows[compressedOffsetBits] = compress( { sparse.data(), sparse.size() } );
    }

    /** Adopt an already-compressed window (deserialization path). */
    void
    insertCompressed( std::size_t compressedOffsetBits, CompressedWindow window )
    {
        if ( window.decompressedSize == 0 ) {
            m_windows.erase( compressedOffsetBits );
            return;
        }
        m_windows[compressedOffsetBits] = std::move( window );
    }

    /** Decompress and return the window for @p compressedOffsetBits; an
     * empty vector when none is stored (restart point). */
    [[nodiscard]] std::vector<std::uint8_t>
    get( std::size_t compressedOffsetBits ) const
    {
        const auto match = m_windows.find( compressedOffsetBits );
        if ( match == m_windows.end() ) {
            return {};
        }
        return decompress( match->second );
    }

    [[nodiscard]] bool
    contains( std::size_t compressedOffsetBits ) const
    {
        return m_windows.find( compressedOffsetBits ) != m_windows.end();
    }

    [[nodiscard]] std::size_t
    size() const noexcept
    {
        return m_windows.size();
    }

    /** Total bytes of compressed window storage (index size accounting). */
    [[nodiscard]] std::size_t
    compressedBytes() const noexcept
    {
        std::size_t total = 0;
        for ( const auto& [offset, window] : m_windows ) {
            total += window.zlibData.size();
        }
        return total;
    }

    /** Serialization access: offset → compressed window, ordered by offset. */
    [[nodiscard]] const std::map<std::size_t, CompressedWindow>&
    compressedWindows() const noexcept
    {
        return m_windows;
    }

    [[nodiscard]] friend bool
    operator==( const WindowMap& a, const WindowMap& b ) noexcept
    {
        return a.m_windows == b.m_windows;
    }

    /**
     * Z_RLE rather than a lazy-matching level: the two-stage sweep compresses
     * every checkpoint window on its serial consumer thread, and sparse
     * windows (zero runs with islands of data) send level 9 down long hash
     * chains: on a 4-core Xeon, ~3.6 ms per silesia-like window versus
     * ~0.17 ms for Z_RLE, for ~30% more bytes. The output is still a zlib
     * (RFC 1950) stream read by uncompress.
     */
    [[nodiscard]] static CompressedWindow
    compress( BufferView window )
    {
        CompressedWindow result;
        result.decompressedSize = static_cast<std::uint32_t>( window.size() );

        z_stream stream{};
        if ( deflateInit2( &stream, Z_BEST_COMPRESSION, Z_DEFLATED, MAX_WBITS, 8, Z_RLE ) != Z_OK ) {
            throw RapidgzipError( "Failed to compress an index window" );
        }
        result.zlibData.resize( deflateBound( &stream, static_cast<uLong>( window.size() ) ) );
        stream.next_in = const_cast<Bytef*>( window.data() );
        stream.avail_in = static_cast<uInt>( window.size() );
        stream.next_out = result.zlibData.data();
        stream.avail_out = static_cast<uInt>( result.zlibData.size() );
        const auto code = ::deflate( &stream, Z_FINISH );
        deflateEnd( &stream );
        if ( code != Z_STREAM_END ) {
            throw RapidgzipError( "Failed to compress an index window" );
        }
        result.zlibData.resize( stream.total_out );
        return result;
    }

    [[nodiscard]] static std::vector<std::uint8_t>
    decompress( const CompressedWindow& window )
    {
        std::vector<std::uint8_t> result( window.decompressedSize );
        uLongf size = window.decompressedSize;
        if ( ( uncompress( result.data(), &size, window.zlibData.data(),
                           static_cast<uLong>( window.zlibData.size() ) ) != Z_OK )
             || ( size != window.decompressedSize ) ) {
            throw RapidgzipError( "Corrupt compressed window in gzip index" );
        }
        return result;
    }

private:
    std::map<std::size_t, CompressedWindow> m_windows;
};

}  // namespace rapidgzip::index
