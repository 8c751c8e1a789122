#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"

#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )

#include <bzlib.h>

namespace rapidgzip::formats {

inline constexpr bool HAVE_VENDOR_BZIP2 = true;

/** RAII wrapper for a decompression bz_stream. */
class Bzip2DecompressStream
{
public:
    Bzip2DecompressStream()
    {
        if ( BZ2_bzDecompressInit( &m_stream, /* verbosity */ 0, /* small */ 0 ) != BZ_OK ) {
            throw RapidgzipError( "BZ2_bzDecompressInit failed" );
        }
    }

    ~Bzip2DecompressStream()
    {
        BZ2_bzDecompressEnd( &m_stream );
    }

    Bzip2DecompressStream( const Bzip2DecompressStream& ) = delete;
    Bzip2DecompressStream& operator=( const Bzip2DecompressStream& ) = delete;

    [[nodiscard]] bz_stream& get() noexcept { return m_stream; }

private:
    bz_stream m_stream{};
};

/** Compress @p data as one bzip2 stream; @p blockSize100k in [1, 9] sets the
 * block size (1 → many independent 100 kB blocks, 9 → few 900 kB blocks). */
[[nodiscard]] inline std::vector<std::uint8_t>
vendorBzip2Compress( BufferView data, int blockSize100k = 9 )
{
    if ( ( blockSize100k < 1 ) || ( blockSize100k > 9 ) ) {
        throw RapidgzipError( "bzip2 block size must be in [1, 9]" );
    }
    /* bzlib's documented worst case: input + 1% + 600 bytes. */
    std::vector<std::uint8_t> result( data.size() + data.size() / 100 + 600 );
    unsigned destLength = static_cast<unsigned>( result.size() );
    const auto code = BZ2_bzBuffToBuffCompress(
        reinterpret_cast<char*>( result.data() ), &destLength,
        const_cast<char*>( reinterpret_cast<const char*>( data.data() ) ),
        static_cast<unsigned>( data.size() ),
        blockSize100k, /* verbosity */ 0, /* workFactor */ 0 );
    if ( code != BZ_OK ) {
        throw RapidgzipError( "BZ2_bzBuffToBuffCompress failed with code "
                              + std::to_string( code ) );
    }
    result.resize( destLength );
    return result;
}

/**
 * Streaming decompression of a whole buffer, following CONCATENATED bzip2
 * streams like `bzip2 -d` does — the vendor ORACLE for the differential
 * tests and the Bzip2Decompressor's whole-stream unit.
 */
[[nodiscard]] inline std::vector<std::uint8_t>
vendorBzip2DecompressAll( BufferView compressed )
{
    std::vector<std::uint8_t> result;
    std::vector<std::uint8_t> chunk( 1 * MiB );

    std::size_t consumed = 0;
    while ( consumed < compressed.size() ) {
        Bzip2DecompressStream stream;
        auto& bz = stream.get();
        bz.next_in = const_cast<char*>(
            reinterpret_cast<const char*>( compressed.data() + consumed ) );
        bz.avail_in = static_cast<unsigned>(
            std::min<std::size_t>( compressed.size() - consumed,
                                   std::numeric_limits<unsigned>::max() ) );
        const auto availableBefore = bz.avail_in;

        while ( true ) {
            bz.next_out = reinterpret_cast<char*>( chunk.data() );
            bz.avail_out = static_cast<unsigned>( chunk.size() );
            const auto code = BZ2_bzDecompress( &bz );
            result.insert( result.end(), chunk.begin(),
                           chunk.begin() + ( chunk.size() - bz.avail_out ) );
            if ( code == BZ_STREAM_END ) {
                break;
            }
            if ( code != BZ_OK ) {
                throw RapidgzipError( "BZ2_bzDecompress failed with code "
                                      + std::to_string( code ) );
            }
            if ( ( bz.avail_in == 0 ) && ( bz.avail_out == static_cast<unsigned>( chunk.size() ) ) ) {
                throw RapidgzipError( "Truncated bzip2 stream" );
            }
        }
        consumed += availableBefore - bz.avail_in;
    }
    return result;
}

}  // namespace rapidgzip::formats

#else  /* !RAPIDGZIP_HAVE_VENDOR_BZIP2 */

namespace rapidgzip::formats {

inline constexpr bool HAVE_VENDOR_BZIP2 = false;

}  // namespace rapidgzip::formats

#endif
