#pragma once

#include <zlib.h>

#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../io/FileReader.hpp"
#include "GzipHeader.hpp"

namespace rapidgzip {

/**
 * Serial streaming gzip decompressor over a FileReader, backed by zlib — the
 * oracle the parallel reader's results are validated against in the tests
 * and the zlib reference of the end-to-end benchmark. No read path of the
 * library uses it. Handles multi-member files (pigz, bgzip, concatenated
 * .gz).
 */
class GzipReader
{
public:
    explicit GzipReader( std::unique_ptr<FileReader> fileReader ) :
        m_file( std::move( fileReader ) )
    {
        if ( !m_file ) {
            throw RapidgzipError( "GzipReader requires a non-null file reader" );
        }
        m_stream.zalloc = Z_NULL;
        m_stream.zfree = Z_NULL;
        m_stream.opaque = Z_NULL;
        if ( inflateInit2( &m_stream, AUTO_FORMAT_WINDOW_BITS ) != Z_OK ) {
            throw RapidgzipError( "inflateInit2 failed" );
        }
        m_inputBuffer.resize( 256 * 1024 );
    }

    ~GzipReader()
    {
        inflateEnd( &m_stream );
    }

    GzipReader( const GzipReader& ) = delete;
    GzipReader& operator=( const GzipReader& ) = delete;

    /**
     * Decompress up to @p size bytes into @p buffer. Returns the number of
     * bytes produced; 0 means the end of the (last) gzip member.
     */
    [[nodiscard]] std::size_t
    read( std::uint8_t* buffer, std::size_t size )
    {
        std::size_t produced = 0;
        while ( produced < size && !m_endOfStream ) {
            if ( m_stream.avail_in == 0 ) {
                const auto refilled = m_file->read( m_inputBuffer.data(), m_inputBuffer.size() );
                m_stream.next_in = m_inputBuffer.data();
                m_stream.avail_in = static_cast<uInt>( refilled );
            }

            /* zlib's avail_out is 32-bit: clamp, loop refills the rest. */
            const auto request = std::min<std::size_t>( size - produced, UINT_MAX / 2 );
            m_stream.next_out = buffer + produced;
            m_stream.avail_out = static_cast<uInt>( request );
            const auto code = inflate( &m_stream, Z_NO_FLUSH );
            produced += request - m_stream.avail_out;

            if ( code == Z_STREAM_END ) {
                /* Another member may follow (pigz -R, bgzip, cat a.gz b.gz).
                 * Anything that does not start with the gzip magic is
                 * trailing padding/garbage, which `gzip -d` and the
                 * parallel reader both ignore. */
                std::memmove( m_inputBuffer.data(), m_stream.next_in, m_stream.avail_in );
                std::size_t lookahead = m_stream.avail_in;
                if ( ( lookahead < 2 ) && !m_file->eof() ) {
                    lookahead += m_file->read( m_inputBuffer.data() + lookahead,
                                               m_inputBuffer.size() - lookahead );
                }
                m_stream.next_in = m_inputBuffer.data();
                m_stream.avail_in = static_cast<uInt>( lookahead );
                if ( ( lookahead >= 2 )
                     && ( m_inputBuffer[0] == GZIP_MAGIC_1 )
                     && ( m_inputBuffer[1] == GZIP_MAGIC_2 ) ) {
                    if ( inflateReset( &m_stream ) != Z_OK ) {
                        throw InvalidGzipStreamError( "inflateReset failed between gzip members" );
                    }
                } else {
                    m_endOfStream = true;
                }
                continue;
            }
            if ( ( code != Z_OK ) && ( code != Z_BUF_ERROR ) ) {
                throw InvalidGzipStreamError( "inflate failed with code " + std::to_string( code ) );
            }
            if ( ( code == Z_BUF_ERROR ) && ( m_stream.avail_in == 0 ) && m_file->eof() ) {
                throw InvalidGzipStreamError( "Truncated gzip stream" );
            }
        }
        m_position += produced;
        return produced;
    }

    /** Decompress to the end, discarding output. Returns total bytes produced. */
    [[nodiscard]] std::size_t
    decompressAll()
    {
        std::vector<std::uint8_t> sink( 1 * 1024 * 1024 );
        std::size_t total = 0;
        while ( true ) {
            const auto produced = read( sink.data(), sink.size() );
            if ( produced == 0 ) {
                break;
            }
            total += produced;
        }
        return total;
    }

    /** Decompress everything that remains into one buffer. */
    [[nodiscard]] std::vector<std::uint8_t>
    decompressToVector()
    {
        std::vector<std::uint8_t> result;
        std::vector<std::uint8_t> buffer( 1 * 1024 * 1024 );
        while ( true ) {
            const auto produced = read( buffer.data(), buffer.size() );
            if ( produced == 0 ) {
                break;
            }
            result.insert( result.end(), buffer.data(), buffer.data() + produced );
        }
        return result;
    }

    /** Uncompressed bytes produced so far. */
    [[nodiscard]] std::size_t
    tell() const noexcept
    {
        return m_position;
    }

    [[nodiscard]] bool
    eof() const noexcept
    {
        return m_endOfStream;
    }

private:
    std::unique_ptr<FileReader> m_file;
    std::vector<std::uint8_t> m_inputBuffer;
    z_stream m_stream{};
    std::size_t m_position{ 0 };
    bool m_endOfStream{ false };
};

}  // namespace rapidgzip
