#pragma once

#include <zlib.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace rapidgzip::detail {

/**
 * Feeds a large input buffer to a z_stream in bounded slices — zlib's
 * avail_in is 32-bit, so inputs of 4 GiB and beyond must be handed over
 * piecewise. Tracks how much of the buffer zlib has consumed so decoders
 * can do absolute-offset bookkeeping (member boundaries, footers).
 */
class ZlibInputFeeder
{
public:
    static constexpr std::size_t MAX_SLICE = std::size_t( 1 ) << 30U;

    ZlibInputFeeder( const std::uint8_t* data, std::size_t size ) noexcept :
        m_data( data ),
        m_size( size )
    {}

    /** Hand zlib the next slice if it has exhausted the previous one. */
    void
    feed( z_stream& stream ) noexcept
    {
        if ( ( stream.avail_in == 0 ) && ( m_nextInput < m_size ) ) {
            const auto slice = std::min( MAX_SLICE, m_size - m_nextInput );
            stream.next_in = const_cast<Bytef*>( m_data + m_nextInput );
            stream.avail_in = static_cast<uInt>( slice );
            m_nextInput += slice;
        }
    }

    /** Bytes of the buffer zlib has fully consumed. */
    [[nodiscard]] std::size_t
    consumed( const z_stream& stream ) const noexcept
    {
        return m_nextInput - stream.avail_in;
    }

    /** True once every byte has been handed over AND consumed. */
    [[nodiscard]] bool
    exhausted( const z_stream& stream ) const noexcept
    {
        return ( stream.avail_in == 0 ) && ( m_nextInput >= m_size );
    }

private:
    const std::uint8_t* m_data;
    std::size_t m_size;
    std::size_t m_nextInput{ 0 };
};

}  // namespace rapidgzip::detail
