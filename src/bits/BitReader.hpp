#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "../common/Error.hpp"

/**
 * Checked invariant in debug builds, optimizer ASSUMPTION in release
 * builds: benchmarking showed the unsafe-path value-range invariants
 * (bitCount <= bufferedBits) are worth tens of percent when the optimizer
 * can rely on them — with plain assert() they vanish under NDEBUG and the
 * codegen regresses.
 */
#if defined( NDEBUG ) && ( defined( __GNUC__ ) || defined( __clang__ ) )
    #define RAPIDGZIP_ASSUME( cond ) do { if ( !( cond ) ) { __builtin_unreachable(); } } while ( 0 )
#else
    #define RAPIDGZIP_ASSUME( cond ) assert( cond )
#endif

namespace rapidgzip {

/**
 * LSB-first (Deflate bit order) bit reader over an in-memory buffer with a
 * 64-bit refill buffer — the design measured in paper Fig. 7: because the
 * refill amortizes over up to 64 buffered bits, the per-call cost is almost
 * independent of the requested bit count, so bandwidth grows nearly linearly
 * with bits per call.
 *
 * Semantics:
 *  - read()/peek() support 1..32 bits per call.
 *  - peek() zero-pads past the end of the data; it never fails.
 *  - read()/skip() past the end consume virtual zero bits; eof() becomes
 *    true once the cursor passed the last real bit. This matches what a
 *    Huffman decoder needs to cleanly detect end-of-input.
 *  - seek()/tell() address absolute BIT offsets.
 *
 * Guaranteed-bits contract (the hot-loop interface): ensureBits( n ) refills
 * at most once and returns true iff at least n bits (n <= MAX_ENSURE_BITS)
 * are now buffered. While that guarantee holds, peekUnsafe()/consumeUnsafe()
 * touch ONLY the refill buffer — no bounds check, no refill, no memory
 * access. The Deflate decoder's symbol loop goes one step further through a
 * RegisterCursor: it refills without a branch (refillUnchecked(), 56–63
 * bits) while enough input is left for the refills of one iteration, and
 * leaves the last bytes of the input to the checked read()/peek() path.
 * Consuming more bits than guaranteed is undefined behavior.
 */
class BitReader
{
public:
    static constexpr unsigned MAX_BIT_COUNT = 32;
    /** refill() tops the buffer up to >= 57 bits whenever input remains, so
     * this is the largest guarantee ensureBits()/peek64() can promise. */
    static constexpr unsigned MAX_ENSURE_BITS = 57;

    BitReader( const std::uint8_t* data, std::size_t sizeInBytes ) noexcept :
        m_data( data ),
        m_sizeInBytes( sizeInBytes )
    {}

    /** Owning overload, e.g. for reading a whole compressed stream. */
    explicit BitReader( std::vector<std::uint8_t> buffer ) :
        m_ownedBuffer( std::move( buffer ) ),
        m_data( m_ownedBuffer.data() ),
        m_sizeInBytes( m_ownedBuffer.size() )
    {}

    BitReader( const BitReader& other ) :
        m_ownedBuffer( other.m_ownedBuffer ),
        m_data( m_ownedBuffer.empty() ? other.m_data : m_ownedBuffer.data() ),
        m_sizeInBytes( other.m_sizeInBytes )
    {
        seek( other.tell() );
    }

    BitReader& operator=( const BitReader& ) = delete;
    BitReader( BitReader&& ) = default;

    /** Read @p bitCount (1..32) bits; the first bit read is the result's LSB. */
    [[nodiscard]] std::uint64_t
    read( unsigned bitCount )
    {
        assert( ( bitCount >= 1 ) && ( bitCount <= MAX_BIT_COUNT ) );
        if ( m_bufferBits < bitCount ) {
            refill();
            if ( m_bufferBits < bitCount ) {
                return readPastEnd( bitCount );
            }
        }
        const auto result = m_buffer & maskLowBits( bitCount );
        m_buffer >>= bitCount;
        m_bufferBits -= bitCount;
        return result;
    }

    /** Like read() but without consuming; zero-padded past the end. */
    [[nodiscard]] std::uint64_t
    peek( unsigned bitCount )
    {
        assert( ( bitCount >= 1 ) && ( bitCount <= MAX_BIT_COUNT ) );
        if ( m_bufferBits < bitCount ) {
            refill();
        }
        return m_buffer & maskLowBits( bitCount );
    }

    /**
     * Wide peek for bulk filters (up to MAX_ENSURE_BITS = 57 bits): the
     * packed-precode check reads all 19 * 3 = 57 code-length bits in one
     * call. Zero-padded past the end like peek().
     */
    [[nodiscard]] std::uint64_t
    peek64( unsigned bitCount )
    {
        RAPIDGZIP_ASSUME( ( bitCount >= 1 ) && ( bitCount <= MAX_ENSURE_BITS ) );
        if ( m_bufferBits < bitCount ) {
            refill();
        }
        return m_buffer & maskLowBits( bitCount );
    }

    /**
     * Positionless wide peek at an ABSOLUTE bit offset, straight from the
     * underlying memory — no cursor movement, no refill-buffer interaction.
     * For probe cascades that need a few bits beyond what the refill buffer
     * can hold (the precode filter's tail lengths sit up to 74 bits past
     * the candidate position). Zero-padded past the end; @p bitCount <= 56
     * so the sub-byte shift never overflows the 64-bit load.
     */
    [[nodiscard]] std::uint64_t
    peekAt( std::size_t bitOffset, unsigned bitCount ) const noexcept
    {
        return peekAt( m_data, m_sizeInBytes, bitOffset, bitCount );
    }

    /** Static form of peekAt() for positionless probe cascades that hold
     * only a raw (data, size) span — one shared implementation of the
     * endian-aware zero-padded direct load. */
    [[nodiscard]] static std::uint64_t
    peekAt( const std::uint8_t* data, std::size_t sizeInBytes,
            std::size_t bitOffset, unsigned bitCount ) noexcept
    {
        assert( ( bitCount >= 1 ) && ( bitCount <= 56 ) );
        const auto byteOffset = bitOffset / 8U;
        const auto subBit = static_cast<unsigned>( bitOffset % 8U );
        std::uint64_t word = 0;
        if ( byteOffset + sizeof( std::uint64_t ) <= sizeInBytes ) {
            word = loadLittleEndian( data + byteOffset );
        } else {
            for ( std::size_t i = 0; byteOffset + i < sizeInBytes; ++i ) {
                word |= std::uint64_t( data[byteOffset + i] ) << ( 8U * i );
            }
        }
        return ( word >> subBit ) & maskLowBits( bitCount );
    }

    /**
     * Guaranteed-bits contract: refill at most once; afterwards
     * peekUnsafe()/consumeUnsafe() may take up to @p bitCount bits without
     * further checks. Returns false near the end of input when the guarantee
     * cannot be met — the caller then falls back to the checked read()/peek()
     * path, which handles EOF zero-padding.
     */
    [[nodiscard]] bool
    ensureBits( unsigned bitCount )
    {
        assert( bitCount <= MAX_ENSURE_BITS );
        if ( m_bufferBits < bitCount ) {
            refill();
        }
        return m_bufferBits >= bitCount;
    }

    /** Bits currently buffered — the amount peekUnsafe()/consumeUnsafe()
     * may legally take. */
    [[nodiscard]] unsigned
    bufferedBits() const noexcept
    {
        return m_bufferBits;
    }

    /** peek() without the refill check. Caller must hold a guarantee from
     * ensureBits() covering @p bitCount. */
    [[nodiscard]] std::uint64_t
    peekUnsafe( unsigned bitCount ) const noexcept
    {
        RAPIDGZIP_ASSUME( bitCount <= m_bufferBits );
        return m_buffer & maskLowBits( bitCount );
    }

    /** skip() without the refill check. Caller must hold a guarantee from
     * ensureBits() covering @p bitCount. @p bitCount must stay < 64. */
    void
    consumeUnsafe( unsigned bitCount ) noexcept
    {
        RAPIDGZIP_ASSUME( bitCount <= m_bufferBits );
        m_buffer >>= bitCount;
        m_bufferBits -= bitCount;
    }

    /** read() without the refill check. Caller must hold a guarantee from
     * ensureBits() covering @p bitCount. */
    [[nodiscard]] std::uint64_t
    readUnsafe( unsigned bitCount ) noexcept
    {
        const auto result = peekUnsafe( bitCount );
        consumeUnsafe( bitCount );
        return result;
    }

    void
    skip( unsigned bitCount )
    {
        assert( bitCount <= MAX_BIT_COUNT );
        if ( m_bufferBits < bitCount ) {
            refill();
            if ( m_bufferBits < bitCount ) {
                (void)readPastEnd( bitCount );
                return;
            }
        }
        m_buffer >>= bitCount;
        m_bufferBits -= bitCount;
    }

    /** Absolute bit offset of the next bit to be returned. */
    [[nodiscard]] std::size_t
    tell() const noexcept
    {
        return m_byteOffset * 8U - m_bufferBits + m_overrunBits;
    }

    void
    seek( std::size_t bitOffset )
    {
        const auto sizeBits = sizeInBits();
        if ( bitOffset > sizeBits ) {
            bitOffset = sizeBits;
        }
        m_byteOffset = bitOffset / 8U;
        m_buffer = 0;
        m_bufferBits = 0;
        m_overrunBits = 0;
        const auto subBit = static_cast<unsigned>( bitOffset % 8U );
        if ( subBit > 0 ) {
            refill();
            m_buffer >>= subBit;
            m_bufferBits -= subBit;
        }
    }

    /**
     * Cheap re-seek for probe loops (block finders test millions of candidate
     * bit offsets with peek()): when @p bitOffset lies at or ahead of the
     * cursor but still inside the refill buffer, reposition by shifting the
     * buffer instead of reloading from memory — no committed read, no byte
     * refetch. Falls back to a full seek() otherwise, so it is always safe to
     * call with any target offset.
     */
    void
    seekAfterPeek( std::size_t bitOffset )
    {
        const auto current = tell();
        if ( ( bitOffset >= current ) && ( bitOffset - current <= m_bufferBits ) ) {
            const auto delta = static_cast<unsigned>( bitOffset - current );
            if ( delta >= 64U ) {
                /* Shifting a uint64_t by 64 is undefined behavior; a full
                 * 64-bit refill buffer can make delta exactly 64. */
                m_buffer = 0;
                m_bufferBits = 0;
            } else {
                m_buffer >>= delta;
                m_bufferBits -= delta;
            }
            return;
        }
        seek( bitOffset );
    }

    /**
     * Value-semantics mirror of the reader's hot state for inner decode
     * loops. Writes into output buffers are byte stores that legally alias
     * EVERYTHING — including this reader's members — so a loop operating on
     * the BitReader directly reloads buffer/bufferBits/byteOffset from
     * memory around every store. The cursor copies that state into locals
     * whose address never escapes (the compiler keeps them in registers)
     * and syncs back on destruction or sync(). Exactly one cursor may be
     * live per reader, and the reader must not be used directly while one
     * is.
     */
    class RegisterCursor
    {
    public:
        /** Bits buffered after refillUnchecked(): 56–63. */
        static constexpr unsigned UNCHECKED_REFILL_BITS = 56;

        explicit RegisterCursor( BitReader& reader ) noexcept :
            m_reader( reader ),
            m_next( reader.m_data + reader.m_byteOffset ),
            m_end( reader.m_data + reader.m_sizeInBytes ),
            m_buffer( reader.m_buffer ),
            m_bufferBits( reader.m_bufferBits )
        {
            /* refill() can buffer all 64 bits; give the last byte back, so
             * that refillUnchecked() can shift by the count. Its bits stay
             * in the buffer above the count, as real stream bits. */
            if ( m_bufferBits == 64U ) {
                m_bufferBits -= 8U;
                --m_next;
            }
        }

        ~RegisterCursor()
        {
            sync();
        }

        RegisterCursor( const RegisterCursor& ) = delete;
        RegisterCursor& operator=( const RegisterCursor& ) = delete;

        void
        sync() noexcept
        {
            m_reader.m_byteOffset = static_cast<std::size_t>( m_next - m_reader.m_data );
            m_reader.m_buffer = m_buffer;
            m_reader.m_bufferBits = m_bufferBits;
        }

        /** True while at least @p bytes of input lie past the buffered
         * bits. Each refillUnchecked() loads 8 bytes and advances by at most
         * 7, so 7k + 1 bytes allow k of them. */
        [[nodiscard]] bool
        hasInput( std::size_t bytes ) const noexcept
        {
            return static_cast<std::size_t>( m_end - m_next ) >= bytes;
        }

        /**
         * Branch-free refill to 56–63 buffered bits: one 8-byte load ORed
         * in above the buffered bits, and the cursor advances by the whole
         * bytes it absorbed. Requires hasInput( 8 ). Every refill leaves all
         * 64 buffer bits holding the stream's next 64 bits, and the bits
         * above the count stay such real bits until consumed, so ORing the
         * next word over them changes nothing: a table entry looked up from
         * the buffer before a refill is the one looked up after it, and a
         * lookup of up to 64 − consumed bits is valid after consuming past
         * the count.
         */
        void
        refillUnchecked() noexcept
        {
            RAPIDGZIP_ASSUME( m_bufferBits < 64U );
            assert( hasInput( sizeof( std::uint64_t ) ) );
            m_buffer |= loadLittleEndian( m_next ) << m_bufferBits;
            m_next += 7U - m_bufferBits / 8U;
            m_bufferBits |= UNCHECKED_REFILL_BITS;
        }

        [[nodiscard]] unsigned
        bufferedBits() const noexcept
        {
            return m_bufferBits;
        }

        [[nodiscard]] std::uint64_t
        peekUnsafe( unsigned bitCount ) const noexcept
        {
            RAPIDGZIP_ASSUME( bitCount <= m_bufferBits );
            return m_buffer & maskLowBits( bitCount );
        }

        /** The whole refill buffer — for callers that mask with their own
         * precomputed constant instead of paying a runtime mask build. Bits
         * above bufferedBits() may be unaccounted stream bits; mask them. */
        [[nodiscard]] std::uint64_t
        peekBufferUnsafe() const noexcept
        {
            return m_buffer;
        }

        void
        consumeUnsafe( unsigned bitCount ) noexcept
        {
            RAPIDGZIP_ASSUME( bitCount <= m_bufferBits );
            m_buffer >>= bitCount;
            m_bufferBits -= bitCount;
        }

        [[nodiscard]] std::uint64_t
        readUnsafe( unsigned bitCount ) noexcept
        {
            const auto result = peekUnsafe( bitCount );
            consumeUnsafe( bitCount );
            return result;
        }

    private:
        BitReader& m_reader;
        const std::uint8_t* m_next;  /**< next byte to load into the buffer */
        const std::uint8_t* const m_end;
        std::uint64_t m_buffer;
        unsigned m_bufferBits;
    };

    /** Advance to the next byte boundary (gzip stored blocks, headers). */
    void
    alignToByte()
    {
        const auto position = tell();
        const auto remainder = position % 8U;
        if ( remainder != 0 ) {
            seek( position + 8U - remainder );
        }
    }

    [[nodiscard]] bool
    eof() const noexcept
    {
        return tell() >= sizeInBits();
    }

    [[nodiscard]] std::size_t
    sizeInBits() const noexcept
    {
        return m_sizeInBytes * 8U;
    }

    /** The underlying memory — for positionless probing (peekAt-style
     * readers that never move this reader's cursor). */
    [[nodiscard]] const std::uint8_t*
    data() const noexcept
    {
        return m_data;
    }

    [[nodiscard]] std::size_t
    sizeInBytes() const noexcept
    {
        return m_sizeInBytes;
    }

    [[nodiscard]] std::size_t
    bitsLeft() const noexcept
    {
        const auto position = tell();
        const auto sizeBits = sizeInBits();
        return position >= sizeBits ? 0 : sizeBits - position;
    }

private:
    [[nodiscard]] static constexpr std::uint64_t
    maskLowBits( unsigned bitCount ) noexcept
    {
        return ( std::uint64_t( 1 ) << bitCount ) - 1U;
    }

    /** The 8 bytes at @p data as a little-endian word: the first byte is
     * the lowest, which is Deflate's LSB-first bit order. */
    [[nodiscard]] static std::uint64_t
    loadLittleEndian( const std::uint8_t* data ) noexcept
    {
        std::uint64_t word = 0;
    #if defined( __BYTE_ORDER__ ) && ( __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__ )
        std::memcpy( &word, data, sizeof( word ) );
    #else
        for ( unsigned i = 0; i < sizeof( word ); ++i ) {
            word |= std::uint64_t( data[i] ) << ( 8U * i );
        }
    #endif
        return word;
    }

    void
    refill() noexcept
    {
    #if defined( __BYTE_ORDER__ ) && ( __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__ )
        /* Fast path: top up with ONE unaligned 8-byte load regardless of the
         * current fill level — on a little-endian host the in-memory byte
         * order already matches the LSB-first bit order Deflate requires.
         * Only whole absorbed bytes are accounted; the partial byte's bits
         * beyond the accounting are real stream bits at their correct
         * positions, and the next refill ORs the same byte over them with
         * identical values, so they are harmless and readPastEnd()'s
         * zero-above-accounting invariant is restored by the byte-wise tail
         * loop before the end of input can be reached. This word-wise
         * topping is what makes the amortized ensureBits() discipline pay:
         * the Fig. 7 refill cost is one load + shift instead of a
         * byte-at-a-time loop. */
        if ( m_byteOffset + sizeof( std::uint64_t ) <= m_sizeInBytes ) {
            RAPIDGZIP_ASSUME( m_bufferBits < 64U );
            m_buffer |= loadLittleEndian( m_data + m_byteOffset ) << m_bufferBits;
            const auto absorbed = ( 64U - m_bufferBits ) / 8U;
            m_byteOffset += absorbed;
            m_bufferBits += absorbed * 8U;
            return;
        }
    #endif
        while ( ( m_bufferBits <= 56U ) && ( m_byteOffset < m_sizeInBytes ) ) {
            m_buffer |= std::uint64_t( m_data[m_byteOffset++] ) << m_bufferBits;
            m_bufferBits += 8U;
        }
    }

    /** Cold path: consume the remaining real bits plus virtual zero padding. */
    std::uint64_t
    readPastEnd( unsigned bitCount ) noexcept
    {
        /* Mask explicitly: word-wise refills may leave real (correct but
         * unaccounted) bits above m_bufferBits, and the zero-padding
         * contract must not leak them. */
        const auto result = m_bufferBits == 0 ? 0 : m_buffer & maskLowBits( m_bufferBits );
        m_overrunBits += bitCount - m_bufferBits;
        m_buffer = 0;
        m_bufferBits = 0;
        return result;
    }

    std::vector<std::uint8_t> m_ownedBuffer;
    const std::uint8_t* m_data{ nullptr };
    std::size_t m_sizeInBytes{ 0 };

    std::size_t m_byteOffset{ 0 };   /**< next byte to load into the buffer */
    std::uint64_t m_buffer{ 0 };
    unsigned m_bufferBits{ 0 };
    std::size_t m_overrunBits{ 0 };  /**< virtual zero bits consumed past EOF */
};

}  // namespace rapidgzip
