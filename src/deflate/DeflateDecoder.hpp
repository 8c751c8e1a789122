#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "../bits/BitReader.hpp"
#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "DecodedData.hpp"
#include "DynamicHeader.hpp"
#include "definitions.hpp"

namespace rapidgzip::deflate {

namespace detail {

/** The fixed (BTYPE 01) codings, built once per process (magic static). */
struct FixedCodings
{
    FixedCodings()
    {
        std::array<std::uint8_t, 288> literalLengths{};
        for ( std::size_t i = 0; i < 144; ++i ) {
            literalLengths[i] = 8;
        }
        for ( std::size_t i = 144; i < 256; ++i ) {
            literalLengths[i] = 9;
        }
        for ( std::size_t i = 256; i < 280; ++i ) {
            literalLengths[i] = 7;
        }
        for ( std::size_t i = 280; i < 288; ++i ) {
            literalLengths[i] = 8;
        }
        std::array<std::uint8_t, 32> distanceLengths{};
        distanceLengths.fill( 5 );
        /* Both are complete by construction; failure is impossible. */
        (void)codings.literal.initializeFromLengths( { literalLengths.data(),
                                                       literalLengths.size() } );
        (void)codings.distance.initializeFromLengths( { distanceLengths.data(),
                                                        distanceLengths.size() } );
        codings.distanceUsable = true;
    }

    DynamicHuffmanCodings codings;
};

[[nodiscard]] inline const DynamicHuffmanCodings&
fixedCodings()
{
    static const FixedCodings instance;
    return instance.codings;
}

}  // namespace detail

/**
 * From-scratch raw-Deflate decoder that can start at ANY bit offset — the
 * first stage of the paper's two-stage scheme (§3.3). Two operating modes:
 *
 *  - window known (setInitialWindow): conventional 8-bit decoding into
 *    DecodedData::plain — used for the first chunk of a stream and for
 *    sequential re-decodes where the window has already been propagated;
 *  - window unknown (default): 16-bit marker decoding into
 *    DecodedData::marked, falling back to conventional decoding once the
 *    trailing WINDOW_SIZE outputs are marker-free (every later
 *    back-reference then provably resolves inside the chunk).
 *
 * decode() consumes whole blocks and stops at a block boundary: before a
 * block whose header would start at or after @p untilBitOffset, after the
 * final block (BFINAL), once @p maxBytes have been produced, or on error.
 * The bit offset of the stopping boundary is reported so chunks can be
 * stitched exactly.
 */
class Decoder
{
public:
    struct Result
    {
        Error error{ Error::NONE };
        bool reachedFinalBlock{ false };
        /** Bit offset of the first unconsumed block boundary: where the next
         * block (or the gzip footer, after BFINAL) begins. On error: the
         * boundary before the failed block. */
        std::size_t endBitOffset{ 0 };
        std::size_t blockCount{ 0 };
    };

    /** Provide the up-to-WINDOW_SIZE bytes preceding the stream position;
     * switches the decoder to conventional 8-bit decoding from the start.
     * An empty view is a valid window (start of a gzip member). */
    void
    setInitialWindow( BufferView window )
    {
        const auto size = std::min( window.size(), WINDOW_SIZE );
        m_windowSize = size;
        for ( std::size_t i = 0; i < size; ++i ) {
            m_window[i] = window[window.size() - size + i];
        }
        m_plainMode = true;
    }

    /** The next input is the LEN/NLEN field of a stored block whose 3
     * header bits lie unreadably before the discovered offset (the
     * NonCompressedBlockFinder reports the byte-aligned LEN position).
     * BFINAL is assumed 0; a wrong assumption surfaces as a decode error in
     * a later block and is handled by the chunk fetcher's re-decode path. */
    void
    setStartAtStoredData( bool startAtStoredData ) noexcept
    {
        m_startAtStoredData = startAtStoredData;
    }

    /** Decode Huffman blocks symbol-by-symbol through the two-level LUT with
     * checked reads, and stored blocks byte by byte — the pre-optimization
     * hot paths, kept as the bit-exact reference for the equivalence tests
     * and the before/after benchmark (bench/components_hotpath.cpp). */
    void
    setReferenceHuffmanDecoding( bool reference ) noexcept
    {
        m_referenceDecoding = reference;
    }

    /** Process-global default adopted by newly constructed Decoders — the
     * benchmark hook for A/B-ing code that builds its Decoders internally
     * (the chunk fetcher pipeline). Not for production use. */
    [[nodiscard]] static std::atomic<bool>&
    globalReferenceHuffmanDecoding() noexcept
    {
        static std::atomic<bool> flag{ false };
        return flag;
    }

    [[nodiscard]] Result
    decode( BitReader& reader,
            DecodedData& data,
            std::size_t untilBitOffset = std::numeric_limits<std::size_t>::max(),
            std::size_t maxBytes = std::numeric_limits<std::size_t>::max() )
    {
        if ( m_plainMode && data.plain.empty() ) {
            data.plain.emplace_back();
        }
        /* Mid-block overrun allowance (saturating): blocks normally end well
         * before this; only a runaway block from a false block-finder
         * positive trips the in-block limit. */
        constexpr auto LIMIT = std::numeric_limits<std::size_t>::max();
        m_hardByteLimit = maxBytes > LIMIT - 2 * MAX_MATCH_LENGTH
                          ? LIMIT
                          : maxBytes + 2 * MAX_MATCH_LENGTH;

        Result result;
        result.endBitOffset = reader.tell();
        bool pendingStoredData = m_startAtStoredData;
        while ( true ) {
            if ( ( reader.tell() >= untilBitOffset ) || ( m_totalDecoded >= maxBytes ) ) {
                break;
            }

            std::uint64_t isFinal = 0;
            std::uint64_t type = BLOCK_TYPE_STORED;
            if ( pendingStoredData ) {
                pendingStoredData = false;
            } else {
                if ( reader.bitsLeft() < 3 ) {
                    result.error = Error::TRUNCATED_STREAM;
                    break;
                }
                isFinal = reader.read( 1 );
                type = reader.read( 2 );
            }

            switch ( type ) {
            case BLOCK_TYPE_STORED:
                result.error = decodeStoredBlock( reader, data );
                break;
            case BLOCK_TYPE_FIXED:
                result.error = decodeHuffmanBlock( reader, data, detail::fixedCodings() );
                break;
            case BLOCK_TYPE_DYNAMIC:
                /* The reference path builds only the two-level tables it
                 * decodes with. */
                result.error = readDynamicCodings( reader, m_codings, !m_referenceDecoding );
                if ( result.error == Error::NONE ) {
                    result.error = decodeHuffmanBlock( reader, data, m_codings );
                }
                break;
            default:
                result.error = Error::INVALID_BLOCK_TYPE;
                break;
            }
            if ( result.error != Error::NONE ) {
                break;
            }

            ++result.blockCount;
            result.endBitOffset = reader.tell();
            maybeFallBackToPlain( data );
            if ( isFinal != 0 ) {
                result.reachedFinalBlock = true;
                break;
            }
        }
        return result;
    }

    [[nodiscard]] std::size_t
    totalDecoded() const noexcept
    {
        return m_totalDecoded;
    }

    /** True once the decoder switched (or started) in conventional 8-bit mode. */
    [[nodiscard]] bool
    inPlainMode() const noexcept
    {
        return m_plainMode;
    }

private:
    static constexpr std::size_t NO_MARKER = std::numeric_limits<std::size_t>::max();

    [[nodiscard]] Error
    decodeStoredBlock( BitReader& reader, DecodedData& data )
    {
        reader.alignToByte();
        if ( reader.bitsLeft() < 32 ) {
            return Error::TRUNCATED_STREAM;
        }
        const auto length = reader.read( 16 );
        const auto complement = reader.read( 16 );
        if ( ( length ^ complement ) != 0xFFFFU ) {
            return Error::INVALID_STORED_LENGTH;
        }
        if ( reader.bitsLeft() < length * 8 ) {
            return Error::TRUNCATED_STREAM;
        }
        if ( m_referenceDecoding ) {
            for ( std::uint64_t i = 0; i < length; ++i ) {
                emitLiteral( data, static_cast<std::uint8_t>( reader.read( 8 ) ) );
                if ( m_totalDecoded >= m_hardByteLimit ) {
                    return Error::EXCEEDED_OUTPUT_LIMIT;
                }
            }
            return Error::NONE;
        }

        /* Bulk copy straight out of the reader's buffer — the payload is
         * byte-aligned and known to be complete. It stops where the byte
         * loop above stops: after the byte that reaches the hard limit (or
         * after one byte when the limit was already reached). */
        if ( length == 0 ) {
            return Error::NONE;
        }
        const auto room = m_hardByteLimit - std::min( m_hardByteLimit, m_totalDecoded );
        const auto count = std::min<std::size_t>( length, std::max<std::size_t>( room, 1 ) );
        const auto byteOffset = reader.tell() / 8U;
        const auto* const source = reader.data() + byteOffset;
        if ( m_plainMode ) {
            auto& out = data.plain.back().data;
            const auto size = out.size();
            out.resize( size + count );
            std::memcpy( out.data() + size, source, count );
        } else {
            auto& out = data.marked;
            const auto size = out.size();
            out.resize( size + count );
            std::copy( source, source + count, out.data() + size );  /* widening */
        }
        m_totalDecoded += count;
        reader.seek( ( byteOffset + count ) * 8U );
        return m_totalDecoded >= m_hardByteLimit ? Error::EXCEEDED_OUTPUT_LIMIT : Error::NONE;
    }

    /**
     * The literal/length + distance symbol loop — where paper Table 2 puts
     * most of the decode time. The fast loop carries the next table entry
     * across each match, refills without a branch while enough input is
     * left, takes up to three literal entries per refill, and emits with
     * unchecked buffer appends. It leaves the last bytes of the input, and
     * the symbols that may reach the output limit, to the checked reference
     * loop, which owns the EOF and limit semantics, so behavior at stream
     * boundaries and at the limit is identical by construction.
     */
    [[nodiscard]] Error
    decodeHuffmanBlock( BitReader& reader,
                        DecodedData& data,
                        const DynamicHuffmanCodings& codings )
    {
        if ( m_referenceDecoding ) {
            return decodeHuffmanBlockReference( reader, data, codings );
        }
        if ( m_plainMode ) {
            return decodeHuffmanBlockFast<PlainFastSink>( reader, data, codings );
        }
        return decodeHuffmanBlockFast<MarkedFastSink>( reader, data, codings );
    }

    [[nodiscard]] Error
    decodeHuffmanBlockReference( BitReader& reader,
                                 DecodedData& data,
                                 const DynamicHuffmanCodings& codings )
    {
        while ( true ) {
            const auto symbol = codings.literal.decode( reader );
            if ( symbol < 0 ) {
                return symbol == HuffmanCodingDoubleLUT::DECODE_EOF ? Error::TRUNCATED_STREAM
                                                                    : Error::INVALID_SYMBOL;
            }
            if ( symbol < static_cast<int>( END_OF_BLOCK ) ) {
                emitLiteral( data, static_cast<std::uint8_t>( symbol ) );
            } else if ( symbol == static_cast<int>( END_OF_BLOCK ) ) {
                return Error::NONE;
            } else {
                if ( symbol > 285 ) {
                    return Error::INVALID_SYMBOL;
                }
                const auto lengthIndex = static_cast<std::size_t>( symbol - 257 );
                const auto lengthExtra = LENGTH_EXTRA_BITS[lengthIndex];
                if ( reader.bitsLeft() < lengthExtra ) {
                    return Error::TRUNCATED_STREAM;
                }
                const std::size_t length = LENGTH_BASE[lengthIndex]
                                           + ( lengthExtra > 0 ? reader.read( lengthExtra ) : 0 );

                if ( !codings.distanceUsable ) {
                    return Error::INVALID_DISTANCE;
                }
                const auto distanceSymbol = codings.distance.decode( reader );
                if ( distanceSymbol < 0 ) {
                    return distanceSymbol == HuffmanCodingDoubleLUT::DECODE_EOF
                           ? Error::TRUNCATED_STREAM
                           : Error::INVALID_DISTANCE;
                }
                if ( distanceSymbol > 29 ) {
                    return Error::INVALID_DISTANCE;
                }
                const auto distanceExtra = DISTANCE_EXTRA_BITS[distanceSymbol];
                if ( reader.bitsLeft() < distanceExtra ) {
                    return Error::TRUNCATED_STREAM;
                }
                const std::size_t distance =
                    DISTANCE_BASE[distanceSymbol]
                    + ( distanceExtra > 0 ? reader.read( distanceExtra ) : 0 );

                const auto error = emitMatch( data, length, distance );
                if ( error != Error::NONE ) {
                    return error;
                }
            }
            if ( m_totalDecoded >= m_hardByteLimit ) {
                return Error::EXCEEDED_OUTPUT_LIMIT;
            }
        }
    }

    /** 8-element blocks for the overlap-safe chunked match copy. */
    static constexpr std::size_t WILDCOPY_CHUNK = 8;

    /**
     * Copy a match of @p length elements from @p distance elements back to
     * @p destination, inside one buffer. For distance >= WILDCOPY_CHUNK the
     * copy goes in 8-element blocks, each reading only elements that earlier
     * blocks finalized, so an overlapping match replicates correctly. The
     * first two blocks are unconditional (matches of at most 16 elements
     * are most matches), so the copy may write up to 2 * WILDCOPY_CHUNK - 1
     * elements past its end; FAST_LOOP_EMIT_SLACK reserves them. Shorter
     * distances replicate element by element.
     */
    template<typename Element>
    static void
    copyWithin( Element* destination, std::size_t length, std::size_t distance ) noexcept
    {
        const auto* const source = destination - distance;
        if ( distance >= WILDCOPY_CHUNK ) {
            std::memcpy( destination, source, WILDCOPY_CHUNK * sizeof( Element ) );
            std::memcpy( destination + WILDCOPY_CHUNK, source + WILDCOPY_CHUNK,
                         WILDCOPY_CHUNK * sizeof( Element ) );
            for ( std::size_t copied = 2 * WILDCOPY_CHUNK; copied < length; copied += WILDCOPY_CHUNK ) {
                std::memcpy( destination + copied, source + copied, WILDCOPY_CHUNK * sizeof( Element ) );
            }
        } else {
            for ( std::size_t i = 0; i < length; ++i ) {
                destination[i] = source[i];
            }
        }
    }

    /**
     * Append sink over a plain (8-bit) segment: the vector is grown in
     * geometric slabs and writes go through a raw cursor — no per-byte
     * size/capacity check — with the logical size restored on every exit
     * path by the destructor. The seeded window's pointer and size are
     * copied in, because byte stores may alias the decoder's members. LZ77
     * copies take the seeded window first, then copyWithin().
     */
    class PlainFastSink
    {
    public:
        PlainFastSink( Decoder& decoder, DecodedData& data ) :
            m_out( data.plain.back().data ),
            m_cursor( m_out.size() ),
            m_window( decoder.m_window.data() ),
            m_windowSize( decoder.m_windowSize )
        {
            /* Jump straight to the existing capacity — pure bookkeeping
             * thanks to FastVector's default-init resize — so ensure()
             * almost never resizes mid-decode; the raw data pointer is
             * cached so emission never re-reads the vector object. */
            if ( m_out.capacity() > m_out.size() ) {
                m_out.resize( m_out.capacity() );
            }
            m_data = m_out.data();
        }

        ~PlainFastSink()
        {
            m_out.resize( m_cursor );
        }

        PlainFastSink( const PlainFastSink& ) = delete;
        PlainFastSink& operator=( const PlainFastSink& ) = delete;

        /** Elements written so far. */
        [[nodiscard]] std::size_t
        size() const noexcept
        {
            return m_cursor;
        }

        /** The largest size at which @p need more elements fit without
         * ensure() growing the buffer. */
        [[nodiscard]] std::size_t
        roomFor( std::size_t need ) const noexcept
        {
            return m_out.size() - std::min( m_out.size(), need );
        }

        void
        ensure( std::size_t need )
        {
            if ( m_cursor + need > m_out.size() ) {
                m_out.resize( std::max( m_out.size() + m_out.size() / 2,
                                        m_cursor + need + GROWTH_SLACK ) );
                m_data = m_out.data();
            }
        }

        /** Branchless 1-or-2-literal emit: both payload bytes are written
         * unconditionally (space is ensured), the cursor advances by
         * @p count — no single-vs-double branch on the hottest path. */
        void
        pushPair( std::uint16_t payload, unsigned count ) noexcept
        {
    #if defined( __BYTE_ORDER__ ) && ( __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__ )
            /* One 2-byte store covers both literals; cursor advances by the
             * real count (the second byte is garbage for count 1 and gets
             * overwritten). */
            std::memcpy( m_data + m_cursor, &payload, sizeof( payload ) );
    #else
            m_data[m_cursor] = static_cast<std::uint8_t>( payload );
            m_data[m_cursor + 1] = static_cast<std::uint8_t>( payload >> 8U );
    #endif
            m_cursor += count;
        }

        [[nodiscard]] Error
        copyMatch( std::size_t length, std::size_t distance ) noexcept
        {
            if ( distance > m_cursor ) {
                if ( distance > m_cursor + m_windowSize ) {
                    return Error::EXCEEDED_WINDOW;
                }
                /* The match starts in the seeded window; once the copy
                 * reaches the output it stays there. */
                const auto fromWindow = std::min( length, distance - m_cursor );
                std::memcpy( m_data + m_cursor, m_window + m_windowSize - ( distance - m_cursor ), fromWindow );
                m_cursor += fromWindow;
                length -= fromWindow;
                if ( length == 0 ) {
                    return Error::NONE;  /* copyWithin() would read before the output */
                }
            }
            copyWithin( m_data + m_cursor, length, distance );
            m_cursor += length;
            return Error::NONE;
        }

    private:
        FastVector<std::uint8_t>& m_out;
        std::uint8_t* m_data{ nullptr };
        std::size_t m_cursor;
        const std::uint8_t* const m_window;
        const std::size_t m_windowSize;
    };

    /**
     * Append sink over the 16-bit marker buffer. The bulk fast path applies
     * when the copy source provably contains no marker (the last marker lies
     * before the source range): the copied symbols are then plain bytes, the
     * marker clock needs no update, and copyWithin() replicates them.
     * Matches that reach into the unknown window or over markers keep the
     * exact per-symbol semantics of the reference path.
     */
    class MarkedFastSink
    {
    public:
        MarkedFastSink( Decoder& decoder, DecodedData& data ) :
            m_decoder( decoder ),
            m_out( data.marked ),
            m_cursor( m_out.size() ),
            /* Mirrored locally for the same aliasing reason as the cursor:
             * copyMatch consults it per match and byte stores would force a
             * reload through the decoder reference every time. */
            m_lastMarker( decoder.m_lastMarkerPosition )
        {
            if ( m_out.capacity() > m_out.size() ) {
                m_out.resize( m_out.capacity() );
            }
            m_data = m_out.data();
        }

        ~MarkedFastSink()
        {
            m_out.resize( m_cursor );
            m_decoder.m_lastMarkerPosition = m_lastMarker;
        }

        MarkedFastSink( const MarkedFastSink& ) = delete;
        MarkedFastSink& operator=( const MarkedFastSink& ) = delete;

        /** Elements written so far. */
        [[nodiscard]] std::size_t
        size() const noexcept
        {
            return m_cursor;
        }

        /** The largest size at which @p need more elements fit without
         * ensure() growing the buffer. */
        [[nodiscard]] std::size_t
        roomFor( std::size_t need ) const noexcept
        {
            return m_out.size() - std::min( m_out.size(), need );
        }

        void
        ensure( std::size_t need )
        {
            if ( m_cursor + need > m_out.size() ) {
                m_out.resize( std::max( m_out.size() + m_out.size() / 2,
                                        m_cursor + need + GROWTH_SLACK ) );
                m_data = m_out.data();
            }
        }

        void
        pushPair( std::uint16_t payload, unsigned count ) noexcept
        {
            auto* const out = m_data + m_cursor;
            out[0] = static_cast<std::uint16_t>( payload & 0xFFU );
            out[1] = static_cast<std::uint16_t>( payload >> 8U );
            m_cursor += count;
        }

        [[nodiscard]] Error
        copyMatch( std::size_t length, std::size_t distance ) noexcept
        {
            auto* const out = m_data;
            if ( ( distance <= m_cursor )
                 && ( ( m_lastMarker == NO_MARKER ) || ( m_lastMarker < m_cursor - distance ) ) ) {
                copyWithin( out + m_cursor, length, distance );
                m_cursor += length;
                return Error::NONE;
            }
            /* distance <= 32768 and position >= 0 bound the marker offset. */
            for ( std::size_t i = 0; i < length; ++i ) {
                const auto position = m_cursor;
                std::uint16_t symbol;
                if ( distance <= position ) {
                    symbol = out[position - distance];
                } else {
                    symbol = static_cast<std::uint16_t>(
                        MARKER_BASE + ( WINDOW_SIZE - ( distance - position ) ) );
                }
                if ( symbol >= MARKER_BASE ) {
                    m_lastMarker = position;
                }
                out[m_cursor++] = symbol;
            }
            return Error::NONE;
        }

    private:
        Decoder& m_decoder;
        FastVector<std::uint16_t>& m_out;
        std::uint16_t* m_data{ nullptr };
        std::size_t m_cursor;
        std::size_t m_lastMarker;
    };

    /** Slab growth floor for the fast sinks; pooled buffers reach their
     * steady-state capacity after the first chunk, making this moot. */
    static constexpr std::size_t GROWTH_SLACK = 64 * 1024;

    /** Literal entries the fast loop takes per refill, with no bit-count
     * check between them. */
    static constexpr unsigned FAST_LOOP_LITERAL_ENTRIES = 3;

    /** Worst-case stream bits of one length and distance: a 15-bit
     * literal/length code + 5 extra bits + a 15-bit distance code + 13
     * extra bits. */
    static constexpr unsigned MAX_MATCH_BITS = 48;

    /** Unread input bytes the fast loop needs at the top of an iteration,
     * which refills at most twice: 7k + 1 bytes allow k refills, and 24
     * allow three. The reference loop decodes the tail. */
    static constexpr std::size_t FAST_LOOP_INPUT_HEADROOM = 24;

    /** Worst-case elements one fast-loop iteration writes past its start,
     * overshoot included: three literal entries of two elements, then one
     * maximum-length match with copyWithin()'s overshoot. It is also more
     * than one iteration emits, so the loop stops this far before the
     * output limit. */
    static constexpr std::size_t FAST_LOOP_EMIT_SLACK =
        2 * FAST_LOOP_LITERAL_ENTRIES + MAX_MATCH_LENGTH + 2 * WILDCOPY_CHUNK;

    template<typename Sink>
    [[nodiscard]] Error
    decodeHuffmanBlockFast( BitReader& reader,
                            DecodedData& data,
                            const DynamicHuffmanCodings& codings )
    {
        using Literal = HuffmanCodingMultiCached;
        constexpr auto literalMask = ( std::uint64_t( 1 ) << Literal::CACHE_BITS ) - 1U;
        constexpr auto distanceMask =
            ( std::uint64_t( 1 ) << HuffmanCodingDistanceCached::CACHE_BITS ) - 1U;
        /* A refill leaves 56 bits for three literal entries, or for one
         * length and distance; the next entry's lookup reads the 64 stream
         * bits the refill left in the buffer (see refillUnchecked()). */
        static_assert( FAST_LOOP_LITERAL_ENTRIES * Literal::CACHE_BITS
                       <= BitReader::RegisterCursor::UNCHECKED_REFILL_BITS );
        static_assert( MAX_MATCH_BITS <= BitReader::RegisterCursor::UNCHECKED_REFILL_BITS );
        static_assert( ( FAST_LOOP_LITERAL_ENTRIES + 1 ) * Literal::CACHE_BITS <= 64 );
        static_assert( MAX_MATCH_BITS + 15 <= 64 );  /* then a fallback literal, then a lookup */

        /* Hoist every loop invariant into locals: output stores are byte
         * stores that alias all class members, so anything not local would
         * be reloaded from memory on every iteration. The RegisterCursor
         * does the same for the BitReader's state and syncs back on scope
         * exit; m_totalDecoded follows the sink's size. Table entries are
         * carried packed, in one register each. The tables are arrays in
         * @p codings, so their addresses need no register of their own. */
        const auto& literalFallback = codings.literal.fallback();
        const auto& distanceFallback = codings.distance.fallback();
        const bool distanceUsable = codings.distanceUsable;
        const auto lookUp = [&codings] ( std::uint64_t bits ) {
            return PackedEntry::load( codings.literal.tableData()[bits & literalMask] );
        };
        const auto isLiterals = [] ( PackedEntry entry ) {
            return ( entry.kind() & Literal::LITERALS ) != 0;
        };
        auto result = Error::NONE;
        bool blockDone = false;
        {
            Sink sink( *this, data );
            const auto sizeBefore = sink.size();
            /* The reference loop checks the limit after every symbol, so it
             * decodes every symbol that may reach the limit. */
            const auto room = m_hardByteLimit - std::min( m_hardByteLimit, m_totalDecoded );
            const auto stopSize = sizeBefore + std::min( room - std::min( room, FAST_LOOP_EMIT_SLACK ),
                                                         std::numeric_limits<std::size_t>::max()
                                                         - sizeBefore );
            /* Below this size the sink has room for an iteration, and the
             * limit is not near. */
            auto freeSize = std::min( stopSize, sink.roomFor( FAST_LOOP_EMIT_SLACK ) );
            BitReader::RegisterCursor cursor( reader );
            if ( cursor.hasInput( FAST_LOOP_INPUT_HEADROOM ) ) {
                cursor.refillUnchecked();
            }
            /* The carried entry: looked up before the refill that precedes
             * its use, which does not change it. */
            auto entry = lookUp( cursor.peekBufferUnsafe() );
            while ( cursor.hasInput( FAST_LOOP_INPUT_HEADROOM ) ) {
                if ( sink.size() >= freeSize ) {
                    if ( sink.size() >= stopSize ) {
                        break;
                    }
                    sink.ensure( FAST_LOOP_EMIT_SLACK );
                    freeSize = std::min( stopSize, sink.roomFor( FAST_LOOP_EMIT_SLACK ) );
                }
                cursor.refillUnchecked();

                /* FAST_LOOP_LITERAL_ENTRIES literal entries, unrolled. */
                if ( isLiterals( entry ) ) {
                    cursor.consumeUnsafe( entry.bitsConsumed() );
                    sink.pushPair( entry.payload(), entry.aux() );
                    entry = lookUp( cursor.peekBufferUnsafe() );
                    if ( isLiterals( entry ) ) {
                        cursor.consumeUnsafe( entry.bitsConsumed() );
                        sink.pushPair( entry.payload(), entry.aux() );
                        entry = lookUp( cursor.peekBufferUnsafe() );
                        if ( isLiterals( entry ) ) {
                            cursor.consumeUnsafe( entry.bitsConsumed() );
                            sink.pushPair( entry.payload(), entry.aux() );
                            entry = lookUp( cursor.peekBufferUnsafe() );
                        }
                    }
                    if ( isLiterals( entry ) ) {
                        continue;
                    }
                    cursor.refillUnchecked();  /* a length and distance take up to 48 bits */
                }

                cursor.consumeUnsafe( entry.bitsConsumed() );  /* 0 for FALLBACK */
                std::size_t length = 0;
                if ( entry.kind() == Literal::LENGTH ) {
                    length = entry.payload() + cursor.readUnsafe( entry.aux() );
                } else if ( entry.kind() == Literal::END_OF_BLOCK ) {
                    blockDone = true;
                    break;
                } else {
                    /* FALLBACK: code longer than the cache window (or the
                     * invalid symbols 286/287) — the two-level LUT resolves
                     * it within the refill's 56 bits. */
                    const auto symbol = literalFallback.decodeUnsafe( cursor );
                    if ( symbol < 0 ) {
                        result = Error::INVALID_SYMBOL;
                        blockDone = true;
                        break;
                    }
                    if ( symbol < static_cast<int>( END_OF_BLOCK ) ) {
                        sink.pushPair( static_cast<std::uint16_t>( symbol ), 1 );
                        entry = lookUp( cursor.peekBufferUnsafe() );
                        continue;
                    }
                    if ( symbol == static_cast<int>( END_OF_BLOCK ) ) {
                        blockDone = true;
                        break;
                    }
                    if ( symbol > 285 ) {
                        result = Error::INVALID_SYMBOL;
                        blockDone = true;
                        break;
                    }
                    const auto lengthIndex = static_cast<std::size_t>( symbol - 257 );
                    length = LENGTH_BASE[lengthIndex]
                             + cursor.readUnsafe( LENGTH_EXTRA_BITS[lengthIndex] );
                }

                if ( !distanceUsable ) {
                    result = Error::INVALID_DISTANCE;
                    blockDone = true;
                    break;
                }
                /* One table hit resolves code AND (usually) the extra bits;
                 * the extra-bit count is 0 when folded, so the hot path is
                 * branch-free between the folded and unfolded cases. */
                std::size_t distance = 0;
                const auto distanceEntry = PackedEntry::load(
                    codings.distance.tableData()[cursor.peekBufferUnsafe() & distanceMask] );
                if ( distanceEntry.bitsConsumed() != 0 ) {
                    cursor.consumeUnsafe( distanceEntry.bitsConsumed() );
                    distance = distanceEntry.payload() + cursor.readUnsafe( distanceEntry.aux() );
                } else {
                    const auto distanceSymbol = distanceFallback.decodeUnsafe( cursor );
                    if ( ( distanceSymbol < 0 ) || ( distanceSymbol > 29 ) ) {
                        result = Error::INVALID_DISTANCE;
                        blockDone = true;
                        break;
                    }
                    distance = DISTANCE_BASE[distanceSymbol]
                               + cursor.readUnsafe( DISTANCE_EXTRA_BITS[distanceSymbol] );
                }

                /* Look the next entry up before the copy, so that the load
                 * overlaps it. */
                entry = lookUp( cursor.peekBufferUnsafe() );
                const auto error = sink.copyMatch( length, distance );
                if ( error != Error::NONE ) {
                    result = error;
                    blockDone = true;
                    break;
                }
            }
            m_totalDecoded += sink.size() - sizeBefore;
        }
        if ( blockDone ) {
            return result;
        }
        return decodeHuffmanBlockReference( reader, data, codings );
    }

    void
    emitLiteral( DecodedData& data, std::uint8_t byte )
    {
        if ( m_plainMode ) {
            data.plain.back().data.push_back( byte );
        } else {
            data.marked.push_back( byte );
        }
        ++m_totalDecoded;
    }

    /**
     * LZ77 copy. Byte-wise on purpose: overlapping copies (distance <
     * length) replicate, and in 16-bit mode copied symbols may themselves be
     * markers, which must propagate verbatim and keep the marker clock
     * (m_lastMarkerPosition) honest.
     */
    [[nodiscard]] Error
    emitMatch( DecodedData& data, std::size_t length, std::size_t distance )
    {
        if ( m_plainMode ) {
            auto& out = data.plain.back().data;
            const auto start = out.size();
            if ( distance > start + m_windowSize ) {
                return Error::EXCEEDED_WINDOW;
            }
            /* Seeded-window fast path: a back-reference reaching behind the
             * chunk start takes a contiguous run from the seeded window (the
             * window and the output never interleave within one match — once
             * the copy position enters the output it stays there), then the
             * remainder replicates byte-wise in-buffer, which handles the
             * overlapping (distance < length) case. */
            std::size_t copied = 0;
            if ( distance > start ) {
                const auto fromWindow = std::min( length, distance - start );
                const auto* const source = m_window.data() + m_windowSize - ( distance - start );
                out.insert( out.end(), source, source + fromWindow );
                copied = fromWindow;
            }
            for ( ; copied < length; ++copied ) {
                out.push_back( out[out.size() - distance] );
            }
        } else {
            auto& out = data.marked;
            /* distance <= 32768 and position >= 0 bound the marker offset. */
            for ( std::size_t i = 0; i < length; ++i ) {
                const auto position = out.size();
                std::uint16_t symbol;
                if ( distance <= position ) {
                    symbol = out[position - distance];
                } else {
                    symbol = static_cast<std::uint16_t>(
                        MARKER_BASE + ( WINDOW_SIZE - ( distance - position ) ) );
                }
                if ( symbol >= MARKER_BASE ) {
                    m_lastMarkerPosition = position;
                }
                out.push_back( symbol );
            }
        }
        m_totalDecoded += length;
        return Error::NONE;
    }

    /**
     * The paper's §3.3 fallback, checked at block granularity: once the
     * trailing WINDOW_SIZE outputs contain no marker, materialize them as a
     * real window and continue with plain 8-bit decoding — halving memory
     * traffic and skipping stage two for the rest of the chunk.
     */
    void
    maybeFallBackToPlain( DecodedData& data )
    {
        if ( m_plainMode ) {
            return;
        }
        const auto size = data.marked.size();
        if ( size < WINDOW_SIZE ) {
            return;
        }
        if ( ( m_lastMarkerPosition != NO_MARKER )
             && ( m_lastMarkerPosition + WINDOW_SIZE >= size ) ) {
            return;  /* a marker is still inside the trailing window */
        }
        m_windowSize = WINDOW_SIZE;
        for ( std::size_t i = 0; i < WINDOW_SIZE; ++i ) {
            m_window[i] = static_cast<std::uint8_t>( data.marked[size - WINDOW_SIZE + i] );
        }
        data.plain.emplace_back();
        m_plainMode = true;
    }

    DynamicHuffmanCodings m_codings;  /* reused across Dynamic blocks */

    std::array<std::uint8_t, WINDOW_SIZE> m_window{};
    std::size_t m_windowSize{ 0 };
    bool m_plainMode{ false };
    bool m_startAtStoredData{ false };
    bool m_referenceDecoding{ globalReferenceHuffmanDecoding().load( std::memory_order_relaxed ) };
    std::size_t m_lastMarkerPosition{ NO_MARKER };
    std::size_t m_totalDecoded{ 0 };
    std::size_t m_hardByteLimit{ std::numeric_limits<std::size_t>::max() };
};

}  // namespace rapidgzip::deflate
