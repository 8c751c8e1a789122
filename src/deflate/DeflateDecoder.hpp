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
     * most of the decode time. The fast path amortizes BitReader refills
     * (one ensureBits() per iteration covers a worst-case 48-bit
     * literal/length + distance group) and emits through the multi-symbol
     * cached LUT with unchecked buffer appends; near the end of input it
     * hands off to the checked reference loop, which owns the EOF
     * semantics, so behavior at stream boundaries is identical by
     * construction.
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

    /**
     * Append sink over a plain (8-bit) segment: the vector is grown in
     * geometric slabs and writes go through a raw cursor — no per-byte
     * size/capacity check — with the logical size restored on every exit
     * path by the destructor. LZ77 copies take the seeded window first,
     * then a contiguous memcpy when source and destination cannot overlap
     * (distance >= remaining length), else byte-wise replication.
     */
    class PlainFastSink
    {
    public:
        PlainFastSink( Decoder& decoder, DecodedData& data ) :
            m_decoder( decoder ),
            m_out( data.plain.back().data ),
            m_cursor( m_out.size() )
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
            const auto start = m_cursor;
            if ( distance > start + m_decoder.m_windowSize ) {
                return Error::EXCEEDED_WINDOW;
            }
            auto* const out = m_data;
            std::size_t remaining = length;
            if ( distance > start ) {
                const auto fromWindow = std::min( length, distance - start );
                const auto* const source = m_decoder.m_window.data()
                                           + m_decoder.m_windowSize - ( distance - start );
                std::memcpy( out + m_cursor, source, fromWindow );
                m_cursor += fromWindow;
                remaining -= fromWindow;
            }
            if ( remaining > 0 ) {
                auto* const destination = out + m_cursor;
                const auto* const source = destination - distance;
                if ( distance >= WILDCOPY_CHUNK ) {
                    /* Chunked wildcopy: each 8-byte block reads bytes
                     * finalized by earlier blocks (distance >= chunk), so
                     * any overlap replicates correctly; it may write up to
                     * 7 bytes past the match end, headroom that
                     * FAST_LOOP_EMIT_SLACK reserves. Turns the dominant
                     * short-match copy into 1-2 load/store pairs instead of
                     * a variable-length memcpy call. */
                    std::size_t copied = 0;
                    do {
                        std::memcpy( destination + copied, source + copied, WILDCOPY_CHUNK );
                        copied += WILDCOPY_CHUNK;
                    } while ( copied < remaining );
                    m_cursor += remaining;
                } else {
                    for ( ; remaining > 0; --remaining, ++m_cursor ) {
                        out[m_cursor] = out[m_cursor - distance];
                    }
                }
            }
            return Error::NONE;
        }

    private:
        Decoder& m_decoder;
        FastVector<std::uint8_t>& m_out;
        std::uint8_t* m_data{ nullptr };
        std::size_t m_cursor;
    };

    /**
     * Append sink over the 16-bit marker buffer. The bulk fast path applies
     * when the copy source provably contains no marker (the last marker lies
     * before the source range): the copied symbols are then plain bytes, the
     * marker clock needs no update, and non-overlapping runs become one
     * memcpy. Matches that reach into the unknown window or over markers
     * keep the exact per-symbol semantics of the reference path.
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
            const auto start = m_cursor;
            if ( distance <= start ) {
                const auto sourceBegin = start - distance;
                if ( ( m_lastMarker == NO_MARKER ) || ( m_lastMarker < sourceBegin ) ) {
                    if ( distance >= WILDCOPY_CHUNK ) {
                        /* Same chunked wildcopy as the plain sink, in
                         * 8-symbol blocks; overlap-safe for distance >=
                         * chunk, overshoot covered by the emit slack. */
                        auto* const destination = out + m_cursor;
                        const auto* const source = out + sourceBegin;
                        std::size_t copied = 0;
                        do {
                            std::memcpy( destination + copied, source + copied,
                                         WILDCOPY_CHUNK * sizeof( std::uint16_t ) );
                            copied += WILDCOPY_CHUNK;
                        } while ( copied < length );
                        m_cursor += length;
                    } else {
                        for ( std::size_t i = 0; i < length; ++i, ++m_cursor ) {
                            out[m_cursor] = out[m_cursor - distance];
                        }
                    }
                    return Error::NONE;
                }
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

    /** Worst-case stream bits one fast-loop iteration may consume: a 15-bit
     * literal/length code + 5 extra bits + a 15-bit distance code + 13
     * extra bits. One ensureBits() per iteration covers the whole group. */
    static constexpr unsigned FAST_LOOP_GUARANTEED_BITS = 48;

    /** 8-element blocks for the overlap-safe chunked match copy. */
    static constexpr std::size_t WILDCOPY_CHUNK = 8;

    /** Worst-case elements emitted between two sink.ensure() calls: the
     * inner literal chew emits at most 2 bytes per >= 1 consumed bit of the
     * 48-bit guarantee, plus one maximum-length match including the
     * wildcopy overshoot. */
    static constexpr std::size_t FAST_LOOP_EMIT_SLACK =
        MAX_MATCH_LENGTH + WILDCOPY_CHUNK + 2 * FAST_LOOP_GUARANTEED_BITS;

    template<typename Sink>
    [[nodiscard]] Error
    decodeHuffmanBlockFast( BitReader& reader,
                            DecodedData& data,
                            const DynamicHuffmanCodings& codings )
    {
        static_assert( FAST_LOOP_GUARANTEED_BITS <= BitReader::MAX_ENSURE_BITS );
        const auto& literal = codings.literal;
        /* Hoist every loop invariant into locals: output stores are byte
         * stores that alias all class members, so anything not local would
         * be reloaded from memory on every iteration. The RegisterCursor
         * does the same for the BitReader's state and syncs back on scope
         * exit; m_totalDecoded is mirrored in `produced`. */
        constexpr auto cacheBits = HuffmanCodingMultiCached::CACHE_BITS;
        constexpr auto cacheMask = ( std::uint64_t( 1 ) << cacheBits ) - 1U;
        const auto* const multiTable = literal.tableData();
        constexpr auto distanceMask =
            ( std::uint64_t( 1 ) << HuffmanCodingDistanceCached::CACHE_BITS ) - 1U;
        const auto* const distanceTable = codings.distance.tableData();
        const auto hardByteLimit = m_hardByteLimit;
        auto produced = m_totalDecoded;
        auto result = Error::NONE;
        bool blockDone = false;
        {
            Sink sink( *this, data );
            BitReader::RegisterCursor cursor( reader );
            while ( true ) {
                if ( !cursor.ensureBits( FAST_LOOP_GUARANTEED_BITS ) ) {
                    break;  /* near EOF: the checked reference loop finishes the block */
                }
                if ( produced >= hardByteLimit ) {
                    result = Error::EXCEEDED_OUTPUT_LIMIT;
                    blockDone = true;
                    break;
                }
                sink.ensure( FAST_LOOP_EMIT_SLACK );

                /* Chew literal entries straight from the refill buffer: each
                 * costs one peek + one table hit + two stores, deferring the
                 * refill until the buffered bits run short of one more
                 * lookup. A non-literal entry is handled below under the
                 * full 48-bit guarantee — when the buffer no longer
                 * guarantees that, fall back to the outer loop WITHOUT
                 * consuming; the same entry is re-peeked after the refill. */
                const HuffmanCodingMultiCached::Entry* entry = nullptr;
                while ( true ) {
                    const auto& candidate = multiTable[cursor.peekBufferUnsafe() & cacheMask];
                    if ( candidate.kind() == HuffmanCodingMultiCached::LITERALS ) {
                        cursor.consumeUnsafe( candidate.bitsConsumed );
                        const auto count = candidate.count();
                        sink.pushPair( candidate.payload, count );
                        produced += count;
                        if ( cursor.bufferedBits() >= cacheBits ) {
                            continue;
                        }
                        break;  /* refill, limit-check, and come back */
                    }
                    if ( cursor.bufferedBits() >= FAST_LOOP_GUARANTEED_BITS ) {
                        entry = &candidate;
                    }
                    break;
                }
                if ( entry == nullptr ) {
                    continue;
                }

                cursor.consumeUnsafe( entry->bitsConsumed );  /* 0 for FALLBACK */
                std::size_t length = 0;
                const auto kind = entry->kind();
                if ( kind == HuffmanCodingMultiCached::LENGTH ) {
                    length = entry->payload + cursor.readUnsafe( entry->extraBits() );
                } else if ( kind == HuffmanCodingMultiCached::END_OF_BLOCK ) {
                    blockDone = true;
                    break;
                } else {
                    /* FALLBACK: code longer than the cache window (or the
                     * invalid symbols 286/287) — the two-level LUT resolves
                     * it under the >= 48-bit guarantee. */
                    const auto symbol = literal.fallback().decodeUnsafe( cursor );
                    if ( symbol < 0 ) {
                        result = Error::INVALID_SYMBOL;
                        blockDone = true;
                        break;
                    }
                    if ( symbol < static_cast<int>( END_OF_BLOCK ) ) {
                        sink.pushPair( static_cast<std::uint16_t>( symbol ), 1 );
                        ++produced;
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

                if ( !codings.distanceUsable ) {
                    result = Error::INVALID_DISTANCE;
                    blockDone = true;
                    break;
                }
                /* One table hit resolves code AND (usually) the extra bits;
                 * extraBits() is 0 when folded, so the hot path is
                 * branch-free between the folded and unfolded cases. */
                std::size_t distance = 0;
                const auto& distanceEntry =
                    distanceTable[cursor.peekBufferUnsafe() & distanceMask];
                if ( distanceEntry.bitsConsumed != 0 ) {
                    cursor.consumeUnsafe( distanceEntry.bitsConsumed );
                    distance = distanceEntry.payload
                               + cursor.readUnsafe( distanceEntry.extraBits() );
                } else {
                    const auto distanceSymbol = codings.distance.fallback().decodeUnsafe( cursor );
                    if ( ( distanceSymbol < 0 ) || ( distanceSymbol > 29 ) ) {
                        result = Error::INVALID_DISTANCE;
                        blockDone = true;
                        break;
                    }
                    distance = DISTANCE_BASE[distanceSymbol]
                               + cursor.readUnsafe( DISTANCE_EXTRA_BITS[distanceSymbol] );
                }

                const auto error = sink.copyMatch( length, distance );
                if ( error != Error::NONE ) {
                    result = error;
                    blockDone = true;
                    break;
                }
                produced += length;
            }
        }
        m_totalDecoded = produced;
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
