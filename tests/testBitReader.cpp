/**
 * BitReader edge cases demanded by the issue: reads straddling the 64-bit
 * refill boundary, a full 32-bit single read, seek-then-read, and reading
 * past EOF, plus LSB-first bit-order and peek/skip semantics.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bits/BitReader.hpp"
#include "common/Util.hpp"
#include "workloads/DataGenerators.hpp"

#include "TestHelpers.hpp"

using namespace rapidgzip;

int
main()
{
    /* LSB-first semantics: 0xA5 = 0b10100101 yields bits 1,0,1,0,0,1,0,1. */
    {
        const std::uint8_t data[] = { 0xA5 };
        BitReader reader( data, sizeof( data ) );
        REQUIRE( reader.read( 1 ) == 1 );
        REQUIRE( reader.read( 1 ) == 0 );
        REQUIRE( reader.read( 1 ) == 1 );
        REQUIRE( reader.read( 2 ) == 0 );   /* bits 0,0 */
        REQUIRE( reader.read( 3 ) == 0b101 );
        REQUIRE( reader.tell() == 8 );
        REQUIRE( reader.eof() );
    }

    /* Multi-byte values assemble little-endian in bit order. */
    {
        const std::uint8_t data[] = { 0x34, 0x12 };
        BitReader reader( data, sizeof( data ) );
        REQUIRE( reader.read( 16 ) == 0x1234 );
    }

    /* 32-bit single read and reads straddling the 64-bit refill boundary. */
    {
        std::vector<std::uint8_t> data( 32 );
        for ( std::size_t i = 0; i < data.size(); ++i ) {
            data[i] = static_cast<std::uint8_t>( i + 1 );
        }
        BitReader reader( data.data(), data.size() );
        REQUIRE( reader.read( 32 ) == 0x04030201ULL );

        /* Cursor at bit 32 of a 64-bit refill; the next 32-bit read pulls
         * 24 bits from the current refill word and 8 from the next. */
        REQUIRE( reader.read( 32 ) == 0x08070605ULL );

        /* Odd offsets: 7-bit reads never align with the refill boundary. */
        BitReader odd( data.data(), data.size() );
        std::uint64_t expectedBits = 0;
        for ( unsigned i = 0; i < 64 / 8; ++i ) {
            expectedBits |= std::uint64_t( data[i] ) << ( i * 8 );
        }
        std::uint64_t collected = 0;
        for ( unsigned position = 0; position < 63; position += 7 ) {
            collected |= odd.read( 7 ) << position;
        }
        collected |= odd.read( 1 ) << 63U;
        REQUIRE( collected == expectedBits );
    }

    /* seek/tell at bit granularity, including mid-byte. */
    {
        const std::uint8_t data[] = { 0xFF, 0x00, 0xF0, 0x0F };
        BitReader reader( data, sizeof( data ) );
        reader.seek( 12 );
        REQUIRE( reader.tell() == 12 );
        REQUIRE( reader.read( 8 ) == 0x00 );  /* high nibble of 0x00, low nibble of 0xF0 */
        REQUIRE( reader.tell() == 20 );
        reader.seek( 4 );
        REQUIRE( reader.read( 8 ) == 0x0F );  /* high nibble of 0xFF, low nibble of 0x00 */

        reader.seek( 17 );
        reader.alignToByte();
        REQUIRE( reader.tell() == 24 );
        reader.alignToByte();
        REQUIRE( reader.tell() == 24 );
    }

    /* Reads past EOF zero-pad and set eof(); they never throw or loop. */
    {
        const std::uint8_t data[] = { 0xFF };
        BitReader reader( data, sizeof( data ) );
        REQUIRE( reader.read( 6 ) == 0x3F );
        REQUIRE( !reader.eof() );
        REQUIRE( reader.read( 6 ) == 0x03 );  /* 2 real bits + 4 zero-padded */
        REQUIRE( reader.eof() );
        REQUIRE( reader.read( 32 ) == 0 );
        REQUIRE( reader.eof() );
        REQUIRE( reader.bitsLeft() == 0 );
    }

    /* peek() does not consume and zero-pads at EOF. */
    {
        const std::uint8_t data[] = { 0x5A };
        BitReader reader( data, sizeof( data ) );
        REQUIRE( reader.peek( 8 ) == 0x5A );
        REQUIRE( reader.peek( 8 ) == 0x5A );
        REQUIRE( reader.tell() == 0 );
        REQUIRE( reader.peek( 16 ) == 0x5A );  /* zero-padded high bits */
        reader.skip( 4 );
        REQUIRE( reader.peek( 4 ) == 0x5 );
        REQUIRE( reader.tell() == 4 );
    }

    /* Seek to the exact end is valid; further reads return zero. */
    {
        const std::uint8_t data[] = { 0x11, 0x22 };
        BitReader reader( data, sizeof( data ) );
        reader.seek( 16 );
        REQUIRE( reader.eof() );
        REQUIRE( reader.read( 8 ) == 0 );
        reader.seek( 1000 );  /* clamped */
        REQUIRE( reader.tell() == 16 );
    }

    /* seekAfterPeek: the sliding-probe fast path must agree bit-for-bit
     * with a full seek — forward within the buffer (cheap path), backward,
     * and far jumps (both fall back to seek). */
    {
        std::vector<std::uint8_t> data( 64 );
        for ( std::size_t i = 0; i < data.size(); ++i ) {
            data[i] = static_cast<std::uint8_t>( i * 37 + 11 );
        }
        BitReader probing( data.data(), data.size() );
        BitReader seeking( data.data(), data.size() );

        /* The block-finder pattern: peek at pos, advance one bit, repeat. */
        for ( std::size_t position = 0; position + 13 <= data.size() * 8; ++position ) {
            probing.seekAfterPeek( position );
            seeking.seek( position );
            REQUIRE( probing.peek( 13 ) == seeking.peek( 13 ) );
            REQUIRE( probing.tell() == position );
        }

        /* Backward and far-forward targets take the full-seek fallback. */
        probing.seekAfterPeek( 5 );
        REQUIRE( probing.tell() == 5 );
        REQUIRE( probing.peek( 8 ) == [&] { seeking.seek( 5 ); return seeking.peek( 8 ); }() );
        probing.seekAfterPeek( 400 );
        REQUIRE( probing.tell() == 400 );
        REQUIRE( probing.peek( 8 ) == [&] { seeking.seek( 400 ); return seeking.peek( 8 ); }() );

        /* Mixed with consuming reads: repositioning stays exact. */
        probing.seekAfterPeek( 100 );
        REQUIRE( probing.read( 9 ) == [&] { seeking.seek( 100 ); return seeking.read( 9 ); }() );
        probing.seekAfterPeek( 101 );
        REQUIRE( probing.tell() == 101 );
        REQUIRE( probing.peek( 13 ) == [&] { seeking.seek( 101 ); return seeking.peek( 13 ); }() );

        /* Clamped past-the-end target, like seek(). */
        probing.seekAfterPeek( data.size() * 8 + 123 );
        REQUIRE( probing.tell() == data.size() * 8 );

        /* Delta of exactly 64 bits — one full refill buffer — must not
         * shift by 64 (undefined behavior) and must land exactly. */
        BitReader full( data.data(), data.size() );
        REQUIRE( full.peek( 1 ) == ( data[0] & 1U ) );  /* refills 64 bits */
        full.seekAfterPeek( 64 );
        REQUIRE( full.tell() == 64 );
        seeking.seek( 64 );
        REQUIRE( full.peek( 13 ) == seeking.peek( 13 ) );
    }

    /* Owning constructor keeps the data alive. */
    {
        std::vector<std::uint8_t> data{ 0xDE, 0xAD, 0xBE, 0xEF };
        BitReader reader( std::move( data ) );
        REQUIRE( reader.read( 32 ) == 0xEFBEADDEULL );
    }

    /* Guaranteed-bits contract (PR 4): an ensureBits/readUnsafe loop must
     * reproduce a checked read() loop bit for bit, leave exactly the
     * unguaranteeable tail, and agree through a RegisterCursor, refilled by
     * refillUnchecked(), as well. */
    {
        const auto data = rapidgzip::workloads::randomData( 64 * KiB + 3, 0xFA57 );

        BitReader checked( data.data(), data.size() );
        BitReader unchecked( data.data(), data.size() );
        while ( unchecked.ensureBits( 48 ) ) {
            REQUIRE( unchecked.peekUnsafe( 11 ) == checked.peek( 11 ) );
            REQUIRE( unchecked.readUnsafe( 11 ) == checked.read( 11 ) );
            unchecked.consumeUnsafe( 7 );
            (void)checked.read( 7 );
            REQUIRE( checked.tell() == unchecked.tell() );  /* lockstep */
        }
        /* The tail is readable with the checked API and zero-padded. */
        REQUIRE( unchecked.bufferedBits() < 48 );
        while ( !unchecked.eof() ) {
            REQUIRE( unchecked.read( 1 ) == checked.read( 1 ) );
        }

        BitReader cursorReader( data.data(), data.size() );
        BitReader plainReader( data.data(), data.size() );
        {
            BitReader::RegisterCursor cursor( cursorReader );
            for ( int i = 0; i < 1000 && cursor.hasInput( 8 ); ++i ) {
                cursor.refillUnchecked();
                REQUIRE( cursor.readUnsafe( 13 ) == plainReader.read( 13 ) );
                REQUIRE( ( cursor.peekBufferUnsafe()
                           & ( ( std::uint64_t( 1 ) << 5U ) - 1 ) ) == plainReader.peek( 5 ) );
                cursor.consumeUnsafe( 5 );
                (void)plainReader.read( 5 );
            }
        }  /* destructor syncs the cursor back */
        REQUIRE( cursorReader.tell() == plainReader.tell() );
        REQUIRE( cursorReader.read( 17 ) == plainReader.read( 17 ) );
    }

    /* refillUnchecked() at every fill level 0–64 (a cursor gives a 64-bit
     * fill's last byte back): it buffers 56–63 bits, where ensureBits()
     * buffers 57–64, and the reads after it return the same bits and
     * tell() as reads guarded by ensureBits(), also through the reader
     * after the cursor syncs back. */
    {
        const auto data = rapidgzip::workloads::randomData( 256, 0xFA5A );
        for ( std::size_t start = 0; start < 24; start += 8 ) {
            for ( unsigned fill = 0; fill <= 64; ++fill ) {
                BitReader reader( data.data(), data.size() );
                reader.seek( start );
                if ( fill > 0 ) {
                    REQUIRE( reader.ensureBits( 1 ) );
                    REQUIRE( reader.bufferedBits() == 64 );
                }
                for ( auto toSkip = 64 - fill; toSkip > 0; ) {
                    const auto step = std::min( toSkip, 32U );
                    reader.skip( step );
                    toSkip -= step;
                }
                const auto position = reader.tell();
                REQUIRE( position == start + 64 - fill );
                BitReader guarded( data.data(), data.size() );
                guarded.seek( position );
                {
                    BitReader::RegisterCursor cursor( reader );
                    REQUIRE( cursor.bufferedBits() == std::min( fill, 56U + fill % 8U ) );
                    REQUIRE( cursor.hasInput( 8 ) );
                    cursor.refillUnchecked();
                    REQUIRE( cursor.bufferedBits() >= BitReader::RegisterCursor::UNCHECKED_REFILL_BITS );
                    REQUIRE( cursor.bufferedBits() <= 63 );
                    REQUIRE( guarded.ensureBits( 57 ) );
                    REQUIRE( guarded.bufferedBits() >= 57 );
                    for ( unsigned taken = 0; taken + 7 <= BitReader::RegisterCursor::UNCHECKED_REFILL_BITS;
                          taken += 7 ) {
                        REQUIRE( cursor.readUnsafe( 7 ) == guarded.readUnsafe( 7 ) );
                    }
                }
                REQUIRE( reader.tell() == guarded.tell() );
                for ( int i = 0; i < 40; ++i ) {
                    REQUIRE( reader.read( 29 ) == guarded.read( 29 ) );
                    REQUIRE( reader.tell() == guarded.tell() );
                }
            }
        }
    }

    /* peek64 and peekAt agree with seek + checked reads at any offset. */
    {
        const auto data = rapidgzip::workloads::randomData( 4 * KiB, 0xFA58 );
        BitReader reader( data.data(), data.size() );
        BitReader reference( data.data(), data.size() );
        rapidgzip::Xorshift64 random( 0xFA59 );
        for ( int i = 0; i < 2000; ++i ) {
            const auto offset = random.below( data.size() * 8 + 64 );
            const auto bits = 1 + static_cast<unsigned>( random.below( 56 ) );
            reference.seek( offset );
            std::uint64_t expected = 0;
            for ( unsigned bit = 0; bit < bits; ++bit ) {
                expected |= reference.read( 1 ) << bit;
            }
            REQUIRE( reader.peekAt( offset, bits ) == expected );
            if ( bits <= BitReader::MAX_ENSURE_BITS ) {
                reader.seek( offset );
                REQUIRE( reader.peek64( bits ) == expected );
            }
        }
    }

    return rapidgzip::test::finish( "testBitReader" );
}
