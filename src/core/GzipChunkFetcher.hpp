#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../bits/BitReader.hpp"
#include "../blockfinder/BlockFinder.hpp"
#include "../blockfinder/DynamicBlockFinderRapid.hpp"
#include "../blockfinder/NonCompressedBlockFinder.hpp"
#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../deflate/DecodedData.hpp"
#include "../deflate/DeflateDecoder.hpp"
#include "../gzip/GzipHeader.hpp"
#include "../index/IndexBuilder.hpp"
#include "../io/FileReader.hpp"
#include "../telemetry/Registry.hpp"
#include "../telemetry/Trace.hpp"
#include "DeflateChunks.hpp"

namespace rapidgzip {

/**
 * Flush one chunk's cascade rejection tallies (paper table1) into the
 * process-wide registry — the per-stage FilterStatistics the finder already
 * collects, made live instead of bench-only. One gate check covers all
 * twelve counters; handles resolve once per process.
 */
inline void
tallyFilterStatistics( const blockfinder::FilterStatistics& statistics )
{
    if ( !telemetry::metricsEnabled() ) {
        return;
    }
    static const auto handles = [] () {
        auto& registry = telemetry::Registry::instance();
        const auto help = "Cascaded block-finder stage tallies (paper table1), summed over all chunks.";
        return std::array<telemetry::Counter*, 12>{
            &registry.counter( "rapidgzip_blockfinder_positions_tested_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_final_block_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_compression_type_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_precode_size_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_precode_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_non_optimal_precode_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_precode_encoded_data_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_distance_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_non_optimal_distance_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_invalid_literal_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_non_optimal_literal_code_total", help ),
            &registry.counter( "rapidgzip_blockfinder_valid_headers_total", help ),
        };
    }();
    const std::array<std::uint64_t, 12> values{
        statistics.positionsTested, statistics.invalidFinalBlock, statistics.invalidCompressionType,
        statistics.invalidPrecodeSize, statistics.invalidPrecodeCode, statistics.nonOptimalPrecodeCode,
        statistics.invalidPrecodeEncodedData, statistics.invalidDistanceCode,
        statistics.nonOptimalDistanceCode, statistics.invalidLiteralCode,
        statistics.nonOptimalLiteralCode, statistics.validHeaders };
    for ( std::size_t i = 0; i < values.size(); ++i ) {
        if ( values[i] != 0 ) {
            handles[i]->addUnchecked( values[i] );
        }
    }
}

/**
 * The paper's central pipeline (§3.2/§3.3): decode gzip chunks from GUESSED
 * bit offsets. Stage one runs in parallel per chunk — block-find from the
 * guess with the cascaded rapid finder (plus the non-compressed finder for
 * stored blocks), then two-stage-decode into marker/plain data until the
 * first block boundary at or past the chunk's end guess, crossing into the
 * gzip members that follow as a checkpoint chunk does. Stage two is the
 * cheap sequential stitch (Stitcher): verify each chunk starts exactly
 * where its predecessor stopped (re-decoding from the known offset when the
 * finder was fooled, skipped an unfindable Fixed block, or a restart point
 * was false), substitute markers with the propagated window, and slide the
 * window forward.
 *
 * Correctness does not rest on the finders: a surviving false positive
 * produces wrong bytes whose CRC32 cannot match the gzip footer, which the
 * stitch verifies — the same layering that guards restart points
 * (probeRawDeflatePoint in DeflateChunks.hpp).
 */
class GzipChunkFetcher
{
public:
    static constexpr std::size_t NO_LIMIT = std::numeric_limits<std::size_t>::max();

    /**
     * Stage one for one chunk: find the first decodable block at or after
     * @p startBitGuess (before @p endBitGuess) and decode — windowless, with
     * 16-bit markers — until the first block boundary at or past
     * @p endBitGuess, or @p maxBytes outputs. When its member ends first, the
     * chunk crosses into the members that follow as decodeMembers() does,
     * within the same output budget. The result's `guess` holds where the
     * decode started and its stage-one output, or why the chunk is unusable;
     * the data never makes this throw. With @p spanHeld, the thread's span
     * buffer already holds the bytes of @p file from @p startBitGuess's byte
     * on, as read by a failed exact decode of the same row (decodeRow()),
     * and as far as they reach they are not read again.
     */
    [[nodiscard]] static DecodedChunk
    decodeChunkFromGuess( const FileReader& file,
                          std::size_t startBitGuess,
                          std::size_t endBitGuess,
                          std::size_t maxBytes,
                          bool spanHeld = false )
    {
        const auto fileSize = file.size();
        const auto fileBits = fileSize * 8;
        endBitGuess = std::min( endBitGuess, fileBits );

        DecodedChunk result;
        auto& guess = result.guess.emplace();
        if ( ( startBitGuess >= fileBits ) || ( endBitGuess <= startBitGuess ) ) {
            guess.error = Error::BLOCK_NOT_FOUND;
            return result;
        }

        /* Zero-churn buffers: the compressed span lives in the per-thread
         * span buffer; the DecodedData comes from the shared pool, is
         * pre-sized to the chunk's expected yield, and is reused across
         * failed candidates. */
        auto& span = spanBuffer();
        auto data = deflate::DecodedDataPool::acquire();
        const auto expectedYield =
            std::min( { maxBytes, ( endBitGuess - startBitGuess ) / 8 * EXPECTED_RATIO + 64 * KiB,
                        PRESIZE_CAP } );

        auto margin = INITIAL_DECODE_OVERSHOOT;
        while ( true ) {
            const auto startByte = startBitGuess / 8;
            const auto bufferEnd = std::min( fileSize, ceilDiv<std::size_t>( endBitGuess, 8 ) + margin );
            if ( !spanHeld || ( span.startByte != startByte ) || ( span.bytes.size() < bufferEnd - startByte ) ) {
                span.startByte = startByte;
                span.bytes.resize( bufferEnd - startByte );
                if ( file.pread( span.bytes.data(), span.bytes.size(), startByte ) != span.bytes.size() ) {
                    guess.error = Error::TRUNCATED_STREAM;
                    deflate::DecodedDataPool::release( std::move( data ) );
                    return result;
                }
                spanHeld = true;
            }
            /* Only the bytes a fresh read would hold: a longer held span
             * must not change which candidates run out of input. The view
             * dies at crossMembers(), whose decodeMembers() reuses the
             * span buffer. */
            const BufferView view( span.bytes.data(), bufferEnd - startByte );
            const auto baseBit = startByte * 8;
            const auto searchEndLocal = endBitGuess - baseBit;

            blockfinder::DynamicBlockFinderRapid dynamicFinder;
            const blockfinder::NonCompressedBlockFinder storedFinder;
            /* Tally table1 cascade rejections whatever exit path the chunk takes. */
            struct StatisticsFlusher
            {
                const blockfinder::DynamicBlockFinderRapid& finder;
                ~StatisticsFlusher() { tallyFilterStatistics( finder.statistics() ); }
            } statisticsFlusher{ dynamicFinder };

            /* Bounded, interleaved search: candidates come in ascending
             * offset below the end guess, Dynamic first on a tie — the order
             * an exhaustive search of both finders yields. The cheap
             * byte-wise stored scan runs ahead; the bit-wise Dynamic scan
             * only reaches up to and including the next stored candidate,
             * because a decode from that candidate usually succeeds and
             * makes every Dynamic position past it moot. A failed candidate
             * resumes the scans where they stopped. */
            const auto fromLocal = startBitGuess - baseBit;
            std::size_t nextStored{ blockfinder::NOT_FOUND };
            {
                telemetry::Span findSpan{ "pipeline", "chunk.find" };
                nextStored = storedFinder.find( view, fromLocal, searchEndLocal );
            }
            std::size_t nextDynamic{ blockfinder::NOT_FOUND };
            /* Dynamic positions below this are scanned and hold no untried candidate. */
            auto dynamicResume = fromLocal;

            bool truncatedAttempt = false;
            while ( true ) {
                const auto dynamicUntil = nextStored == blockfinder::NOT_FOUND ? searchEndLocal
                                                                                : nextStored + 1;
                if ( ( nextDynamic == blockfinder::NOT_FOUND ) && ( dynamicResume < dynamicUntil ) ) {
                    telemetry::Span findSpan{ "pipeline", "chunk.find" };
                    nextDynamic = dynamicFinder.find( view, dynamicResume, dynamicUntil );
                    dynamicResume = dynamicUntil;
                }
                const auto candidate = std::min( nextDynamic, nextStored );
                if ( candidate == blockfinder::NOT_FOUND ) {
                    break;
                }
                /* Both finders can report the same offset; try the dynamic
                 * interpretation first, then the stored one — neither may
                 * shadow the other. */
                for ( const bool stored : { false, true } ) {
                    if ( stored ? ( candidate != nextStored ) : ( candidate != nextDynamic ) ) {
                        continue;
                    }
                    BitReader reader( view.data(), view.size() );
                    reader.seek( candidate );
                    deflate::Decoder decoder;
                    decoder.setStartAtStoredData( stored );
                    data.reset();
                    data.marked.reserve( expectedYield );
                    const auto decoded = [&] () {
                        telemetry::Span decodeSpan{ "pipeline", "chunk.decode" };
                        return decoder.decode( reader, data, searchEndLocal, maxBytes );
                    }();
                    if ( decoded.error == Error::NONE ) {
                        guess.startBitOffset = baseBit + candidate;
                        guess.startedAtStoredBlock = stored;
                        guess.firstSegment = std::move( data );
                        result.endBitOffset = baseBit + decoded.endBitOffset;
                        if ( decoded.reachedFinalBlock ) {
                            const auto footerEnd = ceilDiv<std::size_t>( result.endBitOffset, 8 ) + GZIP_FOOTER_SIZE;
                            crossMembers( file, result, endBitGuess,
                                          maxBytes - std::min( maxBytes, guess.firstSegment.totalSize() ),
                                          footerEnd < bufferEnd ? view.subView( footerEnd - startByte,
                                                                                bufferEnd - footerEnd )
                                                                : BufferView() );
                        }
                        return result;
                    }
                    if ( decoded.error == Error::EXCEEDED_OUTPUT_LIMIT ) {
                        /* The output budget is per chunk, not per candidate:
                         * retrying further candidates would multiply the
                         * wasted decode work. Report terminally; the stitch
                         * re-decodes sequentially without a limit. */
                        guess.error = Error::EXCEEDED_OUTPUT_LIMIT;
                        deflate::DecodedDataPool::release( std::move( data ) );
                        return result;
                    }
                    if ( ( decoded.error == Error::TRUNCATED_STREAM ) && ( bufferEnd < fileSize ) ) {
                        truncatedAttempt = true;
                    }
                }
                if ( candidate == nextDynamic ) {
                    nextDynamic = blockfinder::NOT_FOUND;
                    dynamicResume = candidate + 1;
                }
                if ( candidate == nextStored ) {
                    telemetry::Span findSpan{ "pipeline", "chunk.find" };
                    nextStored = storedFinder.find( view, candidate + 1, searchEndLocal );
                }
            }

            if ( truncatedAttempt && ( bufferEnd < fileSize ) ) {
                margin *= 4;  /* a candidate outran the buffer — widen and retry */
                continue;
            }
            guess.error = Error::BLOCK_NOT_FOUND;
            deflate::DecodedDataPool::release( std::move( data ) );
            return result;
        }
    }

    /**
     * Index-driven chunk decode: resume at the checkpoint bit offset
     * @p startBits with the checkpoint's @p window and decode until the
     * block boundary at @p untilBits (the next checkpoint) or the end of the
     * stream, crossing the gzip members inside the chunk (see decodeMembers()),
     * so BGZF and concatenated members ride the same path. This is what
     * makes seek()/read() O(1) in decoded work: exactly one inter-checkpoint
     * span is decoded, never the prefix of the file. It is
     * ParallelGzipReader's chunk decoder for imported, BGZF and harvested
     * checkpoints. Every member the chunk decodes whole is checked against
     * its footer: those that start inside it, and with @p startsMember (a
     * BGZF row) the one it starts with.
     *
     * Throws InvalidGzipStreamError when the data under the checkpoint does
     * not decode, or when the decode stops past @p untilBits (the next
     * checkpoint lies inside a block, a footer or a member header): a stale
     * or corrupt index. Throws TruncatedStreamError when the file ends inside
     * a block, and ChecksumError for a member that disagrees with its footer.
     */
    [[nodiscard]] static DecodedChunk
    decodeChunkFromCheckpoint( const FileReader& file,
                               std::size_t startBits,
                               std::size_t untilBits,
                               BufferView window,
                               bool startsMember = false )
    {
        auto chunk = decodeMembers( file, startBits, untilBits, window, startsMember );
        if ( !chunk.reachedStreamEnd && ( chunk.endBitOffset > untilBits ) ) {
            throw InvalidGzipStreamError( "Chunk end at bit " + std::to_string( untilBits )
                                          + " is no block boundary; the decode stopped at bit "
                                          + std::to_string( chunk.endBitOffset ) );
        }
        return chunk;
    }

    /**
     * One row of a chunk table that a pass still checks, decoded to the
     * first block boundary at or past @p untilBits; its `guess` reports
     * where the decode started, and the data never makes this throw. An
     * @p exact row (a restart point, or the stream's first Deflate bit)
     * decodes as decodeMembers() does from @p startBits with an empty
     * window and no output cap. When that throws for the data — a false
     * restart point, or a sync flush, after which the stream still refers
     * to the bytes before — and for every other row, decodeChunkFromGuess()
     * decodes from @p startBits within @p maxBytes outputs. An exact decode
     * that runs into the end of the file marks the row unusable
     * (TRUNCATED_STREAM) without that search, which in the last row would
     * decode from every block to the end of the file: the stitch re-decodes
     * the row from where the previous one ended, which reports a truncated
     * file and decodes a false restart point's row. The guess decode after
     * a failed exact decode reads no byte the exact decode read. Transient
     * failures (I/O, allocation) propagate.
     */
    [[nodiscard]] static DecodedChunk
    decodeRow( const FileReader& file, std::size_t startBits, std::size_t untilBits, bool exact,
               std::size_t maxBytes )
    {
        if ( !exact ) {
            return decodeChunkFromGuess( file, startBits, untilBits, maxBytes );
        }
        try {
            auto chunk = decodeMembers( file, startBits, untilBits, {} );
            auto& guess = chunk.guess.emplace();
            guess.startBitOffset = startBits;
            guess.exact = true;
            return chunk;
        } catch ( const TruncatedStreamError& ) {
            DecodedChunk unusable;
            unusable.guess.emplace().error = Error::TRUNCATED_STREAM;
            return unusable;
        } catch ( const InvalidGzipStreamError& ) {
        } catch ( const ChecksumError& ) {
        }
        return decodeChunkFromGuess( file, startBits, untilBits, maxBytes, /* spanHeld */ true );
    }

    /**
     * The one decode loop behind every chunk from a known boundary: decode
     * from the block boundary @p startBits, with @p window as the history,
     * to the first block boundary at or past @p untilBits, the end of the
     * stream, or @p maxBytes outputs. The compressed span is read once, into
     * the per-thread span buffer, with an overshoot margin that widens when
     * a block runs past it. Every member in the span decodes from that buffer:
     * to its final block; its segment CRC and footer offset go into
     * memberEnds, and when the span holds the whole member (it starts inside
     * the span, or at @p startBits with @p startsMember) it must match its
     * footer; the trailing-bytes rule runs on the buffered bytes; and the
     * next member starts on a fresh decoder with an empty window. Members
     * share the chunk's output, but each decodes into its own emptied
     * buffer, so a back-reference into the previous member's bytes is
     * EXCEEDED_WINDOW, zlib's "invalid distance too far back". A next member
     * that starts at or past @p untilBits ends the span there.
     */
    [[nodiscard]] static DecodedChunk
    decodeMembers( const FileReader& file,
                   std::size_t startBits,
                   std::size_t untilBits,
                   BufferView window,
                   bool startsMember = false,
                   std::size_t maxBytes = NO_LIMIT )
    {
        constexpr auto TRUNCATED = "Gzip stream ended before the final Deflate block — truncated file";
        const auto fileSize = file.size();
        if ( startBits >= fileSize * 8 ) {
            throw TruncatedStreamError( TRUNCATED );
        }
        const auto endBits = std::clamp( untilBits, startBits, fileSize * 8 );

        auto& span = spanBuffer();
        auto& buffer = span.bytes;
        auto decoded = deflate::DecodedDataPool::acquire();
        const auto expectedYield =
            std::min( ( std::max( endBits, startBits + 8 ) - startBits ) / 8 * EXPECTED_RATIO + 64 * KiB,
                      PRESIZE_CAP );

        auto margin = INITIAL_DECODE_OVERSHOOT;
        while ( true ) {
            const auto startByte = startBits / 8;
            const auto bufferEnd = std::min( fileSize, ceilDiv<std::size_t>( endBits, 8 ) + margin );
            span.startByte = startByte;
            buffer.resize( bufferEnd - startByte );
            preadExactly( file, buffer.data(), buffer.size(), startByte );
            const auto baseBit = startByte * 8;

            DecodedChunk result;
            auto memberStartBit = startBits;
            auto memberWindow = window;
            auto wholeMember = startsMember;
            bool truncated = false;
            while ( true ) {
                BitReader reader( buffer.data(), buffer.size() );
                reader.seek( memberStartBit - baseBit );
                deflate::Decoder decoder;
                decoder.setInitialWindow( memberWindow );
                decoded.reset();
                if ( decoded.plain.empty() ) {
                    decoded.plain.emplace_back();
                }
                decoded.plain.front().data.reserve( expectedYield );
                /* Resolving the member into the chunk's output, and its
                 * CRC, count as decode time. */
                const auto before = result.data.size();
                std::uint32_t segmentCrc = 0;
                const auto status = [&] () {
                    telemetry::Span decodeSpan{ "pipeline", "chunk.decode" };
                    const auto decodeStatus = decoder.decode( reader, decoded, endBits - baseBit,
                                                              maxBytes - std::min( maxBytes, before ) );
                    if ( decodeStatus.error == Error::NONE ) {
                        deflate::resolveInto( decoded, memberWindow, result.data );
                        segmentCrc = simd::crc32( 0, result.data.data() + before, result.data.size() - before );
                    }
                    return decodeStatus;
                }();
                if ( status.error == Error::TRUNCATED_STREAM ) {
                    if ( bufferEnd == fileSize ) {
                        throw TruncatedStreamError( TRUNCATED );
                    }
                    truncated = true;
                    break;
                }
                if ( status.error != Error::NONE ) {
                    throw InvalidGzipStreamError(
                        "Cannot decode the gzip stream at bit offset " + std::to_string( memberStartBit )
                        + ": " + std::string( toString( status.error ) ) );
                }

                result.endBitOffset = baseBit + status.endBitOffset;
                if ( !status.reachedFinalBlock ) {
                    result.trailingCrc32 = segmentCrc;
                    break;  /* stopped at the block boundary at or past untilBits */
                }

                const auto footerByte = ceilDiv<std::size_t>( result.endBitOffset, 8 );
                if ( wholeMember && !footerMatches( file, footerByte, segmentCrc, result.data.size() - before ) ) {
                    throw ChecksumError( "Gzip member does not match its footer" );
                }
                result.memberEnds.push_back( { result.data.size(), segmentCrc, footerByte } );
                const auto footerEnd = footerByte + GZIP_FOOTER_SIZE;
                const auto next = nextGzipMember(
                    file, footerEnd,
                    footerEnd < bufferEnd ? BufferView( buffer.data() + ( footerEnd - startByte ),
                                                        bufferEnd - footerEnd )
                                          : BufferView() );
                if ( !next ) {
                    result.reachedStreamEnd = true;  /* the rest is padding */
                    break;
                }
                result.endBitOffset = *next * 8;
                if ( result.endBitOffset >= untilBits ) {
                    break;  /* the next member starts the next span */
                }
                memberStartBit = result.endBitOffset;
                memberWindow = {};  /* a fresh member starts with an empty window */
                wholeMember = true;
            }
            if ( truncated ) {
                margin *= 4;  /* a block outran the buffer — widen and retry */
                continue;
            }
            deflate::DecodedDataPool::release( std::move( decoded ) );
            result.crc32 = combineSegmentCrcs( result );
            return result;
        }
    }

    /**
     * Stage two, on the one thread that consumes a gzip stream's chunks in
     * order — every pass over a chunk table and the serial walk: stitch each
     * chunk to where the previous one ended, resolve its markers against the
     * propagated window, check every member against its footer
     * (MemberVerifier), and slide the window, emptying it at each member
     * start. Of an accepted stage-one segment it copies only what needs the
     * window, the resolved 16-bit prefix; the CRC and the window run over
     * the plain segments in place. One rule covers every row a pass checks
     * (a chunk with a `guess`): it is accepted when it starts where the
     * previous chunk ended, or at the LEN field of a non-final stored block
     * there; otherwise it is re-decoded from there with the window. So a
     * false restart point costs one sequential re-decode, as a guess that
     * missed does. A chunk without a `guess` — a checkpoint row of an index,
     * or a span of the serial walk — starts where the previous one ended by
     * construction. The checked rows' starts go into an IndexBuilder.
     */
    class Stitcher
    {
    public:
        /** Stitch the stream whose first Deflate bit is @p startBits,
         * harvesting into @p builder unless it is nullptr. */
        Stitcher( const FileReader& file, std::size_t startBits, index::IndexBuilder* builder ) :
            m_file( file ),
            m_verifier( file ),
            m_builder( builder ),
            m_endBits( startBits )
        {}

        /**
         * Stitch @p decoded, the next chunk, whose decode was asked to end
         * at the first block boundary at or past @p untilBits. Throws
         * ChecksumError for a member that disagrees with its footer, and
         * what decodeMembers() throws for a re-decode. The whole hook is one
         * `chunk.stitch` span; a re-decode's `chunk.decode` spans nest in it.
         */
        void
        stitch( const DecodedChunk& decoded, std::size_t untilBits )
        {
            telemetry::Span stitchSpan{ "pipeline", "chunk.stitch" };
            const auto* chunk = &decoded;
            const DecodedChunk::Guess* accepted = nullptr;
            DecodedChunk redecoded;
            if ( decoded.guess ) {
                const auto& guess = *decoded.guess;
                if ( ( guess.error == Error::NONE )
                     && ( guess.startedAtStoredBlock ? startsAtStoredData( guess.startBitOffset )
                                                     : ( guess.startBitOffset == m_endBits ) ) ) {
                    accepted = &guess;
                } else {
                    /* A false restart point, a fooled finder, a skipped
                     * unfindable block, or a guess past the chunk: re-decode
                     * from the known boundary with the propagated window. */
                    RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_redecodes_total",
                                               "Speculative chunk decodes discarded for a sequential "
                                               "re-decode (finder miss, mis-stitch, or decode failure).", 1 );
                    redecoded = decodeMembers( m_file, m_endBits, untilBits, window() );
                    chunk = &redecoded;
                }
                const auto exact = ( accepted != nullptr ) && accepted->exact;
                m_rowsExact = m_rowsExact && exact;

                /* Harvest before the window slides: m_endBits is the
                 * boundary the chunk starts at (for an accepted stored-block
                 * candidate the real block header there decodes identically),
                 * and the window is the history a decode resuming there
                 * needs — none after an exact decode. The accepted stage-one
                 * output enables a sparse window. */
                if ( m_builder != nullptr ) {
                    m_builder->addCheckpoint( m_endBits, m_size, exact ? BufferView() : window(),
                                              accepted != nullptr ? &accepted->firstSegment : nullptr );
                }
            }

            if ( accepted != nullptr ) {
                /* Only the 16-bit prefix needs the window; the CRC and the
                 * window run over the plain tail's segments in place. */
                const auto& segment = accepted->firstSegment;
                m_resolved.resize( segment.marked.size() );
                deflate::replaceMarkers( segment.marked, window(), m_resolved.data() );
                auto crc = simd::crc32( 0, m_resolved.data(), m_resolved.size() );
                advance( m_resolved, std::nullopt );
                for ( const auto& plain : segment.plain ) {
                    crc = simd::crc32( crc, plain.data.data(), plain.data.size() );
                    advance( plain.data, std::nullopt );
                }
                const auto& footer = accepted->firstSegmentFooter;
                verify( m_verifier.consume( crc, segment.totalSize(), footer ) );
                if ( footer ) {
                    m_window.clear();
                }
            }
            verify( m_verifier.consume( *chunk ) );
            advance( chunk->data, chunk->memberEnds.empty()
                                  ? std::nullopt
                                  : std::optional<std::size_t>( chunk->memberEnds.back().dataEndOffset ) );
            m_endBits = chunk->endBitOffset;
            m_reachedStreamEnd = chunk->reachedStreamEnd;
        }

        /** Where the next chunk starts. */
        [[nodiscard]] std::size_t
        endBits() const noexcept
        {
            return m_endBits;
        }

        /** The history a decode from endBits() needs. */
        [[nodiscard]] BufferView
        window() const noexcept
        {
            return { m_window.data(), m_window.size() };
        }

        /** Uncompressed bytes stitched so far. */
        [[nodiscard]] std::size_t
        size() const noexcept
        {
            return m_size;
        }

        [[nodiscard]] bool
        reachedStreamEnd() const noexcept
        {
            return m_reachedStreamEnd;
        }

        /** No chunk so far was re-decoded or stitched from stage-one output:
         * every chunk holds its own start's bytes, exactly. */
        [[nodiscard]] bool
        rowsExact() const noexcept
        {
            return m_rowsExact;
        }

    private:
        static void
        verify( bool membersMatch )
        {
            if ( !membersMatch ) {
                throw ChecksumError( "Gzip member does not match its footer" );
            }
        }

        /**
         * A stored-block start is reported at its byte-aligned LEN field, and
         * its decode assumed BFINAL 0. So @p bit continues the stream only
         * when it is the LEN field of a block at m_endBits whose three
         * header bits, read from the file, are BFINAL 0 and BTYPE 00. Behind
         * a final stored block the decode read the member's footer as
         * Deflate, which the footer check would reject for the whole pass.
         */
        [[nodiscard]] bool
        startsAtStoredData( std::size_t bit ) const
        {
            if ( bit != ceilDiv<std::size_t>( m_endBits + 3, 8 ) * 8 ) {
                return false;
            }
            std::uint8_t header[2]{};
            const auto shift = m_endBits % 8;
            const auto got = m_file.pread( header, sizeof( header ), m_endBits / 8 );
            return ( got * 8 >= shift + 3 )
                   && ( ( ( static_cast<unsigned>( header[0] | ( header[1] << 8U ) ) >> shift ) & 0b111U ) == 0 );
        }

        /** Count @p bytes, the stream's next output, and slide the window
         * over them; the last member that ends in them ends at
         * @p lastMemberEnd, after which the window starts afresh. */
        void
        advance( BufferView bytes, std::optional<std::size_t> lastMemberEnd )
        {
            m_size += bytes.size();
            if ( lastMemberEnd ) {
                m_window.clear();
                bytes = bytes.subView( *lastMemberEnd, bytes.size() - *lastMemberEnd );
            }
            if ( bytes.size() >= deflate::WINDOW_SIZE ) {
                m_window.assign( bytes.end() - deflate::WINDOW_SIZE, bytes.end() );
                return;
            }
            const auto keep = std::min( m_window.size(), deflate::WINDOW_SIZE - bytes.size() );
            m_window.erase( m_window.begin(), m_window.end() - static_cast<std::ptrdiff_t>( keep ) );
            m_window.insert( m_window.end(), bytes.begin(), bytes.end() );
        }

        const FileReader& m_file;
        MemberVerifier m_verifier;
        index::IndexBuilder* const m_builder;
        std::size_t m_endBits;
        std::vector<std::uint8_t> m_window;
        /** The resolved 16-bit prefix of the chunk being stitched. */
        FastVector<std::uint8_t> m_resolved;
        std::size_t m_size{ 0 };
        bool m_reachedStreamEnd{ false };
        bool m_rowsExact{ true };
    };

    /**
     * The serial walk: one sequential pass over the whole gzip stream with
     * the same decoder as the chunks, span by span of @p spanBytes
     * compressed bytes from the first member's first Deflate byte, stitched
     * by a Stitcher, which checks every member against its footer. With
     * @p builder, it harvests a checkpoint and its window at every span
     * start. Memory stays bounded by one span's output. Returns the
     * uncompressed size. Throws for a truncated stream, a member that
     * disagrees with its footer, and undecodable data.
     */
    [[nodiscard]] static std::size_t
    decompressSerially( const FileReader& file,
                        std::size_t spanBytes,
                        index::IndexBuilder* builder = nullptr )
    {
        const auto spanBits = std::max<std::size_t>( spanBytes, 1 ) * 8;
        const auto header = readHeaderBytes( file, 0 );
        Stitcher stitcher( file, parseGzipHeader( { header.data(), header.size() } ) * 8, nullptr );
        while ( !stitcher.reachedStreamEnd() ) {
            if ( builder != nullptr ) {
                builder->addCheckpoint( stitcher.endBits(), stitcher.size(), stitcher.window() );
            }
            const auto untilBits = stitcher.endBits() + spanBits;
            const auto chunk = decodeMembers( file, stitcher.endBits(), untilBits, stitcher.window() );
            stitcher.stitch( chunk, untilBits );
        }
        return stitcher.size();
    }

private:
    /** The compressed bytes a thread decodes a chunk from, file bytes from
     * `startByte` on: decodeMembers() and decodeChunkFromGuess() read their
     * span into it, so a guess decode after a failed exact decode of the
     * same row can take the bytes that decode read (decodeRow()). */
    struct SpanBuffer
    {
        std::vector<std::uint8_t> bytes;
        std::size_t startByte{ 0 };
    };

    [[nodiscard]] static SpanBuffer&
    spanBuffer()
    {
        static thread_local SpanBuffer buffer;
        return buffer;
    }

    /**
     * @p result's stage-one segment ends its member. Apply the trailing-bytes
     * rule after the footer (@p known: the file's bytes from the footer's end
     * on, as far as they are buffered) and decode the members that start
     * before @p untilBits, within @p maxBytes outputs, as decodeMembers()
     * does. A failure there makes the chunk unusable, not the stream: the
     * stitch re-decodes it from its known start.
     */
    static void
    crossMembers( const FileReader& file, DecodedChunk& result, std::size_t untilBits, std::size_t maxBytes,
                  BufferView known )
    {
        const auto footerByte = ceilDiv<std::size_t>( result.endBitOffset, 8 );
        result.guess->firstSegmentFooter = footerByte;
        try {
            const auto next = nextGzipMember( file, footerByte + GZIP_FOOTER_SIZE, known );
            if ( !next ) {
                result.reachedStreamEnd = true;
                return;
            }
            result.endBitOffset = *next * 8;
            if ( result.endBitOffset < untilBits ) {
                auto members = decodeMembers( file, result.endBitOffset, untilBits, {}, true, maxBytes );
                members.guess = std::move( result.guess );
                result = std::move( members );
            }
        } catch ( const InvalidGzipStreamError& ) {
            result.guess->error = Error::BLOCK_NOT_FOUND;
        } catch ( const ChecksumError& ) {
            result.guess->error = Error::BLOCK_NOT_FOUND;
        }
    }

    /* Covers the boundary block overshooting the end guess in one read for
     * typical block sizes; the TRUNCATED retry loop (margin *= 4) widens it
     * for the rare longer block, so a small start avoids per-chunk read
     * amplification. */
    static constexpr std::size_t INITIAL_DECODE_OVERSHOOT = 256 * KiB;

    /* Pre-size heuristic for the decode buffers: gzip on text compresses
     * ~3-4x, so reserving 4x the compressed span usually avoids every
     * mid-decode reallocation; the cap bounds the speculative memory of a
     * pathological ratio chunk (the buffer still grows on demand past it). */
    static constexpr std::size_t EXPECTED_RATIO = 4;
    static constexpr std::size_t PRESIZE_CAP = 32 * MiB;
};

}  // namespace rapidgzip
