#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "../bits/BitReader.hpp"
#include "../blockfinder/BlockFinder.hpp"
#include "../blockfinder/DynamicBlockFinderRapid.hpp"
#include "../blockfinder/NonCompressedBlockFinder.hpp"
#include "../common/Error.hpp"
#include "../common/ThreadPool.hpp"
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
 * first block boundary at or past the chunk's end guess. Stage two is the
 * cheap sequential stitch: verify each chunk starts exactly where its
 * predecessor stopped (re-decoding from the known offset when the finder
 * was fooled or skipped an unfindable Fixed block), substitute markers with
 * the propagated window, and slide the window forward.
 *
 * Correctness does not rest on the finders: a surviving false positive
 * produces wrong bytes whose CRC32 cannot match the gzip footer, which the
 * caller verifies — the same layering that guards marker-derived restart
 * points (probeRawDeflatePoint in DeflateChunks.hpp).
 */
class GzipChunkFetcher
{
public:
    struct ChunkResult
    {
        Error error{ Error::NONE };
        deflate::DecodedData data;
        /** Absolute bit offset of the block the decode actually started at. */
        std::size_t decodedStartBit{ 0 };
        /** Absolute bit offset of the first unconsumed block boundary. */
        std::size_t decodedEndBit{ 0 };
        bool reachedStreamEnd{ false };
        std::size_t blockCount{ 0 };
        bool startedAtStoredBlock{ false };
    };

    struct MemberResult
    {
        std::size_t uncompressedSize{ 0 };
        std::uint32_t crc32{ 0 };
        /** Byte offset of the member's footer (just past the final Deflate byte). */
        std::size_t footerStartByte{ 0 };
        /** Chunks actually consumed for this member (not the guess grid,
         * which spans to the file end for concatenated members). */
        std::size_t chunkCount{ 0 };
        /** Chunks whose speculative decode was discarded for a sequential
         * re-decode (finder miss, mis-stitch, or decode failure). */
        std::size_t redecodedChunks{ 0 };
    };

    /**
     * Stage one for one chunk: find the first decodable block at or after
     * @p startBitGuess (before @p endBitGuess) and decode — windowless, with
     * 16-bit markers — until the first block boundary at or past
     * @p endBitGuess, the final block, or @p maxBytes outputs.
     */
    [[nodiscard]] static ChunkResult
    decodeChunkFromGuess( const FileReader& file,
                          std::size_t startBitGuess,
                          std::size_t endBitGuess,
                          std::size_t maxBytes )
    {
        const auto fileSize = file.size();
        const auto fileBits = fileSize * 8;
        endBitGuess = std::min( endBitGuess, fileBits );

        ChunkResult result;
        if ( ( startBitGuess >= fileBits ) || ( endBitGuess <= startBitGuess ) ) {
            result.error = Error::BLOCK_NOT_FOUND;
            return result;
        }

        /* Zero-churn buffers: the compressed span lives in a per-thread
         * buffer reused across chunks; the DecodedData comes from the shared
         * pool, is pre-sized to the chunk's expected yield, and is reused
         * across failed candidates — steady-state decoding allocates
         * nothing. */
        static thread_local std::vector<std::uint8_t> buffer;
        auto data = deflate::DecodedDataPool::acquire();
        const auto expectedYield =
            std::min( { maxBytes, ( endBitGuess - startBitGuess ) / 8 * EXPECTED_RATIO + 64 * KiB,
                        PRESIZE_CAP } );

        auto margin = INITIAL_DECODE_OVERSHOOT;
        while ( true ) {
            const auto startByte = startBitGuess / 8;
            const auto bufferEnd = std::min( fileSize, ceilDiv<std::size_t>( endBitGuess, 8 ) + margin );
            buffer.resize( bufferEnd - startByte );
            if ( file.pread( buffer.data(), buffer.size(), startByte ) != buffer.size() ) {
                result.error = Error::TRUNCATED_STREAM;
                deflate::DecodedDataPool::release( std::move( data ) );
                return result;
            }
            const BufferView view( buffer.data(), buffer.size() );
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
                        result.data = std::move( data );
                        result.decodedStartBit = baseBit + candidate;
                        result.decodedEndBit = baseBit + decoded.endBitOffset;
                        result.reachedStreamEnd = decoded.reachedFinalBlock;
                        result.blockCount = decoded.blockCount;
                        result.startedAtStoredBlock = stored;
                        return result;
                    }
                    if ( decoded.error == Error::EXCEEDED_OUTPUT_LIMIT ) {
                        /* The output budget is per chunk, not per candidate:
                         * retrying further candidates would multiply the
                         * wasted decode work. Report terminally; the caller
                         * re-decodes sequentially without a limit. */
                        result.error = Error::EXCEEDED_OUTPUT_LIMIT;
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
            result.error = Error::BLOCK_NOT_FOUND;
            deflate::DecodedDataPool::release( std::move( data ) );
            return result;
        }
    }

    /**
     * Sequential-path decode from an exactly known block boundary with a
     * known window (conventional 8-bit decoding throughout). Used for the
     * first chunk of a member and whenever a speculative chunk has to be
     * re-decoded.
     */
    [[nodiscard]] static ChunkResult
    decodeChunkAtOffset( const FileReader& file,
                         std::size_t startBit,
                         std::size_t untilBit,
                         std::size_t maxBytes,
                         BufferView window,
                         bool startAtStoredData = false )
    {
        const auto fileSize = file.size();
        const auto fileBits = fileSize * 8;
        untilBit = std::min( untilBit, fileBits );
        /* A previous chunk's boundary block may have overshot PAST this
         * chunk's whole range: untilBit <= startBit then means "decode zero
         * blocks" (the loop below breaks immediately), and the buffer
         * arithmetic must not underflow. */
        untilBit = std::max( untilBit, startBit );

        ChunkResult result;
        if ( startBit >= fileBits ) {
            result.error = Error::TRUNCATED_STREAM;
            return result;
        }

        static thread_local std::vector<std::uint8_t> buffer;
        auto data = deflate::DecodedDataPool::acquire();
        const auto expectedYield =
            std::min( { maxBytes,
                        ( std::max( untilBit, startBit + 8 ) - startBit ) / 8 * EXPECTED_RATIO
                        + 64 * KiB,
                        PRESIZE_CAP } );

        auto margin = INITIAL_DECODE_OVERSHOOT;
        while ( true ) {
            const auto startByte = startBit / 8;
            const auto bufferEnd = std::min( fileSize, ceilDiv<std::size_t>( untilBit, 8 ) + margin );
            buffer.resize( bufferEnd - startByte );
            if ( file.pread( buffer.data(), buffer.size(), startByte ) != buffer.size() ) {
                result.error = Error::TRUNCATED_STREAM;
                deflate::DecodedDataPool::release( std::move( data ) );
                return result;
            }
            const auto baseBit = startByte * 8;

            BitReader reader( buffer.data(), buffer.size() );
            reader.seek( startBit - baseBit );
            deflate::Decoder decoder;
            decoder.setInitialWindow( window );
            decoder.setStartAtStoredData( startAtStoredData );
            data.reset();
            if ( data.plain.empty() ) {
                data.plain.emplace_back();
            }
            data.plain.front().data.reserve( expectedYield );
            const auto decoded = [&] () {
                telemetry::Span decodeSpan{ "pipeline", "chunk.decode" };
                return decoder.decode( reader, data, untilBit - baseBit, maxBytes );
            }();
            if ( ( decoded.error == Error::TRUNCATED_STREAM ) && ( bufferEnd < fileSize ) ) {
                margin *= 4;
                continue;
            }
            result.error = decoded.error;
            result.data = std::move( data );
            result.decodedStartBit = startBit;
            result.decodedEndBit = baseBit + decoded.endBitOffset;
            result.reachedStreamEnd = decoded.reachedFinalBlock;
            result.blockCount = decoded.blockCount;
            result.startedAtStoredBlock = startAtStoredData;
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
     * ParallelGzipReader's only chunk decoder: imported, BGZF, harvested and
     * marker-derived checkpoints all decode here.
     *
     * Throws InvalidGzipStreamError when the data under the checkpoint does
     * not decode — a stale or corrupt index, or a false restart point —
     * FalseChunkEndError when the decode stops past @p untilBits: the next
     * checkpoint lies inside a block, a footer or a member header, and
     * TruncatedStreamError when the file ends inside a block.
     */
    [[nodiscard]] static DecodedChunk
    decodeChunkFromCheckpoint( const FileReader& file,
                               std::size_t startBits,
                               std::size_t untilBits,
                               BufferView window )
    {
        auto chunk = decodeMembers( file, startBits, untilBits, window );
        if ( !chunk.reachedStreamEnd && ( chunk.endBitOffset > untilBits ) ) {
            throw FalseChunkEndError( "Chunk end at bit " + std::to_string( untilBits )
                                      + " is no block boundary; the decode stopped at bit "
                                      + std::to_string( chunk.endBitOffset ) );
        }
        return chunk;
    }

    /**
     * The serial authority: one sequential walk over the whole gzip stream
     * with the same decoder as the chunks, span by span of @p spanBytes
     * compressed bytes from the first member's first Deflate byte. The
     * window carries across spans and empties at every member start; every
     * member is checked against its footer, and the trailing-bytes rule
     * decides what follows each footer. Memory stays bounded by one span's
     * output. Hands every byte to @p sink when it is set and returns the
     * uncompressed size. Throws for a truncated stream, a member that
     * disagrees with its footer, and undecodable data.
     */
    [[nodiscard]] static std::size_t
    decompressSerially( const FileReader& file,
                        std::size_t spanBytes,
                        const std::function<void( BufferView )>& sink = {} )
    {
        const auto spanBits = std::max<std::size_t>( spanBytes, 1 ) * 8;
        const auto header = readHeaderBytes( file, 0 );
        auto bit = parseGzipHeader( { header.data(), header.size() } ) * 8;
        MemberVerifier verifier( file );
        std::vector<std::uint8_t> window;
        std::size_t total = 0;
        while ( true ) {
            const auto chunk = decodeMembers( file, bit, bit + spanBits, { window.data(), window.size() } );
            if ( !verifier.consume( chunk ) ) {
                throw ChecksumError( "Gzip member does not match its footer" );
            }
            if ( sink && !chunk.data.empty() ) {
                sink( { chunk.data.data(), chunk.data.size() } );
            }
            total += chunk.data.size();
            if ( chunk.reachedStreamEnd ) {
                return total;
            }
            /* The next span continues the member the chunk ends in. */
            std::size_t memberBegin = 0;
            if ( !chunk.memberEnds.empty() ) {
                memberBegin = chunk.memberEnds.back().dataEndOffset;
                window.clear();
            }
            slideWindow( window, { chunk.data.data() + memberBegin, chunk.data.size() - memberBegin } );
            bit = chunk.endBitOffset;
        }
    }

    /**
     * Decompress one gzip member's Deflate stream in parallel from guessed
     * chunk offsets, stitching sequentially. Returns size, CRC32, and the
     * footer position; throws InvalidGzipStreamError when the stream is
     * undecodable. The caller verifies the returned CRC against the footer —
     * that verification, not the block finding, is the correctness
     * authority.
     *
     * When @p collectOutput is non-null the decompressed bytes are appended
     * to it; otherwise they are discarded after CRC/window accounting
     * (decompressAll semantics), keeping memory bounded by the in-flight
     * chunk batch.
     *
     * When @p indexBuilder is non-null, every consumed chunk boundary is
     * recorded as a checkpoint with the propagated window — index
     * construction as a byproduct of the sweep (member-relative uncompressed
     * offsets; the caller advances the member base).
     */
    [[nodiscard]] static MemberResult
    decompressMember( const FileReader& file,
                      std::size_t firstDeflateByte,
                      std::size_t parallelism,
                      std::size_t chunkSizeBytes,
                      std::vector<std::uint8_t>* collectOutput = nullptr,
                      index::IndexBuilder* indexBuilder = nullptr )
    {
        const auto fileSize = file.size();
        const auto fileBits = fileSize * 8;
        const auto startBit = firstDeflateByte * 8;
        if ( startBit >= fileBits ) {
            throw InvalidGzipStreamError( "Gzip member has no Deflate data" );
        }

        const auto chunkBytes = std::max<std::size_t>( chunkSizeBytes, 128 * KiB );
        const auto chunkBits = chunkBytes * 8;
        /* The guess grid spans to the FILE end because a member's end is
         * only known after decoding it; for concatenated members the (at
         * most one batch of) speculative decodes past the footer are
         * discarded at reachedStreamEnd. */
        const auto chunkCount = ceilDiv( fileBits - startBit, chunkBits );
        /* Speculative output budget per chunk. Deflate can expand up to
         * ~1032x, but budgeting for that would let a batch of in-flight
         * 16-bit chunk buffers occupy hundreds of chunk sizes of memory;
         * ratios beyond this cap (sparse files and the like) fall back to
         * the sequential re-decode, whose single uncapped chunk matches the
         * serial path's memory profile. */
        const auto chunkOutputCap = chunkBytes * 64 + 16 * MiB;

        const auto guessBegin = [startBit, chunkBits] ( std::size_t index ) {
            return startBit + index * chunkBits;
        };
        /* The pool is declared AFTER everything its tasks reference, so its
         * joining destructor runs first; the tasks themselves capture plain
         * values (plus the caller-owned file) — never locals of this frame
         * that unwinding could destroy while workers still run. */
        ThreadPool pool( std::max<std::size_t>( 1, parallelism ) );
        const auto dispatch = [&pool, &file, startBit, chunkBits, chunkOutputCap] ( std::size_t index ) {
            return pool.submit( [&file, startBit, chunkBits, index, chunkOutputCap] () {
                return decodeChunkFromGuess( file, startBit + index * chunkBits,
                                             startBit + ( index + 1 ) * chunkBits,
                                             chunkOutputCap );
            } );
        };

        /* Bounded look-ahead: chunks are consumed strictly in order, so only
         * the in-flight batch is resident at once. */
        const auto batchLimit = std::max<std::size_t>( 2 * std::max<std::size_t>( 1, parallelism ), 4 );
        std::vector<std::future<ChunkResult> > inFlight;
        std::size_t nextToDispatch = 1;  /* chunk 0 decodes on this thread, exactly */
        const auto topUp = [&] () {
            while ( ( nextToDispatch < chunkCount ) && ( inFlight.size() < batchLimit ) ) {
                inFlight.push_back( dispatch( nextToDispatch++ ) );
            }
        };
        topUp();

        MemberResult member;
        std::uint32_t crc = 0;
        std::vector<std::uint8_t> window;
        std::vector<std::uint8_t> resolved;
        std::size_t expectedBit = startBit;
        bool reachedStreamEnd = false;

        for ( std::size_t index = 0; index < chunkCount; ++index ) {
            ++member.chunkCount;  /* chunks actually consumed, not the guess grid */
            ChunkResult chunk;
            bool speculativeAccepted = false;
            if ( index == 0 ) {
                chunk = decodeChunkAtOffset( file, startBit, guessBegin( 1 ), chunkOutputCap,
                                             { window.data(), window.size() } );
                if ( ( chunk.error == Error::EXCEEDED_OUTPUT_LIMIT ) ) {
                    chunk = decodeChunkAtOffset( file, startBit, guessBegin( 1 ),
                                                 std::numeric_limits<std::size_t>::max(),
                                                 { window.data(), window.size() } );
                }
                if ( chunk.error != Error::NONE ) {
                    throw InvalidGzipStreamError(
                        "Cannot decode the gzip stream from its start: "
                        + std::string( toString( chunk.error ) ) );
                }
            } else {
                chunk = inFlight.front().get();
                inFlight.erase( inFlight.begin() );
                topUp();
                /* A stored-block start is reported at its byte-aligned LEN
                 * field; the equivalent boundary for a header at expectedBit
                 * is 3 header bits plus padding later. (The unread padding
                 * carries no data; a wrong BFINAL assumption decodes wrong
                 * bytes that the caller's CRC verification rejects.) */
                const auto storedDataBit = ceilDiv<std::size_t>( expectedBit + 3, 8 ) * 8;
                const bool stitchMatches =
                    ( chunk.decodedStartBit == expectedBit )
                    || ( chunk.startedAtStoredBlock && ( chunk.decodedStartBit == storedDataBit ) );
                speculativeAccepted = ( chunk.error == Error::NONE ) && stitchMatches;
                if ( ( chunk.error != Error::NONE ) || !stitchMatches ) {
                    /* The finder was fooled, skipped an unfindable block, or
                     * the guess landed beyond the member: re-decode from the
                     * authoritative boundary with the propagated window. */
                    ++member.redecodedChunks;
                    RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_redecodes_total",
                                               "Speculative chunk decodes discarded for a sequential "
                                               "re-decode (finder miss, mis-stitch, or decode failure).", 1 );
                    chunk = decodeChunkAtOffset( file, expectedBit, guessBegin( index + 1 ),
                                                 std::numeric_limits<std::size_t>::max(),
                                                 { window.data(), window.size() } );
                    if ( chunk.error != Error::NONE ) {
                        throw InvalidGzipStreamError(
                            "Cannot decode the gzip stream at bit offset "
                            + std::to_string( expectedBit ) + ": "
                            + std::string( toString( chunk.error ) ) );
                    }
                }
            }

            /* Harvest the checkpoint before the window slides: `expectedBit`
             * is the authoritative boundary this chunk starts at (for an
             * accepted stored-block candidate the real block header at
             * expectedBit decodes identically — the unread padding carries
             * no data), and `window` is exactly the history a decode
             * resuming there needs. The chunk's surviving markers enable a
             * sparse window (see IndexBuilder). */
            if ( indexBuilder != nullptr ) {
                indexBuilder->addCheckpoint( expectedBit, member.uncompressedSize,
                                             { window.data(), window.size() },
                                             speculativeAccepted ? &chunk.data : nullptr );
            }

            /* Stage two: resolve markers against the propagated window. */
            {
                telemetry::Span stitchSpan{ "pipeline", "chunk.stitch" };
                resolved.clear();
                deflate::resolveInto( chunk.data, { window.data(), window.size() }, resolved );

                if ( !resolved.empty() ) {
                    crc = simd::crc32( crc, resolved.data(), resolved.size() );
                    member.uncompressedSize += resolved.size();
                    if ( collectOutput != nullptr ) {
                        collectOutput->insert( collectOutput->end(), resolved.begin(), resolved.end() );
                    }
                    slideWindow( window, { resolved.data(), resolved.size() } );
                }
            }

            expectedBit = chunk.decodedEndBit;
            const auto endedStream = chunk.reachedStreamEnd;
            /* The chunk's buffers are fully consumed (markers resolved,
             * checkpoint harvested): recycle them for the next decode. */
            deflate::DecodedDataPool::release( std::move( chunk.data ) );
            if ( endedStream ) {
                reachedStreamEnd = true;
                break;
            }
        }

        if ( !reachedStreamEnd ) {
            throw InvalidGzipStreamError(
                "Gzip stream ended before the final Deflate block — truncated file" );
        }
        member.crc32 = crc;
        member.footerStartByte = ceilDiv<std::size_t>( expectedBit, 8 );
        return member;
    }

private:
    /** Make @p window the last WINDOW_SIZE bytes of @p window ++ @p bytes. */
    static void
    slideWindow( std::vector<std::uint8_t>& window, BufferView bytes )
    {
        if ( bytes.size() >= deflate::WINDOW_SIZE ) {
            window.assign( bytes.end() - deflate::WINDOW_SIZE, bytes.end() );
            return;
        }
        const auto keep = std::min( window.size(), deflate::WINDOW_SIZE - bytes.size() );
        window.erase( window.begin(), window.end() - static_cast<std::ptrdiff_t>( keep ) );
        window.insert( window.end(), bytes.begin(), bytes.end() );
    }

    /**
     * The one decode loop behind decodeChunkFromCheckpoint() and
     * decompressSerially(): decode from the block boundary @p startBits,
     * with @p window as the history, to the first block boundary at or past
     * @p untilBits or the end of the stream. The compressed span is read
     * once, into the per-thread buffer, with an overshoot margin that widens
     * when a block runs past it. Every member in the span decodes from that
     * buffer: to its final block; its segment CRC and footer offset go into
     * memberEnds; the trailing-bytes rule runs on the buffered bytes; and the
     * next member starts on a fresh decoder with an empty window. Members
     * share the chunk's output, but each decodes into its own emptied buffer,
     * so a back-reference into the previous member's bytes is
     * EXCEEDED_WINDOW, zlib's "invalid distance too far back". A next member
     * that starts at or past @p untilBits ends the span there.
     */
    [[nodiscard]] static DecodedChunk
    decodeMembers( const FileReader& file,
                   std::size_t startBits,
                   std::size_t untilBits,
                   BufferView window )
    {
        constexpr auto TRUNCATED = "Gzip stream ended before the final Deflate block — truncated file";
        const auto fileSize = file.size();
        if ( startBits >= fileSize * 8 ) {
            throw TruncatedStreamError( TRUNCATED );
        }
        const auto endBits = std::clamp( untilBits, startBits, fileSize * 8 );

        static thread_local std::vector<std::uint8_t> buffer;
        auto decoded = deflate::DecodedDataPool::acquire();
        const auto expectedYield =
            std::min( ( std::max( endBits, startBits + 8 ) - startBits ) / 8 * EXPECTED_RATIO + 64 * KiB,
                      PRESIZE_CAP );

        auto margin = INITIAL_DECODE_OVERSHOOT;
        while ( true ) {
            const auto startByte = startBits / 8;
            const auto bufferEnd = std::min( fileSize, ceilDiv<std::size_t>( endBits, 8 ) + margin );
            buffer.resize( bufferEnd - startByte );
            preadExactly( file, buffer.data(), buffer.size(), startByte );
            const auto baseBit = startByte * 8;

            DecodedChunk result;
            auto memberStartBit = startBits;
            auto memberWindow = window;
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
                const auto status = [&] () {
                    telemetry::Span decodeSpan{ "pipeline", "chunk.decode" };
                    return decoder.decode( reader, decoded, endBits - baseBit );
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

                const auto before = result.data.size();
                std::uint32_t segmentCrc = 0;
                {
                    telemetry::Span stitchSpan{ "pipeline", "chunk.stitch" };
                    deflate::resolveInto( decoded, memberWindow, result.data );
                    segmentCrc = simd::crc32( 0, result.data.data() + before, result.data.size() - before );
                }
                result.endBitOffset = baseBit + status.endBitOffset;
                if ( !status.reachedFinalBlock ) {
                    result.trailingCrc32 = segmentCrc;
                    break;  /* stopped at the block boundary at or past untilBits */
                }

                const auto footerByte = ceilDiv<std::size_t>( result.endBitOffset, 8 );
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
