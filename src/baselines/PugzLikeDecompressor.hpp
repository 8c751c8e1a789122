#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../core/GzipChunkFetcher.hpp"
#include "../gzip/GzipHeader.hpp"
#include "../io/SharedFileReader.hpp"

namespace rapidgzip {

/**
 * Emulation of pugz's synchronous parallel decompression pipeline, the
 * baseline in paper Figs. 9/11/12:
 *
 *  - chunks are decoded by worker threads, through the same checkpoint
 *    decode as ParallelGzipReader's restart-point chunks, but the output
 *    stage is strictly serial and in-order — workers hand over to a
 *    synchronous validator, so the pipeline stalls on the slowest chunk (the
 *    paper's explanation for pugz saturating around 1.2-1.4 GB/s);
 *  - like pugz, only printable-ASCII text (bytes 9..126) is supported; any
 *    other byte aborts decompression (UnsupportedDataError), which is why
 *    this tool has no Fig. 10 (Silesia) row in the paper.
 */
class PugzLikeDecompressor
{
public:
    struct Options
    {
        std::size_t threadCount{ 1 };
        bool enforceAsciiRange{ true };
        std::size_t chunkSizeBytes{ 4 * MiB };
    };

    static constexpr std::uint8_t SUPPORTED_BYTE_MIN = 9;    /* '\t' */
    static constexpr std::uint8_t SUPPORTED_BYTE_MAX = 126;  /* '~' */

    explicit PugzLikeDecompressor( std::unique_ptr<FileReader> fileReader ) :
        PugzLikeDecompressor( std::move( fileReader ), Options() )
    {}

    PugzLikeDecompressor( std::unique_ptr<FileReader> fileReader,
                          Options options ) :
        m_file( ensureSharedFileReader( std::move( fileReader ) ) ),
        m_options( options )
    {
        if ( m_options.threadCount == 0 ) {
            m_options.threadCount = 1;
        }
    }

    /** Decompress the whole stream; returns the uncompressed byte count. */
    [[nodiscard]] std::size_t
    decompressAllSize()
    {
        const auto starts = discoverRestartPoints( *m_file, m_options.chunkSizeBytes );

        /* Sliding window of at most threadCount in-flight decodes; results
         * are consumed strictly in order through the serial output stage. */
        const std::shared_ptr<const FileReader> file( m_file->clone().release() );
        std::deque<std::future<DecodedChunk> > inFlight;
        std::size_t nextToDispatch = 0;
        std::size_t total = 0;

        const auto dispatch = [&] () {
            while ( ( nextToDispatch < starts.size() )
                    && ( inFlight.size() < m_options.threadCount ) ) {
                const auto beginBits = starts[nextToDispatch++] * 8;
                const auto untilBits = nextToDispatch < starts.size()
                                       ? starts[nextToDispatch] * 8
                                       : std::numeric_limits<std::size_t>::max();
                inFlight.push_back( std::async( std::launch::async, [file, beginBits, untilBits] () {
                    return GzipChunkFetcher::decodeChunkFromCheckpoint( *file, beginBits, untilBits, {} );
                } ) );
            }
        };

        dispatch();
        bool lastChunkEndedStream = false;
        while ( !inFlight.empty() ) {
            const auto chunk = inFlight.front().get();
            inFlight.pop_front();
            dispatch();

            /* The synchronous output stage: in-order validation. */
            if ( m_options.enforceAsciiRange ) {
                validateAsciiRange( chunk.data, total );
            }
            total += chunk.data.size();
            lastChunkEndedStream = chunk.reachedStreamEnd;
        }
        if ( !lastChunkEndedStream ) {
            throw InvalidGzipStreamError(
                "Gzip stream ended before the final Deflate block — truncated file" );
        }
        return total;
    }

private:
    static void
    validateAsciiRange( const std::vector<std::uint8_t>& data, std::size_t streamOffset )
    {
        for ( std::size_t i = 0; i < data.size(); ++i ) {
            const auto byte = data[i];
            if ( ( byte < SUPPORTED_BYTE_MIN ) || ( byte > SUPPORTED_BYTE_MAX ) ) {
                throw UnsupportedDataError(
                    "pugz-like decoder supports only ASCII bytes in [9, 126]; got byte "
                    + std::to_string( static_cast<unsigned>( byte ) ) + " at offset "
                    + std::to_string( streamOffset + i ) );
            }
        }
    }

    std::unique_ptr<SharedFileReader> m_file;
    Options m_options;
};

}  // namespace rapidgzip
