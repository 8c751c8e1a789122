#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../core/ParallelGzipReader.hpp"
#include "../io/FileReader.hpp"
#include "Bzip2Decompressor.hpp"
#include "Decompressor.hpp"
#include "Format.hpp"
#include "Lz4Decompressor.hpp"
#include "ZstdDecompressor.hpp"

namespace rapidgzip::formats {

/**
 * gzip backend of the dispatch layer: ParallelGzipReader (two-stage marker
 * pipeline, full-flush chunking, BGZF BC scan — whichever the stream
 * offers) behind the Decompressor interface. Seek points come from the
 * reader's index, which the first sweep leaves behind for arbitrary gzip.
 */
class GzipDecompressor final : public Decompressor
{
public:
    explicit GzipDecompressor( std::unique_ptr<FileReader> file,
                               ChunkFetcherConfiguration configuration = {} ) :
        m_reader( std::move( file ), configuration )
    {}

    [[nodiscard]] Format
    format() const noexcept override
    {
        return Format::GZIP;
    }

    [[nodiscard]] bool
    parallelizable() const noexcept override
    {
        return true;
    }

    std::size_t
    decompress( const Sink& sink ) override
    {
        /* The sink overload runs the footer-verified sweep BEFORE streaming
         * (the serial walk, the authority, answers what no pass verifies),
         * so a member whose Deflate stream decodes structurally but to wrong
         * bytes throws instead of streaming garbage. */
        return m_reader.decompressAll( sink );
    }

    using Decompressor::size;

    [[nodiscard]] std::optional<std::size_t>
    size( Wait wait ) override
    {
        return m_reader.size( wait );
    }

    [[nodiscard]] std::size_t
    readAt( std::size_t uncompressedOffset, std::uint8_t* buffer, std::size_t size ) override
    {
        return m_reader.readAt( uncompressedOffset, buffer, size );
    }

    [[nodiscard]] std::size_t
    readSpansAt( std::size_t uncompressedOffset,
                 std::size_t size,
                 std::vector<OwnedSpan>& spans,
                 Wait wait = Wait::ALLOWED ) override
    {
        return m_reader.readSpansAt( uncompressedOffset, size, spans, wait );
    }

    [[nodiscard]] std::vector<index::Checkpoint>
    seekPoints() override
    {
        return m_reader.exportIndex().checkpoints;
    }

    [[nodiscard]] ParallelGzipReader&
    reader() noexcept
    {
        return m_reader;
    }

private:
    ParallelGzipReader m_reader;
};

/**
 * Probe @p file's magic bytes and construct the matching backend. Backends
 * whose vendor library is missing from the build throw
 * UnsupportedDataError — callers distinguish "format recognized but not
 * built" from "format unknown" (RapidgzipError).
 */
[[nodiscard]] inline std::unique_ptr<Decompressor>
makeDecompressor( std::unique_ptr<FileReader> file,
                  ChunkFetcherConfiguration configuration = {} )
{
    const auto format = detectFormat( *file );
    switch ( format ) {
    case Format::GZIP:
        return std::make_unique<GzipDecompressor>( std::move( file ), configuration );

    case Format::ZSTD:
#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )
        return std::make_unique<ZstdDecompressor>( std::move( file ), configuration );
#else
        throw UnsupportedDataError( "zstd input detected but libzstd is not available" );
#endif

    case Format::LZ4:
        return std::make_unique<Lz4Decompressor>( std::move( file ), configuration );

    case Format::BZIP2:
#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )
        return std::make_unique<Bzip2Decompressor>( std::move( file ), configuration );
#else
        throw UnsupportedDataError( "bzip2 input detected but libbz2 is not available" );
#endif

    case Format::UNKNOWN:
        break;
    }
    throw RapidgzipError( "Unrecognized compression format (no known magic bytes)" );
}

}  // namespace rapidgzip::formats
