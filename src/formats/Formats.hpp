#pragma once

#include <memory>
#include <utility>

#include "../common/Error.hpp"
#include "../core/ParallelGzipReader.hpp"
#include "../io/FileReader.hpp"
#include "Bzip2Decompressor.hpp"
#include "Decompressor.hpp"
#include "Format.hpp"
#include "Lz4Decompressor.hpp"
#include "ZstdDecompressor.hpp"

namespace rapidgzip::formats {

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
        return std::make_unique<ParallelGzipReader>( std::move( file ), configuration );

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
