#pragma once

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../index/IndexSerializer.hpp"
#include "../io/StandardFileReader.hpp"
#include "Decompressor.hpp"
#include "Formats.hpp"

namespace rapidgzip::formats {

/**
 * Sidecar index convention: `<archive>.rgzidx` next to the archive holds
 * the RGZIDX02 index a previous open left behind, so repeat opens adopt
 * it instead of re-running discovery — the two-stage sweep for arbitrary
 * gzip, the measuring decode sweep for unsized lz4/bzip2. Freshness is
 * judged by mtime (sidecar no older than the archive) plus the index's
 * own recorded compressed size and format tag; anything stale, corrupt,
 * or mismatched silently falls back to normal discovery — a sidecar can
 * make an open faster, never wrong.
 */

[[nodiscard]] inline std::string
sidecarPathFor( const std::string& archivePath )
{
    return archivePath + ".rgzidx";
}

/**
 * Build the exportable index for any backend. Gzip exports its own full
 * index (bit-granular checkpoints WITH compressed windows); frame-based
 * backends record their chunk seek points, which is all their resumption
 * needs (frames are self-contained — no windows). May cost the backend's
 * discovery sweep if it has not run yet.
 */
[[nodiscard]] inline GzipIndex
buildArchiveIndex( Decompressor& decompressor, std::size_t compressedSizeBytes )
{
    if ( auto* gzip = dynamic_cast<GzipDecompressor*>( &decompressor ) ) {
        auto index = gzip->reader().exportIndex();
        index.uncompressedSizeBytes = gzip->size();
        return index;
    }
    GzipIndex index;
    index.formatTag = static_cast<std::uint8_t>( decompressor.format() );
    index.compressedSizeBytes = compressedSizeBytes;
    index.uncompressedSizeBytes = decompressor.size();
    index.checkpoints = decompressor.seekPoints();
    return index;
}

/** Serialize @p decompressor's index next to the archive. Throws on I/O
 * failure; the write goes through a temp file + rename so a crashed writer
 * never leaves a torn sidecar for the freshness check to trust. */
inline void
writeSidecarIndex( Decompressor& decompressor, const std::string& archivePath )
{
    struct stat archiveStat{};
    const auto compressedSize = ::stat( archivePath.c_str(), &archiveStat ) == 0
                                ? static_cast<std::size_t>( archiveStat.st_size )
                                : std::size_t( 0 );
    const auto data = index::serializeIndex( buildArchiveIndex( decompressor, compressedSize ) );

    const auto finalPath = sidecarPathFor( archivePath );
    const auto tempPath = finalPath + ".tmp";
    std::FILE* file = std::fopen( tempPath.c_str(), "wb" );
    if ( file == nullptr ) {
        throw FileIoError( "Failed to open '" + tempPath + "' for writing" );
    }
    const auto written = std::fwrite( data.data(), 1, data.size(), file );
    const auto closeFailed = std::fclose( file ) != 0;
    if ( ( written != data.size() ) || closeFailed ) {
        std::remove( tempPath.c_str() );
        throw FileIoError( "Failed to write sidecar index '" + tempPath + "'" );
    }
    if ( std::rename( tempPath.c_str(), finalPath.c_str() ) != 0 ) {
        std::remove( tempPath.c_str() );
        throw FileIoError( "Failed to move sidecar index into place at '" + finalPath + "'" );
    }
}

/**
 * Adopt `<archive>.rgzidx` into @p decompressor when present and fresh:
 * sidecar mtime >= archive mtime, recorded compressed size matches the
 * file, format tag matches the detected backend. Returns true on adoption;
 * every failure mode returns false and leaves the reader untouched.
 */
[[nodiscard]] inline bool
trySidecarAdoption( Decompressor& decompressor, const std::string& archivePath )
{
    struct stat archiveStat{};
    struct stat sidecarStat{};
    const auto sidecarPath = sidecarPathFor( archivePath );
    if ( ( ::stat( archivePath.c_str(), &archiveStat ) != 0 )
         || ( ::stat( sidecarPath.c_str(), &sidecarStat ) != 0 )
         || ( sidecarStat.st_mtime < archiveStat.st_mtime ) ) {
        return false;
    }

    GzipIndex index;
    try {
        StandardFileReader file( sidecarPath );
        index = index::deserializeIndex( file );
    } catch ( const RapidgzipError& ) {
        return false;  /* corrupt/foreign sidecar: discovery still answers */
    }

    if ( ( index.formatTag != static_cast<std::uint8_t>( decompressor.format() ) )
         || ( index.compressedSizeBytes != static_cast<std::size_t>( archiveStat.st_size ) ) ) {
        return false;
    }

    if ( auto* gzip = dynamic_cast<GzipDecompressor*>( &decompressor ) ) {
        try {
            gzip->reader().importIndex( index );
        } catch ( const RapidgzipError& ) {
            return false;
        }
        return true;
    }

    return decompressor.importSeekPoints( index.checkpoints, index.uncompressedSizeBytes );
}

/**
 * Path-based open: detect the format, construct the backend, and adopt a
 * fresh sidecar index when one exists. The one entry point the serve
 * daemon (and any repeat-open caller) should use.
 */
[[nodiscard]] inline std::unique_ptr<Decompressor>
openArchive( const std::string& archivePath,
             const ChunkFetcherConfiguration& configuration = {},
             bool adoptSidecar = true )
{
    auto decompressor = makeDecompressor( std::make_unique<StandardFileReader>( archivePath ),
                                          configuration );
    if ( adoptSidecar ) {
        (void)trySidecarAdoption( *decompressor, archivePath );
    }
    return decompressor;
}

}  // namespace rapidgzip::formats
