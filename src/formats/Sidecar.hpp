#pragma once

#include <sys/stat.h>

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

/** Serialize @p decompressor's index next to the archive; it records the
 * size of the file the decompressor indexed. May cost the discovery sweep.
 * Throws on I/O failure; the write goes through a temp file + rename so a
 * crashed writer never leaves a torn sidecar for the freshness check to
 * trust. */
inline void
writeSidecarIndex( Decompressor& decompressor, const std::string& archivePath )
{
    const auto data = index::serializeIndex( decompressor.exportIndex() );

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
 * Adopt `<archive>.rgzidx` into @p decompressor when present and fresh
 * (sidecar mtime >= archive mtime) and when Decompressor::importIndex takes
 * it, which checks the format tag, the compressed size and the
 * checkpoints. Returns true on adoption; every failure mode returns false
 * and leaves the reader untouched.
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
    try {
        decompressor.importIndex( index::deserializeIndex( StandardFileReader( sidecarPath ) ) );
    } catch ( const RapidgzipError& ) {
        return false;  /* stale, corrupt or foreign sidecar: discovery still answers */
    }
    return true;
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
