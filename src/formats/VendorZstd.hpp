#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"

#if defined( RAPIDGZIP_HAVE_VENDOR_ZSTD )

/*
 * Minimal stable-ABI declarations for libzstd. Container images commonly
 * ship only the runtime libzstd.so.1 (no zstd.h, no dev symlink), so the
 * build links the .so.1 directly and this header declares precisely the
 * documented stable C entry points it uses — simple pointer/size
 * signatures plus the two public streaming buffer structs, whose layout is
 * part of the stable API. Nothing from the experimental/static-only ABI is
 * touched.
 */
extern "C" {

size_t ZSTD_compress( void* dst, size_t dstCapacity,
                      const void* src, size_t srcSize, int compressionLevel );
size_t ZSTD_decompress( void* dst, size_t dstCapacity, const void* src, size_t srcSize );

typedef struct ZSTD_CCtx_s ZSTD_CCtx;
ZSTD_CCtx* ZSTD_createCCtx( void );
size_t ZSTD_freeCCtx( ZSTD_CCtx* cctx );
/* ZSTD_cParameter is an enum, passed as int here; the two values used are
 * frozen by the stable API. */
size_t ZSTD_CCtx_setParameter( ZSTD_CCtx* cctx, int param, int value );
size_t ZSTD_compress2( ZSTD_CCtx* cctx, void* dst, size_t dstCapacity,
                       const void* src, size_t srcSize );
size_t ZSTD_compressBound( size_t srcSize );
unsigned ZSTD_isError( size_t code );
const char* ZSTD_getErrorName( size_t code );
unsigned long long ZSTD_getFrameContentSize( const void* src, size_t srcSize );

typedef struct ZSTD_DCtx_s ZSTD_DCtx;
ZSTD_DCtx* ZSTD_createDCtx( void );
size_t ZSTD_freeDCtx( ZSTD_DCtx* dctx );

typedef struct { const void* src; size_t size; size_t pos; } ZSTD_inBuffer;
typedef struct { void* dst; size_t size; size_t pos; } ZSTD_outBuffer;
/** ZSTD_DStream is a typedef of ZSTD_DCtx in the stable API. */
size_t ZSTD_decompressStream( ZSTD_DCtx* zds, ZSTD_outBuffer* output, ZSTD_inBuffer* input );

}  /* extern "C" */

namespace rapidgzip::formats {

inline constexpr bool HAVE_VENDOR_ZSTD = true;

/** ZSTD_getFrameContentSize sentinels (stable API). */
inline constexpr unsigned long long ZSTD_SENTINEL_CONTENTSIZE_UNKNOWN =
    ~0ULL;          /* (unsigned long long)-1 */
inline constexpr unsigned long long ZSTD_SENTINEL_CONTENTSIZE_ERROR =
    ~0ULL - 1ULL;   /* (unsigned long long)-2 */

/** Stable-API parameter ids (frozen values from zstd.h). */
inline constexpr int ZSTD_PARAM_COMPRESSION_LEVEL = 100;  /* ZSTD_c_compressionLevel */
inline constexpr int ZSTD_PARAM_CHECKSUM_FLAG = 201;      /* ZSTD_c_checksumFlag */

/** One frame, WITH the XXH64 content checksum enabled so that corruption
 * of a frame is detected by the vendor decoder itself — the property the
 * negative tests pin down (plain ZSTD_compress writes no checksum). */
[[nodiscard]] inline std::vector<std::uint8_t>
vendorZstdCompress( BufferView data, int level = 3 )
{
    struct CCtxOwner
    {
        ZSTD_CCtx* context{ ZSTD_createCCtx() };
        ~CCtxOwner() { ZSTD_freeCCtx( context ); }
    } cctx;
    if ( cctx.context == nullptr ) {
        throw RapidgzipError( "ZSTD_createCCtx failed" );
    }
    if ( ( ZSTD_isError( ZSTD_CCtx_setParameter( cctx.context, ZSTD_PARAM_COMPRESSION_LEVEL,
                                                 level ) ) != 0 )
         || ( ZSTD_isError( ZSTD_CCtx_setParameter( cctx.context, ZSTD_PARAM_CHECKSUM_FLAG,
                                                    1 ) ) != 0 ) ) {
        throw RapidgzipError( "ZSTD_CCtx_setParameter failed" );
    }
    std::vector<std::uint8_t> result( ZSTD_compressBound( data.size() ) );
    const auto written = ZSTD_compress2( cctx.context, result.data(), result.size(),
                                         data.data(), data.size() );
    if ( ZSTD_isError( written ) != 0 ) {
        throw RapidgzipError( std::string( "ZSTD_compress2 failed: " )
                              + ZSTD_getErrorName( written ) );
    }
    result.resize( written );
    return result;
}

/** One-shot decompression of a single frame whose content size is known. */
[[nodiscard]] inline std::size_t
vendorZstdDecompressFrame( BufferView frame, std::uint8_t* dst, std::size_t dstCapacity )
{
    const auto written = ZSTD_decompress( dst, dstCapacity, frame.data(), frame.size() );
    if ( ZSTD_isError( written ) != 0 ) {
        throw RapidgzipError( std::string( "ZSTD_decompress failed: " )
                              + ZSTD_getErrorName( written ) );
    }
    return written;
}

/**
 * Streaming decompression of a whole buffer of concatenated (and/or
 * skippable) frames — the vendor ORACLE for the differential tests, and
 * the whole-stream unit of a stream whose frames lack a content size.
 */
[[nodiscard]] inline std::vector<std::uint8_t>
vendorZstdDecompressAll( BufferView compressed )
{
    struct DCtxOwner
    {
        ZSTD_DCtx* context{ ZSTD_createDCtx() };
        ~DCtxOwner() { ZSTD_freeDCtx( context ); }
    } dctx;
    if ( dctx.context == nullptr ) {
        throw RapidgzipError( "ZSTD_createDCtx failed" );
    }

    std::vector<std::uint8_t> result;
    std::vector<std::uint8_t> chunk( 1 * MiB );
    ZSTD_inBuffer input{ compressed.data(), compressed.size(), 0 };
    std::size_t lastCode = 0;
    while ( input.pos < input.size ) {
        const auto inputBefore = input.pos;
        ZSTD_outBuffer output{ chunk.data(), chunk.size(), 0 };
        lastCode = ZSTD_decompressStream( dctx.context, &output, &input );
        if ( ZSTD_isError( lastCode ) != 0 ) {
            throw RapidgzipError( std::string( "ZSTD_decompressStream failed: " )
                                  + ZSTD_getErrorName( lastCode ) );
        }
        result.insert( result.end(), chunk.begin(),
                       chunk.begin() + static_cast<std::ptrdiff_t>( output.pos ) );
        if ( ( output.pos == 0 ) && ( input.pos == inputBefore ) ) {
            throw RapidgzipError( "zstd stream makes no progress — corrupt input" );
        }
    }
    /* A nonzero return with the input exhausted means the final frame is
     * incomplete (lastCode hints at the bytes still expected). */
    if ( lastCode != 0 ) {
        throw RapidgzipError( "Truncated zstd stream" );
    }
    return result;
}

}  // namespace rapidgzip::formats

#else  /* !RAPIDGZIP_HAVE_VENDOR_ZSTD */

namespace rapidgzip::formats {

inline constexpr bool HAVE_VENDOR_ZSTD = false;

}  // namespace rapidgzip::formats

#endif
