/**
 * Seed replay for a libFuzzer target without libFuzzer: feeds every file of
 * the directory given as the only argument to LLVMFuzzerTestOneInput once,
 * in name order. The target aborts on a finding, so a clean exit means the
 * whole corpus passed. This lets a GCC build run the committed corpus as a
 * unit test.
 *
 * Run: ./testFuzzDeflateReplay tests/fuzz/corpus/deflate
 *      ./testFuzzBlockfinderReplay tests/fuzz/corpus/blockfinder
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

extern "C" int
LLVMFuzzerTestOneInput( const std::uint8_t* data, std::size_t size );

int
main( int argc, char** argv )
{
    if ( argc != 2 ) {
        std::fprintf( stderr, "Usage: %s CORPUS_DIRECTORY\n", argv[0] );
        return 2;
    }
    std::vector<std::filesystem::path> files;
    for ( const auto& entry : std::filesystem::directory_iterator( argv[1] ) ) {
        if ( entry.is_regular_file() ) {
            files.push_back( entry.path() );
        }
    }
    std::sort( files.begin(), files.end() );
    if ( files.empty() ) {
        std::fprintf( stderr, "No corpus files in %s\n", argv[1] );
        return 1;
    }
    for ( const auto& path : files ) {
        std::ifstream file( path, std::ios::binary );
        const std::vector<std::uint8_t> input( ( std::istreambuf_iterator<char>( file ) ),
                                               std::istreambuf_iterator<char>() );
        LLVMFuzzerTestOneInput( input.data(), input.size() );
        std::printf( "  %s: %zu bytes\n", path.filename().c_str(), input.size() );
    }
    std::printf( "PASSED %s (%zu inputs)\n", std::filesystem::path( argv[0] ).filename().c_str(),
                 files.size() );
    return 0;
}
