#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "../common/Util.hpp"
#include "../deflate/DecodedData.hpp"
#include "../deflate/definitions.hpp"
#include "GzipIndex.hpp"

namespace rapidgzip::index {

/**
 * Harvests checkpoints and windows from the passes that consume a gzip
 * stream in order: a reader's pass over the rows its
 * GzipChunkFetcher::Stitcher checks (restart points and guessed rows) and
 * the serial walk already visit every chunk boundary with the exact bit
 * offset, the absolute uncompressed offset and the propagated 32 KiB window
 * in hand, so index construction is a byproduct of the first decompression
 * rather than a second pass — the property the paper's "first read builds
 * the index" workflow depends on. Every chunk boundary becomes a checkpoint,
 * so the chunk size sets the spacing. A row that decoded exactly from a
 * restart point needs no window, so it is harvested without one.
 *
 * Sparse windows: when the accepted chunk decode was the speculative marker
 * decode AND the chunk produced at least a full window of output, the
 * chunk's surviving markers name exactly the window bytes any decode
 * starting at this checkpoint can ever reference (same bits, same
 * back-references; past 32 KiB of output the window is out of reach), and
 * the chunk's first window of symbols holds all of them
 * (referencedWindowOffsets()). Only then is the window stored sparsely — a
 * re-decoded (plain) chunk leaves no marker trace, and a short chunk lets
 * later input reach this window, so both keep the full window.
 */
class IndexBuilder
{
public:
    /**
     * Record the chunk boundary at absolute @p compressedOffsetBits whose
     * decode starts at uncompressed offset @p uncompressedOffset with
     * @p window as preceding history. @p markedData is the chunk's stage-one
     * output when the speculative decode was accepted (for sparse windows),
     * nullptr otherwise.
     */
    void
    addCheckpoint( std::size_t compressedOffsetBits,
                   std::size_t uncompressedOffset,
                   BufferView window,
                   const deflate::DecodedData* markedData = nullptr )
    {
        if ( !m_index.checkpoints.empty()
             && ( compressedOffsetBits <= m_index.checkpoints.back().compressedOffsetBits ) ) {
            return;  /* zero-block chunk: boundary did not advance */
        }

        m_index.checkpoints.push_back( { compressedOffsetBits, uncompressedOffset } );
        if ( window.empty() ) {
            return;
        }
        if ( ( markedData != nullptr ) && !markedData->marked.empty()
             && ( markedData->totalSize() >= deflate::WINDOW_SIZE ) ) {
            m_index.windows.insertSparse( compressedOffsetBits, window,
                                          referencedWindowOffsets( *markedData ) );
        } else {
            m_index.windows.insert( compressedOffsetBits, window );
        }
    }

    /** Finalize: stamp the stream sizes and move the index out. */
    [[nodiscard]] GzipIndex
    build( std::size_t compressedSizeBytes, std::size_t uncompressedSizeBytes )
    {
        m_index.compressedSizeBytes = compressedSizeBytes;
        m_index.uncompressedSizeBytes = uncompressedSizeBytes;
        return std::move( m_index );
    }

    /**
     * Which full-window offsets (0 = oldest byte) @p data's markers
     * reference. One window of symbols holds every marker value: a marker
     * is created only where a match reaches before the row, distance >
     * position, and a distance is at most WINDOW_SIZE, so position <
     * WINDOW_SIZE; every later marker copies an earlier one. So only the
     * first min( marked.size(), WINDOW_SIZE ) symbols are scanned.
     */
    [[nodiscard]] static std::vector<bool>
    referencedWindowOffsets( const deflate::DecodedData& data )
    {
        std::vector<bool> referenced( deflate::WINDOW_SIZE, false );
        const auto scanned = std::min( data.marked.size(), deflate::WINDOW_SIZE );
        for ( std::size_t i = 0; i < scanned; ++i ) {
            const auto symbol = data.marked[i];
            if ( symbol >= deflate::MARKER_BASE ) {
                referenced[symbol - deflate::MARKER_BASE] = true;
            }
        }
        return referenced;
    }

private:
    GzipIndex m_index;
};

}  // namespace rapidgzip::index
