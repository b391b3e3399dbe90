#pragma once
// Deterministic parallel reductions. Floating-point addition is not
// associative, so a reduction whose grouping depends on the thread count
// (omp reduction, atomics) returns different low-order bits from run to run.
// This header fixes the grouping instead: the index space is cut into
// fixed-size chunks (a pure function of n, NEVER of the thread count), each
// chunk is summed serially left-to-right, and the chunk partials are folded
// by an ordered pairwise combine tree — the same shape a CUDA shared-memory
// tree reduction uses. Any team size, including 1, produces bit-identical
// doubles, which is what lets the solver hot path go wide without breaking
// the repo's bitwise-determinism contract.
//
// For inputs that fit one chunk the result degenerates to the plain serial
// left-to-right sum, i.e. small systems are bit-identical to the historic
// scalar code path.

#include <cstddef>
#include <vector>

#include "par/parallel_for.hpp"

namespace gdda::par {

/// Fixed chunk width (in reduced items) for every deterministic reduction in
/// the code base. One constant everywhere so fused kernels (pcg.cpp) produce
/// the same partials as their unfused counterparts (sparse::dot).
inline constexpr std::size_t kReduceChunk = 1024;

/// Fold `m` partials with an ordered pairwise tree: adjacent pairs combine
/// first, odd tails carry over, repeat. The association depends only on `m`.
/// Destroys the prefix of `partials` as scratch.
inline double combine_ordered(double* partials, std::size_t m) {
    if (m == 0) return 0.0;
    while (m > 1) {
        const std::size_t half = m / 2;
        for (std::size_t i = 0; i < half; ++i)
            partials[i] = partials[2 * i] + partials[2 * i + 1];
        if (m & 1) {
            partials[half] = partials[m - 1];
            m = half + 1;
        } else {
            m = half;
        }
    }
    return partials[0];
}

/// Deterministic sum over `n` items. `chunk_sum(begin, end)` must return the
/// serial left-to-right sum of items [begin, end) — it may also apply an
/// element-wise side effect (fused kernels), as long as distinct chunks
/// touch disjoint data. Chunks run under parallel_for (team width from the
/// thread budget); the combine tree runs on the calling thread.
template <typename ChunkSum>
double deterministic_reduce(std::size_t n, ChunkSum&& chunk_sum) {
    if (n <= kReduceChunk) return chunk_sum(std::size_t{0}, n);
    const std::size_t chunks = (n + kReduceChunk - 1) / kReduceChunk;
    std::vector<double> partials(chunks);
    parallel_for(chunks, /*grain=*/1, [&](std::size_t c) {
        const std::size_t b = c * kReduceChunk;
        const std::size_t e = b + kReduceChunk < n ? b + kReduceChunk : n;
        partials[c] = chunk_sum(b, e);
    });
    return combine_ordered(partials.data(), chunks);
}

/// Parallel reduction for operators whose result does not depend on the
/// grouping: integer sums, and max/min folds that start from a fixed value
/// (std::max keeps its left operand on ties and NaN, so such a fold returns
/// the same bits in any grouping). Chunks of kReduceChunk items run under
/// parallel_for; `chunk_fold(begin, end)` returns the fold of one chunk and
/// `combine` merges the partials left to right on the calling thread.
template <typename T, typename ChunkFold, typename Combine>
T exact_reduce(std::size_t n, ChunkFold&& chunk_fold, Combine&& combine) {
    if (n <= kReduceChunk) return chunk_fold(std::size_t{0}, n);
    const std::size_t chunks = (n + kReduceChunk - 1) / kReduceChunk;
    std::vector<T> partials(chunks);
    parallel_for(chunks, /*grain=*/1, [&](std::size_t c) {
        const std::size_t b = c * kReduceChunk;
        const std::size_t e = b + kReduceChunk < n ? b + kReduceChunk : n;
        partials[c] = chunk_fold(b, e);
    });
    T acc = partials[0];
    for (std::size_t c = 1; c < chunks; ++c) acc = combine(acc, partials[c]);
    return acc;
}

} // namespace gdda::par
