#include "contact/spatial_hash.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "geometry/aabb.hpp"
#include "par/device_scan.hpp"
#include "par/parallel_for.hpp"
#include "par/radix_sort.hpp"
#include "par/scan.hpp"

namespace gdda::contact {

namespace {

/// Cells per chunk of the candidate-emission pass. Chunk boundaries are a
/// pure function of the cell count, so the concatenated emission sequence
/// is identical for every team size (including 1).
constexpr std::size_t kCellChunk = 128;

} // namespace

std::vector<BlockPair> broad_phase_spatial_hash(const block::BlockSystem& sys, double rho,
                                                double cell_size, SpatialHashStats* stats,
                                                simt::KernelCost* cost,
                                                std::vector<BlockPair>* raw_sequence) {
    const std::int32_t n = static_cast<std::int32_t>(sys.size());
    if (cell_size <= 0.0) cell_size = std::max(2.0 * sys.characteristic_length(), 1e-6);

    std::vector<geom::Aabb> boxes(static_cast<std::size_t>(n));
    par::parallel_for(static_cast<std::size_t>(n), par::kDefaultGrain, [&](std::size_t i) {
        boxes[i] = search_box(sys.blocks[i].bounds(), rho);
    });

    auto cell_key = [](std::int64_t cx, std::int64_t cy) {
        return (static_cast<std::uint64_t>(cx) << 32) ^
               (static_cast<std::uint64_t>(cy) & 0xffffffffu);
    };

    // Deterministic grid build, mirroring the GPU kernel shape: count the
    // cells each block's box overlaps, prefix-sum the counts into scatter
    // offsets, write (cell, block) entries block-major, then group cell
    // members with a stable sort. Stability keeps the ascending-block order
    // inside each cell that the serial unordered_map build produced by
    // insertion, so the per-cell member sequence is team-size independent.
    struct CellRange {
        std::int64_t x0, x1, y0, y1;
    };
    std::vector<CellRange> range(static_cast<std::size_t>(n));
    std::vector<std::uint32_t> counts(static_cast<std::size_t>(n));
    par::parallel_for(static_cast<std::size_t>(n), par::kDefaultGrain, [&](std::size_t i) {
        const geom::Aabb& b = boxes[i];
        CellRange r;
        r.x0 = static_cast<std::int64_t>(std::floor(b.lo.x / cell_size));
        r.x1 = static_cast<std::int64_t>(std::floor(b.hi.x / cell_size));
        r.y0 = static_cast<std::int64_t>(std::floor(b.lo.y / cell_size));
        r.y1 = static_cast<std::int64_t>(std::floor(b.hi.y / cell_size));
        range[i] = r;
        counts[i] = static_cast<std::uint32_t>((r.x1 - r.x0 + 1) * (r.y1 - r.y0 + 1));
    });
    std::vector<std::uint32_t> offsets(static_cast<std::size_t>(n));
    const std::uint64_t insertions = par::device_exclusive_scan(counts, offsets, cost);

    std::vector<std::uint64_t> entry_keys(insertions);
    std::vector<std::uint32_t> entry_owner(insertions);
    par::parallel_for(static_cast<std::size_t>(n), 64, [&](std::size_t i) {
        std::uint32_t at = offsets[i];
        const CellRange& r = range[i];
        for (std::int64_t cx = r.x0; cx <= r.x1; ++cx)
            for (std::int64_t cy = r.y0; cy <= r.y1; ++cy) {
                entry_keys[at] = cell_key(cx, cy);
                entry_owner[at] = static_cast<std::uint32_t>(i);
                ++at;
            }
    });
    par::radix_sort_pairs(entry_keys, entry_owner);
    const std::vector<std::uint32_t> ends = par::segment_ends(par::segment_heads(entry_keys));
    const std::size_t cells = ends.size();

    // Candidate emission over cells, chunked: each chunk enumerates its
    // cells' pairs into a private buffer; the buffers concatenate in chunk
    // order. Cells are visited in ascending cell-key order (the sort above),
    // a pure function of the geometry. Duplicates from multi-cell overlap
    // are removed by the final sort+unique, exactly as in the serial build.
    const std::size_t chunks = (cells + kCellChunk - 1) / kCellChunk;
    std::vector<std::vector<BlockPair>> chunk_pairs(chunks);
    std::vector<std::size_t> chunk_examined(chunks, 0);
    par::parallel_for(chunks, 1, [&](std::size_t c) {
        std::vector<BlockPair>& out = chunk_pairs[c];
        std::size_t examined = 0;
        const std::size_t s1 = std::min(cells, (c + 1) * kCellChunk);
        for (std::size_t s = c * kCellChunk; s < s1; ++s) {
            const std::uint32_t begin = s == 0 ? 0u : ends[s - 1];
            const std::uint32_t end = ends[s];
            for (std::uint32_t a = begin; a < end; ++a)
                for (std::uint32_t b = a + 1; b < end; ++b) {
                    ++examined;
                    const std::int32_t i = static_cast<std::int32_t>(
                        std::min(entry_owner[a], entry_owner[b]));
                    const std::int32_t j = static_cast<std::int32_t>(
                        std::max(entry_owner[a], entry_owner[b]));
                    if (sys.blocks[i].fixed && sys.blocks[j].fixed) continue;
                    if (boxes[i].overlaps(boxes[j])) out.push_back({i, j});
                }
        }
        chunk_examined[c] = examined;
    });

    std::size_t candidates = 0;
    std::size_t emitted = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
        candidates += chunk_examined[c];
        emitted += chunk_pairs[c].size();
    }
    std::vector<BlockPair> pairs;
    pairs.reserve(emitted);
    for (std::size_t c = 0; c < chunks; ++c)
        pairs.insert(pairs.end(), chunk_pairs[c].begin(), chunk_pairs[c].end());

    if (raw_sequence) *raw_sequence = pairs;

    std::sort(pairs.begin(), pairs.end(), [](BlockPair x, BlockPair y) {
        return std::pair{x.a, x.b} < std::pair{y.a, y.b};
    });
    pairs.erase(std::unique(pairs.begin(), pairs.end(),
                            [](BlockPair x, BlockPair y) {
                                return x.a == y.a && x.b == y.b;
                            }),
                pairs.end());

    if (stats) {
        stats->cells_touched = insertions;
        stats->candidate_pairs = candidates;
    }
    if (cost) {
        simt::KernelCost kc;
        kc.name = "broad_phase_spatial_hash";
        const double ins = static_cast<double>(insertions);
        const double cand = static_cast<double>(candidates);
        kc.flops = ins * 10.0 + cand * 8.0;
        // Build phase: hash + scattered bucket writes; query: bucket walks.
        kc.bytes_coalesced = n * 4.0 * sizeof(double) + ins * sizeof(std::int32_t);
        kc.bytes_random = ins * 2.0 * sizeof(std::int32_t) + cand * sizeof(std::int32_t);
        kc.bytes_texture = cand * 4.0 * sizeof(double);
        // Grid build is a sort-like multi-kernel precondition (the cost the
        // paper's simpler mapping avoids).
        kc.depth = 60;
        kc.launches = 6;
        kc.branch_slots = cand / 8.0;
        kc.divergent_slots = 0.25 * kc.branch_slots; // ragged buckets
        simt::record_kernel(cost, kc);
    }
    return pairs;
}

} // namespace gdda::contact
