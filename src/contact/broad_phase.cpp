#include "contact/broad_phase.hpp"

#include <algorithm>

#include "contact/spatial_hash.hpp"
#include "geometry/aabb.hpp"
#include "par/parallel_for.hpp"

namespace gdda::contact {

namespace {

std::vector<geom::Aabb> inflated_bounds(const block::BlockSystem& sys, double rho) {
    std::vector<geom::Aabb> boxes(sys.size());
    par::parallel_for(sys.size(), par::kDefaultGrain, [&](std::size_t i) {
        boxes[i] = search_box(sys.blocks[i].bounds(), rho);
    });
    return boxes;
}

/// Rows per chunk of the all-pairs emission loops. Chunk boundaries are a
/// pure function of n, and the per-chunk buffers concatenate in chunk
/// order, so the emitted pair sequence is exactly the serial row-major
/// sequence for any team size.
constexpr std::int64_t kRowChunk = 128;

template <typename RowBody>
std::vector<BlockPair> emit_rows_chunked(std::int64_t n, RowBody&& row_body) {
    const std::size_t chunks =
        n <= 0 ? 0 : static_cast<std::size_t>((n + kRowChunk - 1) / kRowChunk);
    std::vector<std::vector<BlockPair>> buf(chunks);
    par::parallel_for(chunks, 1, [&](std::size_t c) {
        std::vector<BlockPair>& out = buf[c];
        const std::int64_t r0 = static_cast<std::int64_t>(c) * kRowChunk;
        const std::int64_t r1 = std::min(n, r0 + kRowChunk);
        for (std::int64_t r = r0; r < r1; ++r) row_body(r, out);
    });
    std::size_t total = 0;
    for (const auto& b : buf) total += b.size();
    std::vector<BlockPair> pairs;
    pairs.reserve(total);
    for (const auto& b : buf) pairs.insert(pairs.end(), b.begin(), b.end());
    return pairs;
}

} // namespace

std::vector<BlockPair> broad_phase_triangular(const block::BlockSystem& sys, double rho) {
    const auto boxes = inflated_bounds(sys, rho);
    const std::int64_t n = static_cast<std::int64_t>(sys.size());
    return emit_rows_chunked(n, [&](std::int64_t i, std::vector<BlockPair>& out) {
        for (std::int64_t j = i + 1; j < n; ++j) {
            // Two fully fixed blocks can never exchange load: skip the pair
            // (adjacent foundation slabs would otherwise flood the narrow
            // phase with zero-gap contacts).
            if (sys.blocks[i].fixed && sys.blocks[j].fixed) continue;
            if (boxes[i].overlaps(boxes[j]))
                out.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(j)});
        }
    });
}

std::int64_t balanced_columns(std::int64_t n) { return n <= 1 ? 0 : (n - 1 + 1) / 2; }

bool balanced_cell_pair(std::int64_t n, std::int64_t row, std::int64_t k, BlockPair& out) {
    if (n <= 1 || k >= balanced_columns(n)) return false;
    // For even n the last column is shared between row and its antipode;
    // keep it only for the lower half to visit each pair once.
    if (n % 2 == 0 && k == balanced_columns(n) - 1 && row >= n / 2) return false;
    const std::int64_t j = (row + 1 + k) % n;
    out.a = static_cast<std::int32_t>(std::min(row, j));
    out.b = static_cast<std::int32_t>(std::max(row, j));
    return true;
}

std::vector<BlockPair> broad_phase_balanced(const block::BlockSystem& sys, double rho,
                                            simt::KernelCost* cost) {
    const auto boxes = inflated_bounds(sys, rho);
    const std::int64_t n = static_cast<std::int64_t>(sys.size());
    const std::int64_t cols = balanced_columns(n);
    std::vector<BlockPair> pairs =
        emit_rows_chunked(n, [&](std::int64_t r, std::vector<BlockPair>& out) {
            for (std::int64_t k = 0; k < cols; ++k) {
                BlockPair p{};
                if (!balanced_cell_pair(n, r, k, p)) continue;
                if (sys.blocks[p.a].fixed && sys.blocks[p.b].fixed) continue;
                if (boxes[p.a].overlaps(boxes[p.b])) out.push_back(p);
            }
        });
    std::sort(pairs.begin(), pairs.end(), [](BlockPair x, BlockPair y) {
        return std::pair{x.a, x.b} < std::pair{y.a, y.b};
    });
    if (cost) simt::record_kernel(cost, broad_phase_balanced_cost(n, pairs.size()));
    return pairs;
}

simt::KernelCost broad_phase_balanced_cost(std::int64_t n, std::size_t pairs) {
    simt::KernelCost kc;
    kc.name = "broad_phase_balanced";
    const double cells = static_cast<double>(n) * static_cast<double>(balanced_columns(n));
    kc.flops = cells * 8.0; // four interval comparisons per AABB test
    // Tiled kernel: each m x m tile reloads 2m-1 boxes into shared memory
    // (m = 32), so global traffic is ~cells/m boxes plus the row boxes.
    kc.bytes_coalesced = (cells / 32.0 * 2.0 + static_cast<double>(n)) * 4 * sizeof(double) +
                         static_cast<double>(pairs) * sizeof(BlockPair);
    kc.depth = 8;
    kc.branch_slots = cells / 32.0;
    kc.divergent_slots = 0.05 * kc.branch_slots; // rare hits diverge
    kc.launches = 1;
    return kc;
}

std::vector<BlockPair> run_broad_phase(const block::BlockSystem& sys, double rho,
                                       BroadPhaseBackend backend, double cell_size,
                                       simt::KernelCost* cost) {
    if (backend == BroadPhaseBackend::Hash)
        return broad_phase_spatial_hash(sys, rho, cell_size, nullptr, cost);
    std::vector<BlockPair> pairs = broad_phase_triangular(sys, rho);
    if (cost)
        simt::record_kernel(cost, broad_phase_balanced_cost(
                                      static_cast<std::int64_t>(sys.size()), pairs.size()));
    return pairs;
}

const char* broad_phase_kernel_name(BroadPhaseBackend backend) {
    return backend == BroadPhaseBackend::Hash ? "broad_phase_spatial_hash"
                                              : "broad_phase_balanced";
}

} // namespace gdda::contact
