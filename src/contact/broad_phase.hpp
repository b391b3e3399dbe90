#pragma once
// Broad-phase contact detection. Candidate block pairs are those whose
// AABBs, inflated by the contact search distance rho, overlap.
//
// Two backends produce the same candidate set (see docs/CONTACTS.md for the
// full contract):
//
//   AllPairs  the paper's quadratic enumeration, run as the plain
//             triangular loop in both engine modes. The GPU mapping
//             reshapes the n x n upper-triangular pair matrix into a
//             balanced n x ceil(n/2) full matrix so every CUDA block
//             performs the same number of tests (section III.B); it finds
//             the same set, so Gpu mode only prices it
//             (broad_phase_balanced_cost). broad_phase_balanced() stays as
//             the mapping's executable reference for tests and benches.
//   Hash      the spatial-hash grid (spatial_hash.hpp) — near-linear in the
//             block count at physical packing densities, the default at the
//             100k+ scales the all-pairs mapping cannot reach.
//
// Every backend returns the pairs sorted by (a, b), so backends are
// interchangeable bit-for-bit downstream.

#include <cstdint>
#include <vector>

#include "block/block_system.hpp"
#include "geometry/aabb.hpp"
#include "simt/cost_model.hpp"

namespace gdda::contact {

struct BlockPair {
    std::int32_t a; ///< smaller block index
    std::int32_t b; ///< larger block index
    friend bool operator==(const BlockPair&, const BlockPair&) = default;
};

enum class BroadPhaseBackend { AllPairs, Hash };

/// The broad-phase predicate's box: a block's raw bounds grown by rho/2 on
/// every side. Two blocks are candidates iff their search boxes overlap and
/// they are not both fixed. Every backend, and the pair cache's exact
/// re-filter, evaluates this one expression, so their sets agree bit for bit.
inline geom::Aabb search_box(const geom::Aabb& raw_bounds, double rho) {
    return raw_bounds.inflated(rho * 0.5);
}

/// Scene size at which the engine switches from the all-pairs mapping to the
/// spatial hash (DdaEngine::broad_phase_backend). Below it the paper's argument
/// holds (the grid's build/teardown precondition costs more than it saves
/// on a mid-size dense population); above it the quadratic pair matrix
/// dominates every other pipeline module.
inline constexpr std::size_t kAutoHashMinBlocks = 4096;

/// Run one backend. AllPairs runs the triangular loop; with a
/// `cost` sink it is priced as the balanced mapping. `cell_size` is
/// forwarded to the hash (0 = auto-size, see spatial_hash.hpp). All
/// backends return the same (a, b)-sorted set.
std::vector<BlockPair> run_broad_phase(const block::BlockSystem& sys, double rho,
                                       BroadPhaseBackend backend, double cell_size = 0.0,
                                       simt::KernelCost* cost = nullptr);

/// Trace/ledger kernel name a backend is priced under (used for the
/// `[cached]` events the pair cache emits when it skips a rebuild).
const char* broad_phase_kernel_name(BroadPhaseBackend backend);

/// Triangular enumeration (i < j), serial reference.
std::vector<BlockPair> broad_phase_triangular(const block::BlockSystem& sys, double rho);

/// Balanced enumeration: virtual row r tests columns (r + 1 + k) mod n for
/// k in [0, ceil((n-1)/2)); each unordered pair is visited exactly once
/// (the duplicate half-column for even n is skipped). Results are identical
/// to the triangular enumeration up to ordering; `cost`, when given,
/// receives the analytic GPU trace of the tiled kernel.
std::vector<BlockPair> broad_phase_balanced(const block::BlockSystem& sys, double rho,
                                            simt::KernelCost* cost = nullptr);

/// Analytic GPU trace of the balanced tiled kernel over `n` blocks that
/// emits `pairs` candidates (n x balanced_columns(n) cells).
simt::KernelCost broad_phase_balanced_cost(std::int64_t n, std::size_t pairs);

/// Map a balanced-matrix cell (row, k) to the unordered pair it tests, or
/// return false when the cell is a padding cell. Exposed for tests and for
/// the warp-load bench.
bool balanced_cell_pair(std::int64_t n, std::int64_t row, std::int64_t k, BlockPair& out);

/// Number of test columns per row in the balanced mapping.
std::int64_t balanced_columns(std::int64_t n);

} // namespace gdda::contact
