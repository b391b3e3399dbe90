#pragma once
// Persistent broad-phase candidate cache across time steps. The same
// reuse-the-invariant-work idiom the solve chain uses (PR 3's contact
// fingerprint, core/solve_workspace.hpp), applied one layer earlier: the
// candidate PAIR set changes far more slowly than block positions do, so
// most steps can revalidate and re-filter last step's superset in O(n + m)
// instead of re-running the broad phase.
//
// Correctness contract (proved in docs/CONTACTS.md, enforced bitwise by
// tests/test_broadphase.cpp):
//
//   * The cache stores a SUPERSET built with search distance rho + 2*margin.
//     It stays valid while some common per-axis translation T keeps every
//     block's raw AABB within `margin` of its build-time AABB shifted by T
//     (growth included). Box overlap is translation-invariant, so the
//     superset then still covers the exact rho-overlap set. Fixed blocks do
//     not move, so they pin T to [-margin, margin]: a floored scene rebuilds
//     once its mobile blocks travel, while a rigidly moving scene stays warm.
//   * Every call re-filters the superset with the backends' own predicate
//     (search_box overlap at the current positions). The returned set is
//     therefore exactly the cold broad-phase set, in the same (a, b) order,
//     whether the call was warm or cold.
//   * A translation spread beyond the margin, a block-count / fixed-flag /
//     rho / margin / backend change, or an explicit invalidate() (checkpoint
//     restore) triggers a full rebuild.

#include <cstdint>
#include <vector>

#include "contact/broad_phase.hpp"
#include "geometry/aabb.hpp"

namespace gdda::contact {

struct PairCacheStats {
    std::uint64_t rebuilds = 0;     ///< cold calls: the backend actually ran
    std::uint64_t reuses = 0;       ///< warm calls: cached set revalidated
    std::uint64_t invalidations = 0;///< explicit invalidate() calls
    std::size_t cached_pairs = 0;   ///< size of the cached candidate superset
};

class BroadPhasePairCache {
public:
    /// The exact candidate pairs for the current block positions: equal,
    /// element by element, to run_broad_phase(sys, rho, ...). `margin` is
    /// the absolute motion budget baked into the cached superset (the engine
    /// passes margin = rho). On a warm call the backend is skipped:
    /// GPU-mode traces record a small `pair_cache_revalidate` kernel plus a
    /// zero-cost `<backend> [cached]` event, mirroring the solve workspace's
    /// skipped-kernel idiom. The `pair_cache_filter` kernel runs on every call.
    const std::vector<BlockPair>& pairs(const block::BlockSystem& sys, double rho,
                                        double margin, BroadPhaseBackend backend,
                                        double cell_size = 0.0,
                                        simt::KernelCost* cost = nullptr);

    /// Drop the cached set; the next call rebuilds (checkpoint restore,
    /// structural scene edits the cache cannot see).
    void invalidate();

    [[nodiscard]] const PairCacheStats& stats() const { return stats_; }
    /// Whether the last pairs() call reused the cached set.
    [[nodiscard]] bool warm() const { return warm_; }

private:
    /// Per-chunk partial of the revalidation pass: the spread of the
    /// blocks' AABB shifts since the build, per axis.
    struct ShiftSpan {
        double lo_min[2];  ///< least shift of a lower box edge
        double hi_max[2];  ///< greatest shift of an upper box edge
        double magnitude;  ///< largest |coordinate| seen (rounding slack)
        bool fixed_changed;
    };

    /// Refresh current_ from the block positions and decide whether the
    /// cached superset still covers the exact set.
    [[nodiscard]] bool refresh_and_revalidate(const block::BlockSystem& sys, double rho,
                                              double margin, BroadPhaseBackend backend,
                                              double cell_size);
    void filter(double rho);

    // Every buffer below keeps its capacity across calls, so a warm step
    // allocates nothing.
    std::vector<geom::Aabb> current_;   ///< raw block bounds this call
    std::vector<geom::Aabb> ref_boxes_; ///< raw block bounds at build time
    std::vector<char> fixed_;           ///< fixed flags at build time
    std::vector<ShiftSpan> spans_;      ///< revalidation partials, one per chunk
    std::vector<BlockPair> superset_;   ///< cached rho + 2*margin set
    std::vector<std::vector<BlockPair>> kept_; ///< filter output, one per chunk
    std::vector<BlockPair> exact_;      ///< superset_ re-filtered at rho
    double rho_ = -1.0;
    double margin_ = -1.0;
    double cell_size_ = -1.0;
    BroadPhaseBackend backend_ = BroadPhaseBackend::AllPairs;
    bool have_ = false;
    bool warm_ = false;
    PairCacheStats stats_;
};

} // namespace gdda::contact
