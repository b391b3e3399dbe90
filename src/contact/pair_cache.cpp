#include "contact/pair_cache.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "par/parallel_for.hpp"

namespace gdda::contact {

namespace {

/// Blocks per revalidation chunk and cached pairs per filter chunk. Both
/// are pure functions of the input size, never of the team size: the
/// revalidation folds exact min/max partials and the filter concatenates
/// its chunk buffers in chunk order, so the verdict and the filtered
/// sequence are identical for any team size.
constexpr std::size_t kBlockChunk = 1024;
constexpr std::size_t kFilterChunk = 4096;

/// Modeled cost of the O(n) warm-path revalidation kernel: one coalesced
/// pass over the current and reference AABBs with four per-axis interval
/// comparisons each, reduced to a single all-within-margin flag.
simt::KernelCost revalidate_cost(std::size_t n) {
    simt::KernelCost kc;
    kc.name = "pair_cache_revalidate";
    const double nn = static_cast<double>(n);
    kc.flops = nn * 8.0;
    kc.bytes_coalesced = nn * 8.0 * sizeof(double); // current + reference boxes
    kc.depth = 6; // box reduce + tree-reduce of the validity flag
    kc.branch_slots = nn / 32.0;
    kc.divergent_slots = 0.02 * kc.branch_slots; // only margin-crossers diverge
    kc.launches = 1;
    return kc;
}

/// Modeled cost of the exact re-filter: one thread per cached pair gathers
/// both boxes and runs the backends' AABB test, then a flag scan compacts
/// the survivors in order.
simt::KernelCost filter_cost(std::size_t cached, std::size_t kept) {
    simt::KernelCost kc;
    kc.name = "pair_cache_filter";
    const double m = static_cast<double>(cached);
    kc.flops = m * 8.0; // four interval comparisons, priced as the backends price them
    kc.bytes_coalesced = (m + static_cast<double>(kept)) * sizeof(BlockPair);
    kc.bytes_texture = m * 2.0 * 4.0 * sizeof(double); // box gathers, cached
    kc.depth = 8; // test, flag scan, compact
    kc.branch_slots = m / 32.0;
    kc.divergent_slots = 0.1 * kc.branch_slots; // kept and dropped pairs mix
    kc.launches = 2;
    return kc;
}

} // namespace

bool BroadPhasePairCache::refresh_and_revalidate(const block::BlockSystem& sys, double rho,
                                                 double margin, BroadPhaseBackend backend,
                                                 double cell_size) {
    const std::size_t n = sys.size();
    const bool comparable = have_ && ref_boxes_.size() == n && rho == rho_ &&
                            margin == margin_ && backend == backend_ &&
                            cell_size == cell_size_;
    current_.resize(n);
    const std::size_t chunks = (n + kBlockChunk - 1) / kBlockChunk;
    spans_.resize(chunks);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    par::parallel_for(chunks, 1, [&](std::size_t c) {
        ShiftSpan s{{kInf, kInf}, {-kInf, -kInf}, 0.0, false};
        const std::size_t end = std::min(n, (c + 1) * kBlockChunk);
        for (std::size_t i = c * kBlockChunk; i < end; ++i) {
            const geom::Aabb box = sys.blocks[i].bounds();
            current_[i] = box;
            if (!comparable) continue;
            const geom::Aabb& ref = ref_boxes_[i];
            s.fixed_changed |= (sys.blocks[i].fixed ? 1 : 0) != fixed_[i];
            s.lo_min[0] = std::min(s.lo_min[0], box.lo.x - ref.lo.x);
            s.lo_min[1] = std::min(s.lo_min[1], box.lo.y - ref.lo.y);
            s.hi_max[0] = std::max(s.hi_max[0], box.hi.x - ref.hi.x);
            s.hi_max[1] = std::max(s.hi_max[1], box.hi.y - ref.hi.y);
            s.magnitude = std::max({s.magnitude, std::abs(box.lo.x), std::abs(box.lo.y),
                                    std::abs(box.hi.x), std::abs(box.hi.y),
                                    std::abs(ref.lo.x), std::abs(ref.lo.y),
                                    std::abs(ref.hi.x), std::abs(ref.hi.y)});
        }
        spans_[c] = s;
    });
    if (!comparable) return false;

    // min/max folds are exact in any grouping.
    ShiftSpan all{{kInf, kInf}, {-kInf, -kInf}, 0.0, false};
    for (const ShiftSpan& s : spans_) {
        all.fixed_changed |= s.fixed_changed;
        all.magnitude = std::max(all.magnitude, s.magnitude);
        for (int k = 0; k < 2; ++k) {
            all.lo_min[k] = std::min(all.lo_min[k], s.lo_min[k]);
            all.hi_max[k] = std::max(all.hi_max[k], s.hi_max[k]);
        }
    }
    if (all.fixed_changed) return false;
    // A common shift T with hi_max - margin <= T <= lo_min + margin keeps
    // every box inside its build-time box moved by T and grown by margin.
    // The slack absorbs the rounding of the shifts, of this test and of the
    // backends' box inflation, each a few ulps of the largest coordinate.
    const double slack =
        32.0 * std::numeric_limits<double>::epsilon() * (all.magnitude + rho + margin);
    for (int k = 0; k < 2; ++k)
        if (all.hi_max[k] - all.lo_min[k] > 2.0 * margin - slack) return false;
    return true;
}

void BroadPhasePairCache::filter(double rho) {
    const std::size_t m = superset_.size();
    const std::size_t chunks = (m + kFilterChunk - 1) / kFilterChunk;
    if (kept_.size() < chunks) kept_.resize(chunks);
    // The backends' predicate at the current positions. Fixed-fixed pairs
    // never enter the superset, and the fixed flags match the build's.
    par::parallel_for(chunks, 1, [&](std::size_t c) {
        std::vector<BlockPair>& out = kept_[c];
        out.clear();
        const std::size_t end = std::min(m, (c + 1) * kFilterChunk);
        for (std::size_t k = c * kFilterChunk; k < end; ++k) {
            const BlockPair p = superset_[k];
            if (search_box(current_[p.a], rho).overlaps(search_box(current_[p.b], rho)))
                out.push_back(p);
        }
    });
    exact_.clear();
    for (std::size_t c = 0; c < chunks; ++c)
        exact_.insert(exact_.end(), kept_[c].begin(), kept_[c].end());
}

const std::vector<BlockPair>& BroadPhasePairCache::pairs(
    const block::BlockSystem& sys, double rho, double margin, BroadPhaseBackend backend,
    double cell_size, simt::KernelCost* cost) {
    const std::size_t n = sys.size();
    const bool valid = refresh_and_revalidate(sys, rho, margin, backend, cell_size);

    // The revalidation pass runs on every call (it is what decides cold vs
    // warm), so it is charged unconditionally in GPU mode.
    if (cost) simt::record_kernel(cost, revalidate_cost(n));

    if (valid) {
        warm_ = true;
        ++stats_.reuses;
        if (cost) simt::record_skipped_kernel(cost, broad_phase_kernel_name(backend));
    } else {
        warm_ = false;
        // Build with the widened search distance: each box is inflated by an
        // extra `margin`, buying the scene a motion budget of `margin` per
        // block around a common translation before the superset stops
        // covering the exact rho-overlap set.
        superset_ = run_broad_phase(sys, rho + 2.0 * margin, backend, cell_size, cost);
        ref_boxes_ = current_;
        fixed_.resize(n);
        for (std::size_t i = 0; i < n; ++i) fixed_[i] = sys.blocks[i].fixed ? 1 : 0;
        rho_ = rho;
        margin_ = margin;
        cell_size_ = cell_size;
        backend_ = backend;
        have_ = true;
        ++stats_.rebuilds;
        stats_.cached_pairs = superset_.size();
    }

    filter(rho);
    if (cost) simt::record_kernel(cost, filter_cost(superset_.size(), exact_.size()));
    return exact_;
}

void BroadPhasePairCache::invalidate() {
    have_ = false;
    warm_ = false;
    superset_.clear();
    exact_.clear();
    ref_boxes_.clear();
    fixed_.clear();
    ++stats_.invalidations;
}

} // namespace gdda::contact
