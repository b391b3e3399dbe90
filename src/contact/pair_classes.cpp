#include "contact/pair_classes.hpp"

#include <algorithm>
#include <array>

namespace gdda::contact {

namespace {

// Work classes clip vertex counts at 15: polygon blocks beyond that share
// one "large" class (they are rare and already the warp-serialization
// worst case, so finer splitting buys nothing).
constexpr int kClipVerts = 15;
constexpr int kClassCount = (kClipVerts + 1) * (kClipVerts + 1);

int pair_class(const block::BlockSystem& sys, const BlockPair& p) {
    const int va = std::min(static_cast<int>(sys.blocks[p.a].verts.size()), kClipVerts);
    const int vb = std::min(static_cast<int>(sys.blocks[p.b].verts.size()), kClipVerts);
    // Order-insensitive key: the narrow phase runs both directions anyway.
    return std::max(va, vb) * (kClipVerts + 1) + std::min(va, vb);
}

std::uint64_t pair_work(const block::BlockSystem& sys, const BlockPair& p) {
    return static_cast<std::uint64_t>(sys.blocks[p.a].verts.size()) *
           static_cast<std::uint64_t>(sys.blocks[p.b].verts.size());
}

/// Warp-serialized slots of a schedule: 32 consecutive pairs share a warp,
/// which issues max(work) slots — the lane-accurate model bench_broadphase
/// cross-checks against WarpExecutor.
std::uint64_t schedule_slots(const block::BlockSystem& sys, std::span<const BlockPair> pairs) {
    std::uint64_t slots = 0;
    for (std::size_t w = 0; w < pairs.size(); w += 32) {
        std::uint64_t mx = 0;
        const std::size_t end = std::min(w + 32, pairs.size());
        for (std::size_t i = w; i < end; ++i) mx = std::max(mx, pair_work(sys, pairs[i]));
        slots += mx;
    }
    return slots;
}

/// The same warp model fed with runs of equal-work pairs in schedule order.
struct SlotWalk {
    std::uint64_t slots = 0;
    std::uint64_t warp_max = 0;
    std::size_t fill = 0;

    void add(std::uint64_t work, std::size_t count) {
        while (count > 0) {
            const std::size_t take = std::min<std::size_t>(count, 32 - fill);
            warp_max = std::max(warp_max, work);
            fill += take;
            count -= take;
            if (fill == 32) {
                slots += warp_max;
                warp_max = 0;
                fill = 0;
            }
        }
    }
    [[nodiscard]] std::uint64_t total() const { return slots + (fill ? warp_max : 0); }
};

} // namespace

PairScheduleStats pair_schedule_stats(const block::BlockSystem& sys,
                                      std::span<const BlockPair> pairs,
                                      simt::KernelCost* cost) {
    PairScheduleStats st;
    st.pairs = pairs.size();
    std::array<std::size_t, kClassCount> count{};
    std::array<std::uint64_t, kClassCount> work_min;
    std::array<std::uint64_t, kClassCount> work_max{};
    work_min.fill(~std::uint64_t{0});
    for (const BlockPair& p : pairs) {
        const int c = pair_class(sys, p);
        const std::uint64_t w = pair_work(sys, p);
        ++count[c];
        st.work += w;
        work_min[c] = std::min(work_min[c], w);
        work_max[c] = std::max(work_max[c], w);
    }
    st.slots_unsorted = schedule_slots(sys, pairs);

    // The classified schedule is the classes in ascending order, each in
    // its stable input order. A class is one run of equal work unless it
    // holds a block beyond kClipVerts; only then are its pairs walked.
    SlotWalk walk;
    for (int c = 0; c < kClassCount; ++c) {
        if (!count[c]) continue;
        ++st.buckets;
        if (work_min[c] == work_max[c]) {
            walk.add(work_min[c], count[c]);
            continue;
        }
        for (const BlockPair& p : pairs)
            if (pair_class(sys, p) == c) walk.add(pair_work(sys, p), 1);
    }
    st.slots_sorted = walk.total();

    if (cost) simt::record_kernel(cost, pair_schedule_cost(pairs.size()));
    return st;
}

simt::KernelCost pair_schedule_cost(std::size_t pairs) {
    simt::KernelCost kc;
    kc.name = "pair_class_bucket";
    const double m = static_cast<double>(pairs);
    kc.flops = m * 6.0 + kClassCount * 2.0;
    kc.bytes_coalesced = m * 2.0 * sizeof(BlockPair) + // read + scatter write
                         kClassCount * 2.0 * sizeof(std::uint32_t);
    kc.bytes_random = m * sizeof(BlockPair); // scatter lands per-bucket
    kc.depth = 12; // count, scan tree, scatter
    kc.launches = 3;
    kc.branch_slots = m / 32.0;
    kc.divergent_slots = 0.02 * kc.branch_slots;
    return kc;
}

std::vector<BlockPair> classify_pairs(const block::BlockSystem& sys,
                                      std::vector<BlockPair> pairs,
                                      PairScheduleStats* stats,
                                      simt::KernelCost* cost) {
    const PairScheduleStats st = pair_schedule_stats(sys, pairs, cost);

    // Stable counting sort by work class: count, exclusive scan, scatter.
    std::array<std::size_t, kClassCount> offset{};
    for (const BlockPair& p : pairs) ++offset[pair_class(sys, p)];
    std::size_t run = 0;
    for (std::size_t& o : offset) {
        const std::size_t c = o;
        o = run;
        run += c;
    }
    std::vector<BlockPair> scheduled(pairs.size());
    for (const BlockPair& p : pairs) scheduled[offset[pair_class(sys, p)]++] = p;

    if (stats) *stats = st;
    return scheduled;
}

} // namespace gdda::contact
