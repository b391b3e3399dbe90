// Broad-phase contact pipeline bench + acceptance gates.
//
// Part 1 keeps the Section III.B ablation: the serial upper-triangular
// enumeration gives thread i a row of n-1-i tests (2:1 worst/mean
// imbalance); the paper reshapes it into a balanced n x (n/2) matrix so
// every thread performs the same number of tests. We report the warp-level
// load imbalance of both mappings (measured on the lane-accurate executor)
// and the modeled kernel time of the balanced tiled version.
//
// Part 2 is the O(n) growth story: the spatial-hash backend on the
// large-scene lattice tier (models/large_scene.hpp), measured CPU
// wall-clock (min of 3) plus modeled SIMT cost per tier. The all-pairs
// backends are run at the tiers where their O(n^2) test count is still
// affordable, both as the quadratic contrast and as the candidate-set
// equality oracle.
//
// Parts 2-3 carry acceptance gates (the bench exits non-zero on any
// violation; CI runs `bench_broadphase --short`):
//   * hash candidate set == triangular at every tier where triangular runs;
//   * modeled hash cost at 8x blocks <= 10x the 1x tier, wall-clock <= 12x
//     (near-linear scaling; docs/CONTACTS.md);
//   * on a static scene the persistent pair cache rebuilds exactly once and
//     revalidates every later step (zero candidate-set rebuilds while warm).
// That the pair cache over either backend returns exactly the triangular
// set at every step of a trajectory, in both engine modes, is a unit test
// (BroadPhasePipeline.PairCachesEqualTriangularEveryStep).
//
// Usage: bench_broadphase [--short] [base_blocks]
//   --short        CI tier ladder (6250..50000 blocks), 2048-block mapping table
//   base_blocks    override the 1x tier (default 50000; --short sets 6250)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "contact/broad_phase.hpp"
#include "contact/pair_cache.hpp"
#include "contact/pair_classes.hpp"
#include "contact/spatial_hash.hpp"
#include "core/engine.hpp"
#include "models/large_scene.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "simt/warp_executor.hpp"

using namespace gdda;

namespace {

int g_failures = 0;

void gate(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++g_failures;
}

struct MappingStats {
    std::uint64_t total_ops = 0;
    std::uint64_t warp_slots = 0; // serialized slots (max per warp summed)
    [[nodiscard]] double efficiency() const {
        return warp_slots ? double(total_ops) / (32.0 * double(warp_slots)) : 1.0;
    }
};

// One thread per row; `tests(row)` AABB tests of unit cost each.
MappingStats row_mapping_stats(std::int64_t n,
                               const std::function<std::int64_t(std::int64_t)>& tests) {
    simt::WarpExecutor ex;
    const simt::WarpStats st = ex.launch(static_cast<std::size_t>(n), [&](simt::Lane& lane) {
        lane.op(0, static_cast<std::uint32_t>(tests(static_cast<std::int64_t>(lane.thread_id()))));
    });
    return {st.ops, st.warp_op_slots};
}

// -------------------------------------------------------------------------
// Part 1: Section III.B triangular-vs-balanced warp table.
void mapping_table(int max_blocks, bench::MetricReport& rep) {
    bench::header("SECTION III.B -- broad phase: triangular vs balanced mapping");
    std::printf("%8s %14s %14s %14s %12s %12s %12s\n", "n", "pairs", "tri eff",
                "bal eff", "K20 (ms)", "K40 (ms)", "hash K40");

    for (int n = 512; n <= max_blocks; n *= 2) {
        // Load-balance measurement (mapping only; no boxes needed).
        const MappingStats tri = row_mapping_stats(
            n, [n](std::int64_t row) { return static_cast<std::int64_t>(n) - 1 - row; });
        const std::int64_t cols = contact::balanced_columns(n);
        const MappingStats bal = row_mapping_stats(n, [cols](std::int64_t) { return cols; });

        // Real model at this scale for the candidate-set check + cost model.
        block::BlockSystem sys = models::make_slope_with_blocks(n);
        const double rho = 0.02 * sys.characteristic_length();
        const auto ref = contact::broad_phase_triangular(sys, rho);
        simt::KernelCost cost;
        const auto got = contact::broad_phase_balanced(sys, rho, &cost);
        simt::KernelCost hash_cost;
        const auto hashed =
            contact::broad_phase_spatial_hash(sys, rho, 0.0, nullptr, &hash_cost);
        const bool equal = ref == got && ref == hashed;

        std::printf("%8d %11zu %s %13.3f %14.3f %12.3f %12.3f %12.3f\n", n, ref.size(),
                    equal ? "=" : "!", tri.efficiency(), bal.efficiency(),
                    simt::modeled_ms(cost, simt::tesla_k20()),
                    simt::modeled_ms(cost, simt::tesla_k40()),
                    simt::modeled_ms(hash_cost, simt::tesla_k40()));
        if (!equal) ++g_failures;

        const std::string scale = "_n" + std::to_string(n);
        rep.add("tri_efficiency" + scale, tri.efficiency());
        rep.add("bal_efficiency" + scale, bal.efficiency());
        rep.add("balanced_k40_ms" + scale, simt::modeled_ms(cost, simt::tesla_k40()));
        rep.add("hash_k40_ms" + scale, simt::modeled_ms(hash_cost, simt::tesla_k40()));
    }
    bench::rule();
    std::printf("triangular mapping wastes warp slots on ragged rows (eff ~<1);\n");
    std::printf("the balanced n x (n/2) reshaping reaches efficiency 1.0 by construction.\n");
}

// -------------------------------------------------------------------------
// Part 2: large-scene growth tier — hash O(n) vs all-pairs O(n^2).
void growth_tiers(int base, bench::MetricReport& rep) {
    bench::header("LARGE-SCENE GROWTH -- hash backend across the tier ladder");
    std::printf("%9s %12s %13s %13s %13s %9s\n", "blocks", "pairs", "hash wall ms",
                "hash K40 ms", "tri wall ms", "tri==hash");

    const std::vector<int> tiers = models::large_scene_tiers(base);
    std::vector<double> wall_ms(tiers.size(), 0.0);
    std::vector<double> model_ms(tiers.size(), 0.0);

    for (std::size_t t = 0; t < tiers.size(); ++t) {
        block::BlockSystem sys = models::make_block_lattice_with_blocks(tiers[t]);
        const double rho = 0.02 * sys.characteristic_length();
        const std::string scale = "_n" + std::to_string(tiers[t]);

        // Measured CPU wall-clock, min of 3 (the grid build is O(n)).
        std::vector<contact::BlockPair> hashed;
        double best = 1e300;
        for (int rep_i = 0; rep_i < 3; ++rep_i) {
            const auto t0 = bench::Clock::now();
            hashed = contact::run_broad_phase(sys, rho, contact::BroadPhaseBackend::Hash);
            best = std::min(best, bench::ms_since(t0));
        }
        wall_ms[t] = best;

        // Modeled SIMT cost of the multi-kernel hash build + query.
        simt::KernelCost cost = simt::KernelCost::accumulator();
        (void)contact::run_broad_phase(sys, rho, contact::BroadPhaseBackend::Hash, 0.0, &cost);
        model_ms[t] = simt::modeled_ms(cost, simt::tesla_k40());

        // All-pairs contrast + equality oracle where O(n^2) is affordable.
        const double n2 = 0.5 * double(tiers[t]) * double(tiers[t]);
        double tri_ms = -1.0;
        bool tri_equal = true;
        if (n2 <= 2.0e9) {
            const auto t0 = bench::Clock::now();
            const auto ref = contact::broad_phase_triangular(sys, rho);
            tri_ms = bench::ms_since(t0);
            tri_equal = ref == hashed;
            gate(tri_equal, "candidate set: hash == triangular at n=" +
                                std::to_string(tiers[t]));
            rep.add("tri_wall_ms" + scale, tri_ms);
        }

        std::printf("%9d %12zu %13.2f %13.3f %13.2f %9s\n", tiers[t], hashed.size(),
                    wall_ms[t], model_ms[t], tri_ms,
                    tri_ms < 0 ? "skipped" : (tri_equal ? "yes" : "NO"));
        rep.add("hash_wall_ms" + scale, wall_ms[t]);
        rep.add("hash_k40_ms" + scale, model_ms[t]);
        rep.add("hash_pairs" + scale, double(hashed.size()));
    }

    // Near-linear scaling gates: 8x blocks must not cost more than ~10x
    // modeled time (the hash pipeline is O(n) in tests + O(cells) in
    // bookkeeping) and ~12x wall-clock (host noise cushion).
    const double model_ratio = model_ms.back() / std::max(model_ms.front(), 1e-12);
    const double wall_ratio = wall_ms.back() / std::max(wall_ms.front(), 1e-12);
    rep.add("hash_model_ratio_8x", model_ratio);
    rep.add("hash_wall_ratio_8x", wall_ratio);
    bench::rule();
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "scaling: modeled K40 cost %.2fx at 8x blocks (gate <= 10x)", model_ratio);
    gate(model_ratio <= 10.0, buf);
    std::snprintf(buf, sizeof buf,
                  "scaling: measured wall-clock %.2fx at 8x blocks (gate <= 12x)", wall_ratio);
    gate(wall_ratio <= 12.0, buf);
}

// -------------------------------------------------------------------------
// Part 3: persistent pair cache on static scenes — one cold build, then
// warm revalidation with zero candidate-set rebuilds.
void cache_gates(bench::MetricReport& rep) {
    bench::header("PAIR CACHE -- static scenes rebuild zero candidate sets warm");

    // Direct: an unmoving lattice queried 10 times.
    {
        block::BlockSystem sys = models::make_block_lattice_with_blocks(2000);
        const double rho = 0.02 * sys.characteristic_length();
        contact::BroadPhasePairCache cache;
        for (int i = 0; i < 10; ++i)
            (void)cache.pairs(sys, rho, rho, contact::BroadPhaseBackend::Hash);
        const auto& st = cache.stats();
        std::printf("  static lattice: rebuilds=%llu reuses=%llu cached_pairs=%zu\n",
                    (unsigned long long)st.rebuilds, (unsigned long long)st.reuses,
                    st.cached_pairs);
        gate(st.rebuilds == 1 && st.reuses == 9,
             "static lattice: 1 cold build, 9 warm revalidations");
        rep.add("cache_static_rebuilds", double(st.rebuilds));
        rep.add("cache_static_reuses", double(st.reuses));
    }

    // Engine-level: a resting column settles far below the motion margin, so
    // every step after the first reuses the cached candidate set.
    {
        block::BlockSystem sys = models::make_column(8, 0.0);
        core::DdaEngine engine(sys, {}, core::EngineMode::Gpu);
        for (int s = 0; s < 10; ++s) engine.step();
        const auto& st = engine.pair_cache().stats();
        std::printf("  resting column: rebuilds=%llu reuses=%llu\n",
                    (unsigned long long)st.rebuilds, (unsigned long long)st.reuses);
        gate(st.rebuilds == 1 && st.reuses >= 9,
             "resting column engine: 1 cold build across 10 steps");
        rep.add("cache_engine_rebuilds", double(st.rebuilds));
        rep.add("cache_engine_reuses", double(st.reuses));
    }
}

} // namespace

int main(int argc, char** argv) {
    bool short_mode = false;
    int base = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--short") == 0)
            short_mode = true;
        else
            base = std::atoi(argv[i]);
    }
    if (base <= 0) base = short_mode ? 6250 : 50000;

    bench::MetricReport rep("broadphase");
    mapping_table(short_mode ? 2048 : 4096, rep);
    growth_tiers(base, rep);
    cache_gates(rep);
    rep.add("gate_failures", double(g_failures));
    rep.write();

    bench::rule();
    std::printf("%d gate failure(s)\n", g_failures);
    return g_failures ? 1 : 0;
}
