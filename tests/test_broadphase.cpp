// Broad-phase contact pipeline: spatial-hash backend edge cases, backend
// candidate-set equivalence across the model zoo, the scene-size selection
// rule, the persistent pair cache (rebuild/reuse/invalidation, the superset
// contract, and exactness along engine trajectories), and divergence-aware
// pair classification. The contracts under test are documented in
// docs/CONTACTS.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "contact/pair_cache.hpp"
#include "contact/pair_classes.hpp"
#include "contact/spatial_hash.hpp"
#include "core/engine.hpp"
#include "models/falling_rocks.hpp"
#include "models/large_scene.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "models/tunnel.hpp"

namespace ct = gdda::contact;
namespace bl = gdda::block;
namespace core = gdda::core;
namespace simt = gdda::simt;
namespace models = gdda::models;
using gdda::geom::Vec2;

namespace {

void translate_block(bl::BlockSystem& sys, int i, double dx, double dy) {
    for (Vec2& v : sys.blocks[i].verts) {
        v.x += dx;
        v.y += dy;
    }
    sys.blocks[i].update_geometry();
}

/// Warp-serialized slots of a schedule counted directly: 32 consecutive
/// pairs per warp, each warp issuing its largest verts(a) * verts(b).
std::uint64_t direct_slots(const bl::BlockSystem& sys, const std::vector<ct::BlockPair>& pairs) {
    std::uint64_t slots = 0;
    for (std::size_t w = 0; w < pairs.size(); w += 32) {
        std::uint64_t mx = 0;
        for (std::size_t i = w; i < std::min(w + 32, pairs.size()); ++i)
            mx = std::max<std::uint64_t>(mx, sys.blocks[pairs[i].a].verts.size() *
                                                 sys.blocks[pairs[i].b].verts.size());
        slots += mx;
    }
    return slots;
}

} // namespace

// ---------------------------------------------------------------------------
// Spatial-hash backend: degenerate and adversarial scenes.

TEST(SpatialHash, EmptyAndSingleBlockSystems) {
    bl::BlockSystem empty;
    EXPECT_TRUE(ct::broad_phase_spatial_hash(empty, 0.1).empty());

    bl::BlockSystem one;
    one.add_block({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
    EXPECT_TRUE(ct::broad_phase_spatial_hash(one, 0.1).empty());
}

TEST(SpatialHash, FixedFixedPairsSkipped) {
    bl::BlockSystem sys;
    sys.add_block({{0, 0}, {1, 0}, {1, 1}, {0, 1}}, 0, /*fixed=*/true);
    sys.add_block({{0.5, 0.5}, {1.5, 0.5}, {1.5, 1.5}, {0.5, 1.5}}, 0, /*fixed=*/true);
    EXPECT_TRUE(ct::broad_phase_spatial_hash(sys, 0.1).empty());
    // One mobile partner is enough to re-admit the pair.
    sys.blocks[1].fixed = false;
    EXPECT_EQ(ct::broad_phase_spatial_hash(sys, 0.1).size(), 1u);
}

TEST(SpatialHash, AllBlocksInOneCell) {
    // A cell far larger than the whole cluster degrades the grid to a single
    // bucket — the backend must degrade to all-pairs, not lose candidates.
    bl::BlockSystem sys = models::make_column(8, 0.01);
    const double rho = 0.05;
    const auto ref = ct::broad_phase_triangular(sys, rho);
    const auto hashed = ct::broad_phase_spatial_hash(sys, rho, /*cell_size=*/1e6);
    EXPECT_EQ(ref, hashed);
}

TEST(SpatialHash, BlockSpanningManyCells) {
    // A tiny cell size makes the floor slab of the column span thousands of
    // cells; every pair must still be reported exactly once.
    bl::BlockSystem sys = models::make_column(8, 0.01);
    const double rho = 0.05;
    const auto ref = ct::broad_phase_triangular(sys, rho);
    const auto hashed = ct::broad_phase_spatial_hash(sys, rho, /*cell_size=*/0.02);
    EXPECT_EQ(ref, hashed);
}

TEST(SpatialHash, CellSizeNeverChangesTheResult) {
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(60);
    const double rho = 0.02 * sys.characteristic_length();
    const auto ref = ct::broad_phase_spatial_hash(sys, rho); // auto-sized
    for (double cell : {0.1, 0.5, 2.0, 10.0, 100.0})
        EXPECT_EQ(ref, ct::broad_phase_spatial_hash(sys, rho, cell)) << "cell=" << cell;
}

// ---------------------------------------------------------------------------
// Backend equivalence: hash == triangular == balanced on every zoo scene.

TEST(BroadPhaseBackends, CandidateSetsAgreeAcrossModelZoo) {
    const std::map<std::string, bl::BlockSystem> zoo = {
        {"slope", models::make_slope_with_blocks(300)},
        {"falling_rocks", models::make_falling_rocks_with_blocks(80)},
        {"tunnel", models::make_tunnel()},
        {"column", models::make_column(10)},
        {"block_on_floor", models::make_block_on_floor()},
        {"incline", models::make_incline(20.0, 30.0)},
        {"lattice", models::make_block_lattice_with_blocks(1500)},
    };
    for (const auto& [name, sys] : zoo) {
        const double rho = 0.02 * sys.characteristic_length();
        const auto tri = ct::broad_phase_triangular(sys, rho);
        EXPECT_EQ(tri, ct::broad_phase_balanced(sys, rho)) << name;
        EXPECT_EQ(tri, ct::broad_phase_spatial_hash(sys, rho)) << name;
    }
}

TEST(BroadPhaseBackends, RunBroadPhaseDispatch) {
    const bl::BlockSystem sys = models::make_falling_rocks_with_blocks(60);
    const double rho = 0.02 * sys.characteristic_length();
    const auto tri = ct::broad_phase_triangular(sys, rho);
    EXPECT_EQ(tri, ct::run_broad_phase(sys, rho, ct::BroadPhaseBackend::AllPairs));
    EXPECT_EQ(tri, ct::run_broad_phase(sys, rho, ct::BroadPhaseBackend::Hash));
    EXPECT_STREQ(ct::broad_phase_kernel_name(ct::BroadPhaseBackend::Hash),
                 "broad_phase_spatial_hash");
    EXPECT_STREQ(ct::broad_phase_kernel_name(ct::BroadPhaseBackend::AllPairs),
                 "broad_phase_balanced");

    // With a sink, AllPairs runs the triangular loop but is priced as the
    // balanced mapping — the same record broad_phase_balanced() makes.
    simt::KernelCost priced = simt::KernelCost::accumulator();
    EXPECT_EQ(tri,
              ct::run_broad_phase(sys, rho, ct::BroadPhaseBackend::AllPairs, 0.0, &priced));
    simt::KernelCost mapped = simt::KernelCost::accumulator();
    EXPECT_EQ(tri, ct::broad_phase_balanced(sys, rho, &mapped));
    EXPECT_EQ(priced.flops, mapped.flops);
    EXPECT_EQ(priced.bytes_coalesced, mapped.bytes_coalesced);
    EXPECT_EQ(priced.branch_slots, mapped.branch_slots);
    EXPECT_EQ(priced.launches, 1);
    EXPECT_EQ(mapped.launches, 1);
}

// ---------------------------------------------------------------------------
// Backend selection by scene size.

TEST(BroadPhaseBackends, AutoSelectsByScale) {
    bl::BlockSystem small = models::make_column(6);
    core::DdaEngine small_engine(small, {}, core::EngineMode::Serial);
    EXPECT_EQ(small_engine.broad_phase_backend(), ct::BroadPhaseBackend::AllPairs);

    bl::BlockSystem big = models::make_block_lattice_with_blocks(
        static_cast<int>(ct::kAutoHashMinBlocks) + 128);
    ASSERT_GE(big.size(), ct::kAutoHashMinBlocks);
    core::DdaEngine big_engine(big, {}, core::EngineMode::Serial);
    EXPECT_EQ(big_engine.broad_phase_backend(), ct::BroadPhaseBackend::Hash);
}

// ---------------------------------------------------------------------------
// Persistent pair cache: counters, invalidation rules, superset contract.

TEST(PairCache, StaticSceneRebuildsOnce) {
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(60);
    const double rho = 0.02 * sys.characteristic_length();
    ct::BroadPhasePairCache cache;
    const auto first = cache.pairs(sys, rho, rho, ct::BroadPhaseBackend::Hash);
    EXPECT_FALSE(cache.warm());
    for (int i = 0; i < 5; ++i) {
        const auto& again = cache.pairs(sys, rho, rho, ct::BroadPhaseBackend::Hash);
        EXPECT_TRUE(cache.warm());
        EXPECT_EQ(first, again);
    }
    EXPECT_EQ(cache.stats().rebuilds, 1u);
    EXPECT_EQ(cache.stats().reuses, 5u);
}

TEST(PairCache, MotionWithinMarginStaysWarmAndSuperset) {
    bl::BlockSystem sys = models::make_column(8, 0.05);
    const double rho = 0.05;
    const double margin = 0.04;
    ct::BroadPhasePairCache cache;
    (void)cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::AllPairs);

    translate_block(sys, 3, 0.5 * margin, -0.5 * margin);
    const auto& cached = cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::AllPairs);
    EXPECT_TRUE(cache.warm());
    EXPECT_EQ(cache.stats().rebuilds, 1u);

    // The cached superset covers the exact set at the CURRENT positions, and
    // the re-filter returns exactly the cold set, element by element.
    EXPECT_EQ(cached, ct::broad_phase_triangular(sys, rho));
    EXPECT_GE(cache.stats().cached_pairs, cached.size());
}

TEST(PairCache, CommonTranslationStaysWarmAndExact) {
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(60);
    for (bl::Block& b : sys.blocks) b.fixed = false;
    const double rho = 0.02 * sys.characteristic_length();
    const double margin = rho;
    ct::BroadPhasePairCache cache;
    (void)cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::Hash);

    // The whole scene moves 5 margins diagonally: every box leaves its
    // per-block budget, but the common translation keeps the superset valid.
    for (int i = 0; i < static_cast<int>(sys.size()); ++i)
        translate_block(sys, i, 5.0 * margin, -5.0 * margin);
    const auto& moved = cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::Hash);
    EXPECT_TRUE(cache.warm());
    EXPECT_EQ(cache.stats().rebuilds, 1u);
    EXPECT_EQ(moved, ct::run_broad_phase(sys, rho, ct::BroadPhaseBackend::Hash));
    EXPECT_EQ(moved, ct::broad_phase_triangular(sys, rho));
}

TEST(PairCache, FlooredLatticeFallingPastTheMarginRebuilds) {
    models::LatticeParams lp;
    lp.cols = 8;
    lp.rows = 6;
    bl::BlockSystem sys = models::make_block_lattice(lp);
    const double rho = 0.05;
    const double margin = 0.04;
    ct::BroadPhasePairCache cache;
    (void)cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::AllPairs);

    // The fixed floor pins the common translation: mobile blocks falling
    // 2.5 margins toward it leave the superset's budget.
    for (int i = 0; i < static_cast<int>(sys.size()); ++i)
        if (!sys.blocks[i].fixed) translate_block(sys, i, 0.0, -2.5 * margin);
    const auto& fallen = cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::AllPairs);
    EXPECT_FALSE(cache.warm());
    EXPECT_EQ(cache.stats().rebuilds, 2u);
    EXPECT_EQ(fallen, ct::broad_phase_triangular(sys, rho));
}

TEST(PairCache, CrossingTheMarginRebuilds) {
    bl::BlockSystem sys = models::make_column(8, 0.05);
    const double rho = 0.05;
    const double margin = 0.04;
    ct::BroadPhasePairCache cache;
    (void)cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::AllPairs);

    translate_block(sys, 3, 0.0, 2.5 * margin);
    const auto& rebuilt = cache.pairs(sys, rho, margin, ct::BroadPhaseBackend::AllPairs);
    EXPECT_FALSE(cache.warm());
    EXPECT_EQ(cache.stats().rebuilds, 2u);
    EXPECT_EQ(rebuilt, ct::broad_phase_triangular(sys, rho));
}

TEST(PairCache, ParameterChangesRebuild) {
    bl::BlockSystem sys = models::make_column(6, 0.05);
    ct::BroadPhasePairCache cache;
    (void)cache.pairs(sys, 0.05, 0.04, ct::BroadPhaseBackend::AllPairs);
    (void)cache.pairs(sys, 0.06, 0.04, ct::BroadPhaseBackend::AllPairs);
    EXPECT_EQ(cache.stats().rebuilds, 2u) << "rho change must rebuild";
    (void)cache.pairs(sys, 0.06, 0.03, ct::BroadPhaseBackend::AllPairs);
    EXPECT_EQ(cache.stats().rebuilds, 3u) << "margin change must rebuild";
    (void)cache.pairs(sys, 0.06, 0.03, ct::BroadPhaseBackend::Hash);
    EXPECT_EQ(cache.stats().rebuilds, 4u) << "backend change must rebuild";
    // Structural change: fixed flag flips invalidate the cached skip set.
    sys.blocks[2].fixed = true;
    (void)cache.pairs(sys, 0.06, 0.03, ct::BroadPhaseBackend::Hash);
    EXPECT_EQ(cache.stats().rebuilds, 5u) << "fixed-flag change must rebuild";
}

TEST(PairCache, ExplicitInvalidateForcesRebuild) {
    bl::BlockSystem sys = models::make_column(6, 0.05);
    ct::BroadPhasePairCache cache;
    (void)cache.pairs(sys, 0.05, 0.04, ct::BroadPhaseBackend::AllPairs);
    cache.invalidate();
    EXPECT_EQ(cache.stats().invalidations, 1u);
    (void)cache.pairs(sys, 0.05, 0.04, ct::BroadPhaseBackend::AllPairs);
    EXPECT_FALSE(cache.warm());
    EXPECT_EQ(cache.stats().rebuilds, 2u);
}

// ---------------------------------------------------------------------------
// Divergence-aware classification.

TEST(PairClasses, ClassifyIsAPurePermutation) {
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(80);
    const double rho = 0.02 * sys.characteristic_length();
    auto pairs = ct::broad_phase_triangular(sys, rho);
    ct::PairScheduleStats stats;
    const auto scheduled = ct::classify_pairs(sys, pairs, &stats);

    ASSERT_EQ(scheduled.size(), pairs.size());
    EXPECT_EQ(stats.pairs, pairs.size());
    auto key = [](const ct::BlockPair& p) { return std::make_pair(p.a, p.b); };
    std::vector<std::pair<int, int>> in, out;
    for (const auto& p : pairs) in.push_back(key(p));
    for (const auto& p : scheduled) out.push_back(key(p));
    std::sort(in.begin(), in.end());
    std::sort(out.begin(), out.end());
    EXPECT_EQ(in, out);
}

TEST(PairClasses, SortedScheduleNeverLessEfficient) {
    bl::BlockSystem sys = models::make_tunnel();
    const double rho = 0.02 * sys.characteristic_length();
    ct::PairScheduleStats stats;
    (void)ct::classify_pairs(sys, ct::broad_phase_triangular(sys, rho), &stats);
    EXPECT_GE(stats.efficiency_sorted(), stats.efficiency_unsorted());
    EXPECT_GE(stats.efficiency_sorted(), 0.0);
    EXPECT_LE(stats.efficiency_sorted(), 1.0);
    EXPECT_GT(stats.buckets, 0u);
    EXPECT_GT(stats.work, 0u);
}

TEST(PairClasses, NarrowPhaseOutputInvariantUnderClassification) {
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(60);
    const double rho = 0.02 * sys.characteristic_length();
    const auto pairs = ct::broad_phase_triangular(sys, rho);
    ct::PairScheduleStats stats;
    const auto scheduled = ct::classify_pairs(sys, pairs, &stats);

    const auto plain = ct::narrow_phase(sys, pairs, rho);
    const auto sorted = ct::narrow_phase(sys, scheduled, rho);
    ASSERT_EQ(plain.contacts.size(), sorted.contacts.size());
    for (std::size_t i = 0; i < plain.contacts.size(); ++i) {
        EXPECT_EQ(plain.contacts[i].key(), sorted.contacts[i].key());
        EXPECT_EQ(plain.contacts[i].kind, sorted.contacts[i].kind);
    }
    EXPECT_EQ(plain.stats.ve + plain.stats.vv1 + plain.stats.vv2,
              sorted.stats.ve + sorted.stats.vv1 + sorted.stats.vv2);
}

TEST(PairClasses, ScheduleStatsMatchTheMaterialisedSchedule) {
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(80);
    // Blocks beyond the 15-vertex class clip mix works inside one class.
    for (int k : {16, 20, 24, 31}) {
        const Vec2 c = sys.blocks[static_cast<std::size_t>(k)].centroid;
        std::vector<Vec2> poly;
        for (int v = 0; v < k; ++v) {
            const double t = 2.0 * 3.14159265358979 * v / k;
            poly.push_back({c.x + 0.3 * std::cos(t), c.y + 0.3 * std::sin(t)});
        }
        sys.add_block(poly);
    }
    const double rho = 0.02 * sys.characteristic_length();
    const auto pairs = ct::broad_phase_triangular(sys, rho);
    ct::PairScheduleStats classified;
    const auto scheduled = ct::classify_pairs(sys, pairs, &classified);
    const ct::PairScheduleStats st = ct::pair_schedule_stats(sys, pairs);

    EXPECT_EQ(st.pairs, classified.pairs);
    EXPECT_EQ(st.buckets, classified.buckets);
    EXPECT_EQ(st.work, classified.work);
    EXPECT_EQ(st.slots_unsorted, direct_slots(sys, pairs));
    EXPECT_EQ(st.slots_sorted, direct_slots(sys, scheduled));
    EXPECT_EQ(classified.slots_sorted, direct_slots(sys, scheduled));
}

// ---------------------------------------------------------------------------
// Engine level: the engine always runs the pair cache over the backend the
// scene size picks. Along real trajectories, in both engine modes, a fresh
// and a persistent cache over either backend must serve exactly the
// triangular candidate set at every step, so neither the backend nor the
// cache can move a trajectory.

TEST(BroadPhasePipeline, PairCachesEqualTriangularEveryStep) {
    struct Scene {
        const char* name;
        bl::BlockSystem (*make)();
        int steps;
    };
    const Scene scenes[] = {
        {"rocks:40", [] { return models::make_falling_rocks_with_blocks(40); }, 10},
        // Gapped, so it settles far enough to rebuild the cache mid-run.
        {"column:8", [] { return models::make_column(8, 0.05); }, 30},
        // Above the hash threshold; floorless, so it falls as one rigid body
        // and the translation-aware revalidation keeps the cache warm.
        {"floorless lattice",
         [] {
             models::LatticeParams lp;
             lp.fixed_floor = false;
             return models::make_block_lattice_with_blocks(
                 static_cast<int>(ct::kAutoHashMinBlocks) + 128, lp);
         },
         6},
        // Two floorless lattice bands side by side, about four search
        // distances apart, thrown at each other: the pairs across the gap
        // enter the exact set while the cache is warm (about two search
        // distances of relative motion per build), and a cache that stayed
        // warm for four would never have cached them.
        {"converging bands",
         [] {
             models::LatticeParams lp;
             lp.fixed_floor = false;
             lp.rows = 4;
             lp.cols = 10;
             bl::BlockSystem sys = models::make_block_lattice(lp);
             lp.seed = 22;
             const bl::BlockSystem right = models::make_block_lattice(lp);
             const double shift = lp.cols * (lp.block_size + lp.gap) + 0.13;
             const std::size_t left = sys.size();
             for (const bl::Block& b : right.blocks) {
                 std::vector<Vec2> verts = b.verts;
                 for (Vec2& p : verts) p.x += shift;
                 sys.add_block(std::move(verts));
             }
             for (std::size_t i = 0; i < sys.size(); ++i)
                 sys.blocks[i].velocity[0] = i < left ? 1.5 : -1.5;
             return sys;
         },
         16},
    };
    const ct::BroadPhaseBackend backends[] = {ct::BroadPhaseBackend::AllPairs,
                                              ct::BroadPhaseBackend::Hash};
    for (const Scene& scene : scenes) {
        for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
            SCOPED_TRACE(std::string(scene.name) +
                         (mode == core::EngineMode::Gpu ? " gpu" : " serial"));
            bl::BlockSystem sys = scene.make();
            core::DdaEngine engine(sys, {}, mode);
            const core::SimConfig& cfg = engine.config();
            // The engine's own search distance and motion margin.
            const double rho = cfg.search_factor * cfg.max_disp_ratio * engine.capture().w0;
            ct::BroadPhasePairCache persistent[std::size(backends)];
            std::vector<ct::BlockPair> last_ref;
            int warm_changes = 0; // steps whose exact set changed under a warm cache
            for (int s = 0; s <= scene.steps; ++s) {
                if (s > 0) engine.step();
                const std::vector<ct::BlockPair> ref =
                    ct::broad_phase_triangular(engine.system(), rho);
                bool warm = false;
                for (std::size_t b = 0; b < std::size(backends); ++b) {
                    SCOPED_TRACE("step " + std::to_string(s) + " backend " + std::to_string(b));
                    simt::KernelCost cost = simt::KernelCost::accumulator();
                    simt::KernelCost* sink = mode == core::EngineMode::Gpu ? &cost : nullptr;
                    ct::BroadPhasePairCache fresh;
                    EXPECT_EQ(fresh.pairs(engine.system(), rho, rho, backends[b], 0.0, sink), ref);
                    EXPECT_EQ(persistent[b].pairs(engine.system(), rho, rho, backends[b], 0.0,
                                                  sink),
                              ref);
                    warm = warm || persistent[b].warm();
                }
                if (s > 0 && warm && ref != last_ref) ++warm_changes;
                last_ref = ref;
            }
            // The persistent caches took the warm path, so it was under test.
            for (const ct::BroadPhasePairCache& cache : persistent)
                EXPECT_GT(cache.stats().reuses, 0u);
            // The bands' warm steps changed the exact set, so a warm cache
            // serving stale pairs would show.
            if (std::string(scene.name) == "converging bands") {
                EXPECT_GE(warm_changes, 1);
            }
        }
    }
}

TEST(BroadPhasePipeline, EngineCacheWarmsOnRestingScene) {
    bl::BlockSystem sys = models::make_column(8, 0.0);
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    for (int s = 0; s < 8; ++s) engine.step();
    EXPECT_EQ(engine.pair_cache().stats().rebuilds, 1u);
    EXPECT_GE(engine.pair_cache().stats().reuses, 7u);
}

TEST(BroadPhasePipeline, GpuModeReportsClassifiedSchedule) {
    bl::BlockSystem sys = models::make_column(8, 0.0);
    core::DdaEngine engine(sys, {}, core::EngineMode::Gpu);
    engine.step();
    const auto& sched = engine.pair_schedule();
    EXPECT_GT(sched.pairs, 0u);
    EXPECT_GT(sched.efficiency_sorted(), 0.0);
    EXPECT_LE(sched.divergent_fraction_sorted(), 1.0);
}
