// Engine tests: single-step mechanics, time-step control, module timing,
// and serial-vs-GPU pipeline trajectory equivalence.

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <string>

#include "core/engine.hpp"
#include "core/interpenetration.hpp"
#include "core/simulation.hpp"
#include "models/falling_rocks.hpp"
#include "models/large_scene.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"

namespace co = gdda::core;
namespace bl = gdda::block;

namespace {
co::SimConfig quick_config() {
    co::SimConfig cfg;
    cfg.dt = 1e-3;
    cfg.dt_max = 1e-3;
    cfg.velocity_carry = 1.0;
    return cfg;
}
} // namespace

TEST(Engine, FreeFallAcceleratesDownward) {
    bl::BlockSystem sys = gdda::models::make_free_block(100.0);
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Serial);
    const double y0 = sys.blocks[0].centroid.y;
    for (int i = 0; i < 50; ++i) eng.step();
    const double t = eng.time();
    const double drop = y0 - sys.blocks[0].centroid.y;
    EXPECT_NEAR(drop, 0.5 * 9.81 * t * t, 0.02 * drop + 1e-6);
    // Velocity matches g*t.
    EXPECT_NEAR(-sys.blocks[0].velocity[1], 9.81 * t, 0.05 * 9.81 * t);
}

TEST(Engine, StaticModeDampsMotion) {
    bl::BlockSystem sys = gdda::models::make_free_block(100.0);
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 0.0;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    for (int i = 0; i < 10; ++i) eng.step();
    // Without velocity carry each step only moves ~0.5*g*dt^2.
    EXPECT_DOUBLE_EQ(sys.blocks[0].velocity[1], 0.0);
    const double per_step = 0.5 * 9.81 * cfg.dt * cfg.dt;
    EXPECT_NEAR(100.5 - sys.blocks[0].centroid.y, 10 * per_step, 2.0 * per_step);
}

TEST(Engine, BlockLandsOnFloor) {
    // Static mode advances ~g*dt^2/2 per step, so use a small initial gap.
    bl::BlockSystem sys = gdda::models::make_block_on_floor(0.0005);
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 0.0; // static settling
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    for (int i = 0; i < 300; ++i) eng.step();
    // Block bottom must rest at the floor surface (y = 0) within penalty
    // penetration tolerance.
    const double bottom =
        std::min(sys.blocks[1].verts[0].y, sys.blocks[1].verts[1].y);
    EXPECT_NEAR(bottom, 0.0, 1e-3);
    EXPECT_LT(eng.last_max_velocity(), 1e-2);
    // Contacts exist and are closed.
    const auto& contacts = eng.contacts();
    EXPECT_FALSE(contacts.empty());
    bool any_closed = false;
    for (const auto& c : contacts)
        if (c.state != gdda::contact::ContactState::Open) any_closed = true;
    EXPECT_TRUE(any_closed);
    // No deep interpenetration.
    const auto rep = co::audit_interpenetration(sys);
    EXPECT_LT(rep.max_depth, 1e-3);
}

TEST(Engine, FixedBlockDoesNotMove) {
    bl::BlockSystem sys = gdda::models::make_block_on_floor(0.01);
    const auto floor0 = sys.blocks[0].verts;
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Serial);
    for (int i = 0; i < 50; ++i) eng.step();
    for (std::size_t v = 0; v < floor0.size(); ++v) {
        EXPECT_NEAR(sys.blocks[0].verts[v].x, floor0[v].x, 1e-9);
        EXPECT_NEAR(sys.blocks[0].verts[v].y, floor0[v].y, 1e-9);
    }
}

TEST(Engine, TimersCoverAllModules) {
    bl::BlockSystem sys = gdda::models::make_column(3);
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Serial);
    for (int i = 0; i < 5; ++i) eng.step();
    const co::ModuleTimers& t = eng.timers();
    EXPECT_GT(t.seconds(co::Module::ContactDetection), 0.0);
    EXPECT_GT(t.seconds(co::Module::DiagBuild), 0.0);
    EXPECT_GT(t.seconds(co::Module::NondiagBuild), 0.0);
    EXPECT_GT(t.seconds(co::Module::EquationSolving), 0.0);
    EXPECT_GT(t.seconds(co::Module::InterpenetrationCheck), 0.0);
    EXPECT_GT(t.seconds(co::Module::DataUpdate), 0.0);
    EXPECT_GT(t.total(), 0.0);
}

TEST(Engine, GpuModeFillsLedgers) {
    bl::BlockSystem sys = gdda::models::make_column(3);
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Gpu);
    for (int i = 0; i < 5; ++i) eng.step();
    const co::ModuleLedgers& l = eng.ledgers();
    const auto& dev = gdda::simt::tesla_k40();
    for (int m = 0; m < co::kModuleCount; ++m) {
        EXPECT_GT(l.modeled_ms(static_cast<co::Module>(m), dev), 0.0)
            << co::kModuleNames[m];
    }
    EXPECT_GT(l.total_modeled_ms(dev), 0.0);
    // K20 must model slower than K40.
    EXPECT_GT(l.total_modeled_ms(gdda::simt::tesla_k20()), l.total_modeled_ms(dev));
}

TEST(Engine, SerialAndGpuTrajectoriesMatch) {
    bl::BlockSystem sa = gdda::models::make_column(3);
    bl::BlockSystem sg = gdda::models::make_column(3);
    co::DdaEngine ea(sa, quick_config(), co::EngineMode::Serial);
    co::DdaEngine eg(sg, quick_config(), co::EngineMode::Gpu);
    for (int i = 0; i < 30; ++i) {
        ea.step();
        eg.step();
    }
    for (std::size_t b = 0; b < sa.blocks.size(); ++b) {
        for (std::size_t v = 0; v < sa.blocks[b].verts.size(); ++v) {
            EXPECT_NEAR(sa.blocks[b].verts[v].x, sg.blocks[b].verts[v].x, 1e-9);
            EXPECT_NEAR(sa.blocks[b].verts[v].y, sg.blocks[b].verts[v].y, 1e-9);
        }
    }
}

// Gpu mode only prices the run, so its per-module ledgers are a pure
// function of the counts the shared pipeline produces. These values were
// recorded at commit 415d8bf, when Gpu mode still executed a separate
// sort/scan assembly plan and the balanced all-pairs enumeration; pricing
// the single shared path from counts must reproduce them exactly. The
// coalesced bytes of Contact Detection and Interpenetration Checking were
// re-recorded when the contact geometry record shrank from 224 to 216
// bytes: each contact_init and open_close_update record now moves 8 bytes
// fewer, and every other field is unchanged. The lattice case was recorded
// at commit 23c8056, where the scene-size rule already picked the hash.
TEST(Engine, GpuLedgersMatchRecordedPricing) {
    struct Expected {
        double flops, bytes_coalesced, bytes_texture, bytes_random;
        int launches;
    };
    struct Case {
        const char* name;
        bl::BlockSystem (*make)();
        int steps;
        gdda::contact::BroadPhaseBackend backend;
        Expected modules[co::kModuleCount];
    };
    const Case cases[] = {
        // AllPairs; diagonal-cache hits and warm passes included.
        {"slope:120",
         [] { return gdda::models::make_slope_with_blocks(120); },
         10,
         gdda::contact::BroadPhaseBackend::AllPairs,
         {{10896736, 26440504, 4720984, 41920, 222},
          {2028600, 4590432, 185472, 0, 66},
          {72916272, 111015296, 0, 105150528, 292},
          {99061478, 362338028, 72041795.999999955, 10174464, 5019},
          {7147560, 34308288, 22872192, 0, 96},
          {1054420, 2231968, 312000, 0, 40}}},
        // Hash, at the size where the engine switches to it; ten all-open
        // steps of free fall, then the impact on the floor with a retry.
        {"lattice:4096",
         [] {
             return gdda::models::make_block_lattice_with_blocks(
                 static_cast<int>(gdda::contact::kAutoHashMinBlocks));
         },
         12,
         gdda::contact::BroadPhaseBackend::Hash,
         {{216096063, 525562820, 126467136, 2094232, 252},
          {37282700, 49491760, 3408704, 0, 35},
          {646715268, 956128784, 0, 939521088, 72},
          {4450246636, 15757505328, 3488399107.1999927, 127733760, 7881},
          {63441840, 304520832, 203013888, 0, 44},
          {27135120, 56078112, 9439488, 0, 48}}},
    };
    for (const Case& c : cases) {
        bl::BlockSystem sys = c.make();
        co::DdaEngine eng(sys, {}, co::EngineMode::Gpu);
        ASSERT_EQ(eng.broad_phase_backend(), c.backend) << c.name;
        eng.run(c.steps);
        for (int m = 0; m < co::kModuleCount; ++m) {
            SCOPED_TRACE(std::string(c.name) + " / " +
                         std::string(co::kModuleNames[static_cast<std::size_t>(m)]));
            const gdda::simt::KernelCost t =
                eng.ledgers().ledger(static_cast<co::Module>(m)).total();
            const Expected& e = c.modules[m];
            EXPECT_EQ(t.flops, e.flops);
            EXPECT_EQ(t.bytes_coalesced, e.bytes_coalesced);
            EXPECT_EQ(t.bytes_texture, e.bytes_texture);
            EXPECT_EQ(t.bytes_random, e.bytes_random);
            EXPECT_EQ(t.launches, e.launches);
        }
    }
}

TEST(Engine, RetriesKeepTheEntryContactGeometry) {
    // Seed 2 of the 60-block slope: the cold first step retries seven
    // times and takes the dt_min last resort. Retries and the last resort
    // reuse attempt 0's contact geometry (same positions, same contact
    // identities); the trajectory and the priced Contact Detection row must
    // be those recorded when every attempt re-initialized it.
    for (co::EngineMode mode : {co::EngineMode::Serial, co::EngineMode::Gpu}) {
        SCOPED_TRACE(mode == co::EngineMode::Gpu ? "gpu" : "serial");
        gdda::models::SlopeParams p;
        p.seed = 2;
        bl::BlockSystem sys = gdda::models::make_slope_with_blocks(60, p);
        co::DdaEngine eng(sys, co::SimConfig{}, mode);
        int retries = 0;
        int last_resort = 0;
        for (int s = 0; s < 3; ++s) {
            const co::StepStats st = eng.step();
            retries += st.retries;
            last_resort += st.converged ? 0 : 1;
        }
        EXPECT_EQ(retries, 7);
        EXPECT_EQ(last_resort, 1);
        EXPECT_EQ(bl::state_fingerprint(sys), 0xbcdff8632c346cbfull);
        const double priced =
            eng.ledgers().ledger(co::Module::ContactDetection).total().flops;
        EXPECT_EQ(priced, mode == co::EngineMode::Gpu ? 2742646.0 : 0.0);
    }
}

TEST(Engine, RetriedStepEqualsFreshStepAtAcceptedDt) {
    // A retry puts every contact back to its step-entry state from a
    // compact per-contact record (contact::EntryState), not from a copy of
    // the list. A step accepted after retries must therefore equal one
    // step taken at the accepted dt from the same entry state. Last-resort
    // (dt_min) commits take their own path and are not checked here.
    struct Case {
        const char* name;
        std::function<bl::BlockSystem()> build;
        int max_steps; ///< the first retried, converged step comes earlier
    };
    const Case cases[] = {
        {"floored 40x10 lattice impact",
         [] {
             gdda::models::LatticeParams lp;
             lp.cols = 40;
             lp.rows = 10;
             return gdda::models::make_block_lattice(lp);
         },
         30},
        {"slope:300", [] { return gdda::models::make_slope_with_blocks(300); }, 50},
    };
    auto same_bits = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    };
    for (const Case& c : cases) {
        for (co::EngineMode mode : {co::EngineMode::Serial, co::EngineMode::Gpu}) {
            for (int team : {1, 2}) {
                SCOPED_TRACE(std::string(c.name) +
                             (mode == co::EngineMode::Gpu ? " gpu" : " serial") + " team " +
                             std::to_string(team));
                co::SimConfig cfg;
                cfg.step_threads = team;
                bl::BlockSystem sys = c.build();
                co::DdaEngine eng(sys, cfg, mode);
                bool checked = false;
                for (int s = 0; s < c.max_steps && !checked; ++s) {
                    co::EngineCheckpoint entry = eng.capture();
                    const co::StepStats st = eng.step();
                    if (st.retries == 0 || !st.converged) continue;
                    checked = true;
                    bl::BlockSystem fresh_sys = entry.sys;
                    co::DdaEngine fresh(fresh_sys, cfg, mode);
                    entry.dt = st.dt_used;
                    fresh.restore(entry);
                    const co::StepStats fs = fresh.step();
                    EXPECT_EQ(fs.retries, 0) << "step " << s;
                    EXPECT_TRUE(same_bits(fs.dt_used, st.dt_used)) << "step " << s;
                    EXPECT_EQ(bl::state_fingerprint(fresh_sys), bl::state_fingerprint(sys))
                        << "step " << s;
                    // The committed states penetrate alike, and both steps
                    // report the penetration of the attempt they committed.
                    EXPECT_TRUE(same_bits(co::audit_interpenetration(fresh_sys).max_depth,
                                          co::audit_interpenetration(sys).max_depth))
                        << "step " << s;
                    EXPECT_TRUE(same_bits(fs.max_penetration, st.max_penetration))
                        << "step " << s;
                    const auto& a = eng.contacts();
                    const auto& b = fresh.contacts();
                    ASSERT_EQ(a.size(), b.size()) << "step " << s;
                    for (std::size_t i = 0; i < a.size(); ++i) {
                        const gdda::contact::Contact& x = a[i];
                        const gdda::contact::Contact& y = b[i];
                        ASSERT_TRUE(x.kind == y.kind && x.bi == y.bi && x.vi == y.vi &&
                                    x.bj == y.bj && x.e1 == y.e1 && x.e2 == y.e2 &&
                                    x.state == y.state && x.prev_state == y.prev_state &&
                                    same_bits(x.shear_disp, y.shear_disp) &&
                                    same_bits(x.slide_sign, y.slide_sign) &&
                                    same_bits(x.last_gap, y.last_gap) &&
                                    same_bits(x.edge_ratio, y.edge_ratio) && x.p1 == y.p1 &&
                                    x.p2 == y.p2)
                            << "step " << s << " contact " << i;
                    }
                }
                EXPECT_TRUE(checked) << "no step was accepted after a retry";
            }
        }
    }
}

TEST(Engine, StepStatsPopulated) {
    bl::BlockSystem sys = gdda::models::make_block_on_floor(0.005);
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Serial);
    co::StepStats st{};
    for (int i = 0; i < 30; ++i) st = eng.step();
    EXPECT_GT(st.contacts, 0u);
    EXPECT_GT(st.open_close_iters, 0);
    EXPECT_GT(st.dt_used, 0.0);
    EXPECT_TRUE(st.converged);
}

TEST(Simulation, RunUntilStatic) {
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 0.0;
    co::DdaSimulation sim(gdda::models::make_block_on_floor(0.0005), cfg,
                          co::EngineMode::Serial);
    // Threshold between free fall (g*dt/2 ~ 4.9e-3) and the micrometer-scale
    // penalty-spring jitter of the resting state (~2.2e-3).
    int callbacks = 0;
    const co::RunSummary s =
        sim.run(500, /*until_static=*/true, /*static_velocity=*/3e-3,
                [&](int, const co::StepStats&) { ++callbacks; });
    EXPECT_TRUE(s.reached_static);
    EXPECT_EQ(callbacks, s.steps_run);
    EXPECT_LT(s.steps_run, 500);
}

TEST(Engine, InclineFrictionHolds) {
    // 20-degree incline with 35-degree friction: the block must stick.
    bl::BlockSystem sys = gdda::models::make_incline(20.0, 35.0);
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 0.0;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    const gdda::geom::Vec2 c0 = sys.blocks[1].centroid;
    for (int i = 0; i < 300; ++i) eng.step();
    EXPECT_NEAR(gdda::geom::distance(sys.blocks[1].centroid, c0), 0.0, 0.02);
}

TEST(Engine, InclineSlidesWithoutFriction) {
    // 30-degree incline with 5-degree friction: the block must slide.
    bl::BlockSystem sys = gdda::models::make_incline(30.0, 5.0);
    co::SimConfig cfg = quick_config();
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    const gdda::geom::Vec2 c0 = sys.blocks[1].centroid;
    for (int i = 0; i < 300; ++i) eng.step();
    const gdda::geom::Vec2 moved = sys.blocks[1].centroid - c0;
    EXPECT_GT(moved.norm(), 0.05);
    EXPECT_LT(moved.y, 0.0); // downhill
}

TEST(Engine, TwoFixedPointsPinBlock) {
    // A free block anchored at two corners hangs in place under gravity.
    bl::BlockSystem sys = gdda::models::make_free_block(10.0);
    sys.fixed_points.push_back(
        {.block = 0, .point = {-0.5, 11.0}, .anchor = {-0.5, 11.0}});
    sys.fixed_points.push_back(
        {.block = 0, .point = {0.5, 11.0}, .anchor = {0.5, 11.0}});
    co::DdaEngine eng(sys, quick_config(), co::EngineMode::Serial);
    for (int i = 0; i < 200; ++i) eng.step();
    // Sag is bounded by weight / (2 * fixed_penalty) -- micrometers here.
    EXPECT_NEAR(sys.blocks[0].centroid.y, 10.5, 5e-4);
    EXPECT_NEAR(sys.blocks[0].centroid.x, 0.0, 1e-6);
}

TEST(Engine, SingleFixedPointActsAsPivot) {
    // Anchored at one top corner, the block swings: the anchored material
    // point stays at the anchor while the centroid moves sideways/down.
    bl::BlockSystem sys = gdda::models::make_free_block(10.0);
    const gdda::geom::Vec2 anchor{-0.5, 11.0};
    sys.fixed_points.push_back({.block = 0, .point = anchor, .anchor = anchor});
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 1.0;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    for (int i = 0; i < 400; ++i) eng.step();
    // The tracked material point never leaves the anchor...
    EXPECT_NEAR(gdda::geom::distance(sys.fixed_points[0].point, anchor), 0.0, 5e-3);
    // ...while the block rotated about it (centroid displaced).
    EXPECT_GT(gdda::geom::distance(sys.blocks[0].centroid, {0.0, 10.5}), 0.05);
}

TEST(Engine, PointLoadPushesBlock) {
    bl::BlockSystem sys = gdda::models::make_block_on_floor(0.0005);
    sys.gravity = {0.0, -9.81};
    // Horizontal force below the friction limit: the block must stay.
    const double weight = 2500.0 * 9.81;
    sys.point_loads.push_back(
        {.block = 1, .point = {0.0, 0.5}, .force = {0.2 * weight, 0.0}});
    co::SimConfig cfg = quick_config();
    cfg.velocity_carry = 0.0;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    for (int i = 0; i < 300; ++i) eng.step();
    EXPECT_NEAR(sys.blocks[1].centroid.x, 0.0, 0.01); // tan(30) = 0.577 > 0.2

    // Above the friction limit it slides in the force direction.
    bl::BlockSystem sys2 = gdda::models::make_block_on_floor(0.0005);
    sys2.point_loads.push_back(
        {.block = 1, .point = {0.0, 0.5}, .force = {1.2 * weight, 0.0}});
    co::SimConfig cfg2 = quick_config();
    cfg2.velocity_carry = 1.0;
    co::DdaEngine eng2(sys2, cfg2, co::EngineMode::Serial);
    for (int i = 0; i < 300; ++i) eng2.step();
    EXPECT_GT(sys2.blocks[1].centroid.x, 0.05);
}
