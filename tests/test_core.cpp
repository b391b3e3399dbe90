// Core plumbing: module timers/ledgers, the GPU-support cost helpers, the
// interpenetration audit, and engine configuration behaviors.

#include <gtest/gtest.h>

#include <thread>

#include "core/engine.hpp"
#include "core/gpu_support.hpp"
#include "core/interpenetration.hpp"
#include "core/timing.hpp"
#include "models/stacks.hpp"
#include "test_util.hpp"

namespace co = gdda::core;
namespace bl = gdda::block;

TEST(Timing, ScopedTimerAccumulates) {
    co::ModuleTimers timers;
    {
        co::ScopedTimer t(timers, co::Module::EquationSolving);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    {
        co::ScopedTimer t(timers, co::Module::EquationSolving);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(timers.seconds(co::Module::EquationSolving), 0.008);
    EXPECT_DOUBLE_EQ(timers.seconds(co::Module::ContactDetection), 0.0);
    EXPECT_DOUBLE_EQ(timers.total(), timers.seconds(co::Module::EquationSolving));
    timers.reset();
    EXPECT_DOUBLE_EQ(timers.total(), 0.0);
}

TEST(Timing, LedgersPerModule) {
    co::ModuleLedgers ledgers;
    gdda::simt::KernelCost kc;
    kc.flops = 1e9;
    ledgers.add(co::Module::ContactDetection, kc);
    const auto& dev = gdda::simt::tesla_k40();
    EXPECT_GT(ledgers.modeled_ms(co::Module::ContactDetection, dev), 0.0);
    EXPECT_DOUBLE_EQ(ledgers.total_modeled_ms(dev),
                     ledgers.modeled_ms(co::Module::ContactDetection, dev) +
                         ledgers.modeled_ms(co::Module::DiagBuild, dev) +
                         ledgers.modeled_ms(co::Module::NondiagBuild, dev) +
                         ledgers.modeled_ms(co::Module::EquationSolving, dev) +
                         ledgers.modeled_ms(co::Module::InterpenetrationCheck, dev) +
                         ledgers.modeled_ms(co::Module::DataUpdate, dev));
    ledgers.reset();
    EXPECT_LT(ledgers.modeled_ms(co::Module::ContactDetection, dev), 1e-2);
}

TEST(GpuSupport, PreconditionerFactoryCoversAllKinds) {
    const auto a = gdda::testutil::random_spd_bsr(6, 6, 77);
    for (auto kind :
         {co::PrecondKind::BlockJacobi, co::PrecondKind::SsorAi, co::PrecondKind::Ilu0}) {
        const auto pre = co::make_preconditioner(kind, a);
        ASSERT_NE(pre, nullptr);
        gdda::sparse::BlockVec r = gdda::testutil::random_block_vec(6, 78);
        gdda::sparse::BlockVec z(6);
        pre->apply(r, z);
        EXPECT_GT(gdda::sparse::dot(r, z), 0.0) << pre->name();
    }
}

TEST(GpuSupport, ConversionAndUpdateCostsPositive) {
    const auto a = gdda::testutil::random_spd_bsr(10, 12, 79);
    const auto h = gdda::sparse::hsbcsr_from_bsr(a);
    const auto kc = co::hsbcsr_conversion_cost(h);
    EXPECT_GT(kc.bytes_coalesced, 0.0);
    EXPECT_GT(kc.bytes_random, 0.0);

    bl::BlockSystem sys = gdda::models::make_column(3);
    const auto dc = co::data_update_cost(sys, 12);
    EXPECT_GT(dc.flops, 0.0);
    EXPECT_GT(dc.bytes_coalesced, 0.0);
}

TEST(Audit, CleanSystemReportsZero) {
    const bl::BlockSystem sys = gdda::models::make_column(3, 0.05);
    const auto rep = co::audit_interpenetration(sys);
    EXPECT_DOUBLE_EQ(rep.max_depth, 0.0);
    EXPECT_EQ(rep.penetrating_vertices, 0u);
    EXPECT_DOUBLE_EQ(rep.total_overlap, 0.0);
}

TEST(Audit, DetectsForcedOverlap) {
    bl::BlockSystem sys = gdda::models::make_column(2, 0.0);
    // Narrow block 2 (so its corners sit strictly inside block 1 laterally)
    // and shove it down 0.05 into block 1.
    for (auto& p : sys.blocks[2].verts) {
        p.x *= 0.8;
        p.y -= 0.05;
    }
    sys.update_all_geometry();
    const auto rep = co::audit_interpenetration(sys);
    // Depth = distance to the nearest boundary edge of the host (the 0.05
    // vertical overlap is smaller than the 0.1 lateral clearance).
    EXPECT_NEAR(rep.max_depth, 0.05, 1e-9);
    EXPECT_EQ(rep.penetrating_vertices, 2u);
    EXPECT_NEAR(rep.total_overlap, 0.8 * 0.05, 1e-9);
}

TEST(Engine, DtClampedToConfiguredRange) {
    bl::BlockSystem sys = gdda::models::make_free_block(10.0);
    co::SimConfig cfg;
    cfg.dt = 1e-3;
    cfg.dt_max = 2e-3;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    for (int i = 0; i < 30; ++i) eng.step();
    EXPECT_LE(eng.dt(), cfg.dt_max);
    EXPECT_GE(eng.dt(), cfg.dt_min);
}

TEST(Engine, ClassificationStatsExposed) {
    bl::BlockSystem sys = gdda::models::make_column(4, 0.005);
    co::SimConfig cfg;
    cfg.velocity_carry = 0.0;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    for (int i = 0; i < 5; ++i) eng.step();
    const auto& cs = eng.classification();
    EXPECT_GT(cs.candidates, 0u);
    EXPECT_GT(cs.ve + cs.vv1 + cs.vv2, 0u);
}

TEST(Config, ModuleNamesMatchEnum) {
    EXPECT_EQ(co::kModuleNames[static_cast<int>(co::Module::ContactDetection)],
              "Contact Detection");
    EXPECT_EQ(co::kModuleNames[static_cast<int>(co::Module::DataUpdate)], "Data Updating");
    EXPECT_EQ(co::kModuleCount, 6);
}
