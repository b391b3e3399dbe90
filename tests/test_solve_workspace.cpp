// Structure-caching solve path (core::SolveWorkspace and its layers): warm
// passes must be bitwise identical to cold ones for every preconditioner,
// caches must invalidate when the contact set changes, and a static contact
// set must drive zero structural recomputation (proved by the workspace
// counters).

#include <gtest/gtest.h>

#include <bit>

#include "assembly/assembler.hpp"
#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "contact/open_close.hpp"
#include "core/engine.hpp"
#include "core/gpu_support.hpp"
#include "core/solve_workspace.hpp"
#include "models/stacks.hpp"
#include "solver/pcg.hpp"
#include "sparse/hsbcsr.hpp"
#include "test_util.hpp"

namespace as = gdda::assembly;
namespace bl = gdda::block;
namespace co = gdda::core;
namespace ct = gdda::contact;
namespace mo = gdda::models;
namespace so = gdda::solver;
namespace sp = gdda::sparse;

namespace {

void expect_bitwise_eq(const sp::BlockVec& a, const sp::BlockVec& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        for (int k = 0; k < 6; ++k) EXPECT_EQ(a[i][k], b[i][k]) << "block " << i << " dof " << k;
}

void expect_same_state(const bl::BlockSystem& a, const bl::BlockSystem& b) {
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        ASSERT_EQ(a.blocks[i].verts.size(), b.blocks[i].verts.size());
        for (std::size_t v = 0; v < a.blocks[i].verts.size(); ++v) {
            EXPECT_EQ(a.blocks[i].verts[v].x, b.blocks[i].verts[v].x) << "block " << i;
            EXPECT_EQ(a.blocks[i].verts[v].y, b.blocks[i].verts[v].y) << "block " << i;
        }
        for (int k = 0; k < 6; ++k)
            EXPECT_EQ(a.blocks[i].velocity[k], b.blocks[i].velocity[k]) << "block " << i;
    }
}

/// A small settled-column scene with real narrow-phase contacts, packaged
/// for direct SolveWorkspace calls (the engine's assembly inputs).
struct Scene {
    bl::BlockSystem sys;
    as::BlockAttachments att;
    std::vector<ct::Contact> contacts;
    std::vector<ct::ContactGeometry> geo;
    as::StepParams sp;
};

Scene make_scene() {
    Scene s{mo::make_column(4, 0.005), {}, {}, {}, {}};
    s.sys.update_all_geometry();
    s.att = as::index_attachments(s.sys);
    const double rho = 0.05;
    const auto pairs = ct::broad_phase_triangular(s.sys, rho);
    auto np = ct::narrow_phase(s.sys, pairs, rho, nullptr);
    s.contacts = std::move(np.contacts);
    s.geo = ct::contact_geometry(s.sys, s.contacts);
    s.sp.dt = 1e-3;
    const double e = s.sys.max_young();
    s.sp.contact.penalty = 10.0 * e;
    s.sp.contact.shear_penalty = s.sp.contact.penalty;
    s.sp.fixed_penalty = s.sp.contact.penalty;
    return s;
}

/// One assembly pass over `contacts` at `epoch`: both phases, in the
/// engine's order, each priced into its own sink when one is given.
void assemble_pass(co::SolveWorkspace& ws, const Scene& s,
                   const std::vector<ct::Contact>& contacts,
                   const std::vector<ct::ContactGeometry>& geo, std::uint64_t epoch,
                   gdda::simt::KernelCost* diagonal = nullptr,
                   gdda::simt::KernelCost* nondiagonal = nullptr) {
    ws.assemble_diagonal(s.sys, s.att, s.sp, epoch, diagonal);
    ws.assemble_contacts(s.sys, contacts, geo, s.sp, nondiagonal);
}

co::SimConfig static_config() {
    co::SimConfig cfg;
    cfg.dt = 1e-3;
    cfg.dt_max = 2e-3;
    cfg.velocity_carry = 0.0;
    return cfg;
}

/// A same-structure matrix with different values (every entry perturbed).
sp::BsrMatrix scaled_values(const sp::BsrMatrix& a, double factor) {
    sp::BsrMatrix b = a;
    for (auto& m : b.diag)
        for (int r = 0; r < 6; ++r)
            for (int c = 0; c < 6; ++c) m(r, c) *= factor;
    for (auto& m : b.vals)
        for (int r = 0; r < 6; ++r)
            for (int c = 0; c < 6; ++c) m(r, c) *= factor;
    return b;
}

} // namespace

TEST(ContactFingerprint, DetectsEveryStructuralChange) {
    std::vector<ct::Contact> contacts(3);
    contacts[0].bi = 0;
    contacts[0].bj = 1;
    contacts[0].kind = ct::ContactKind::VE;
    contacts[1].bi = 1;
    contacts[1].bj = 2;
    contacts[1].kind = ct::ContactKind::VV1;
    contacts[2].bi = 2;
    contacts[2].bj = 3;
    contacts[2].kind = ct::ContactKind::VE;

    const auto base = as::contact_fingerprint(4, contacts);
    EXPECT_EQ(base, as::contact_fingerprint(4, contacts)); // deterministic

    auto removed = contacts;
    removed.pop_back(); // a contact disappears
    EXPECT_NE(base, as::contact_fingerprint(4, removed));

    auto added = contacts;
    added.push_back(contacts[0]); // a contact appears
    EXPECT_NE(base, as::contact_fingerprint(4, added));

    auto rekinded = contacts;
    rekinded[1].kind = ct::ContactKind::VV2; // same pair, different kind
    EXPECT_NE(base, as::contact_fingerprint(4, rekinded));

    auto reordered = contacts;
    std::swap(reordered[0], reordered[2]); // summation order changes
    EXPECT_NE(base, as::contact_fingerprint(4, reordered));

    EXPECT_NE(base, as::contact_fingerprint(5, contacts)); // block count changes
}

TEST(Hsbcsr, RefillBitIdenticalToFullConversion) {
    const auto a1 = gdda::testutil::random_spd_bsr(9, 8, 11);
    const auto a2 = scaled_values(a1, 1.375); // exact in binary
    sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a1);
    sp::hsbcsr_refill(h, a2);
    const sp::HsbcsrMatrix fresh = sp::hsbcsr_from_bsr(a2);
    EXPECT_EQ(h.d_data, fresh.d_data);
    EXPECT_EQ(h.nd_data_up, fresh.nd_data_up);
    EXPECT_EQ(h.rc, fresh.rc);
    EXPECT_EQ(h.row_up_i, fresh.row_up_i);
    EXPECT_EQ(h.row_low_i, fresh.row_low_i);
    EXPECT_EQ(h.row_low_p, fresh.row_low_p);
}

TEST(Hsbcsr, RefillRejectsStructureMismatch) {
    const auto a = gdda::testutil::random_spd_bsr(9, 8, 11);
    const auto smaller = gdda::testutil::random_spd_bsr(5, 2, 12);
    sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    EXPECT_THROW(sp::hsbcsr_refill(h, smaller), std::invalid_argument);
}

TEST(Preconditioner, RefactorBitIdenticalToFreshForAllKinds) {
    const auto a1 = gdda::testutil::random_spd_bsr(8, 6, 21);
    const auto a2 = scaled_values(a1, 1.25);
    const auto r = gdda::testutil::random_block_vec(8, 22);
    for (auto kind :
         {co::PrecondKind::BlockJacobi, co::PrecondKind::SsorAi, co::PrecondKind::Ilu0}) {
        auto reused = co::make_preconditioner(kind, a1);
        ASSERT_NE(reused, nullptr);
        // Scaling preserves exact zeros, so even ILU(0)'s scalar pattern
        // holds and refactor must report the cached pattern as reused.
        EXPECT_TRUE(reused->refactor(a2));
        const auto fresh = co::make_preconditioner(kind, a2);
        sp::BlockVec z_reused(8), z_fresh(8);
        reused->apply(r, z_reused);
        fresh->apply(r, z_fresh);
        expect_bitwise_eq(z_reused, z_fresh);
    }
}

TEST(Pcg, CallerWorkspaceBitIdenticalAndReusable) {
    const auto a = gdda::testutil::random_spd_bsr(10, 9, 31);
    const auto h = sp::hsbcsr_from_bsr(a);
    const auto b = gdda::testutil::random_block_vec(10, 32);
    const auto pre = so::make_block_jacobi(a);

    sp::BlockVec x_plain(10);
    const auto r_plain = so::pcg(h, b, x_plain, *pre);

    so::PcgWorkspace ws;
    sp::BlockVec x_ws(10);
    const auto r_ws = so::pcg(h, b, x_ws, *pre, {}, nullptr, &ws);
    EXPECT_EQ(r_plain.iterations, r_ws.iterations);
    expect_bitwise_eq(x_plain, x_ws);

    // Second solve through the same (now dirty) workspace: still identical.
    sp::BlockVec x_again(10);
    const auto r_again = so::pcg(h, b, x_again, *pre, {}, nullptr, &ws);
    EXPECT_EQ(r_plain.iterations, r_again.iterations);
    expect_bitwise_eq(x_plain, x_again);
}

TEST(SolveWorkspace, WarmPassBitIdenticalToColdAndToReference) {
    Scene s = make_scene();
    ASSERT_FALSE(s.contacts.empty());

    co::SolveWorkspace ws;
    assemble_pass(ws, s, s.contacts, s.geo, 1);
    ws.prepare_solve(co::PrecondKind::BlockJacobi, nullptr);
    EXPECT_FALSE(ws.warm());
    EXPECT_EQ(ws.stats().cold_structure_builds, 1u);
    const auto dense_cold = sp::to_dense(ws.assembled().k);
    const auto f_cold = ws.assembled().f;
    const auto h_d_cold = ws.matrix().d_data;
    const auto h_nd_cold = ws.matrix().nd_data_up;

    // Same contacts, same epoch: fully warm pass.
    assemble_pass(ws, s, s.contacts, s.geo, 1);
    ws.prepare_solve(co::PrecondKind::BlockJacobi, nullptr);
    EXPECT_TRUE(ws.warm());
    EXPECT_EQ(ws.stats().cold_structure_builds, 1u);
    EXPECT_EQ(ws.stats().warm_numeric_refills, 1u);
    EXPECT_EQ(ws.stats().diag_physics_reuses, 1u);
    EXPECT_EQ(ws.stats().precond_refactors, 1u);
    EXPECT_GT(ws.stats().structural_kernels_skipped, 0u);
    EXPECT_EQ(dense_cold, sp::to_dense(ws.assembled().k));
    expect_bitwise_eq(f_cold, ws.assembled().f);
    EXPECT_EQ(h_d_cold, ws.matrix().d_data);
    EXPECT_EQ(h_nd_cold, ws.matrix().nd_data_up);

    // New epoch (dt or block state changed): diagonal physics recomputes,
    // structure stays warm.
    assemble_pass(ws, s, s.contacts, s.geo, 2);
    EXPECT_TRUE(ws.warm());
    EXPECT_EQ(ws.stats().diag_physics_reuses, 1u);
    EXPECT_EQ(dense_cold, sp::to_dense(ws.assembled().k));

    // The whole path agrees with the reference assembler bitwise.
    const auto ref = as::assemble_serial(s.sys, s.att, s.contacts, s.geo, s.sp);
    EXPECT_EQ(dense_cold, sp::to_dense(ref.k));
    expect_bitwise_eq(f_cold, ref.f);
}

TEST(SolveWorkspace, OffDiagonalSkipFollowsWhatWasPlaced) {
    // Passes over one contact list whose states go all-open, all-open,
    // half-closed, all-open, all-open: the zero fill and the off-diagonal
    // refill are skipped only while neither the last pass nor this one
    // placed anything off the diagonal. Every pass must match the
    // reference assembler and a full HSBCSR conversion bit for bit.
    Scene s = make_scene();
    ASSERT_GT(s.contacts.size(), 4u);
    auto bits = [](const std::vector<double>& v) {
        std::vector<std::uint64_t> out(v.size());
        for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<std::uint64_t>(v[i]);
        return out;
    };
    co::SolveWorkspace ws;
    const bool closed_half[] = {false, false, true, false, false};
    std::uint64_t epoch = 0;
    for (bool closed : closed_half) {
        for (std::size_t c = 0; c < s.contacts.size(); ++c)
            s.contacts[c].state = closed && c % 2 == 0 ? ct::ContactState::Lock
                                                       : ct::ContactState::Open;
        assemble_pass(ws, s, s.contacts, s.geo, ++epoch);
        ws.prepare_solve(co::PrecondKind::BlockJacobi, nullptr);
        const as::AssembledSystem ref = as::assemble_serial(s.sys, s.att, s.contacts, s.geo, s.sp);
        as::AssembledSystem fresh;
        as::assemble_diagonal(fresh, s.sys, s.att, s.sp);
        EXPECT_EQ(as::AssemblyPlan(static_cast<int>(s.sys.size()), s.contacts)
                      .assemble_contacts(fresh, s.sys, s.contacts, s.geo, s.sp),
                  closed);
        ASSERT_EQ(ws.assembled().k.vals.size(), ref.k.vals.size());
        for (std::size_t q = 0; q < ref.k.vals.size(); ++q)
            for (int r = 0; r < 6; ++r)
                for (int c = 0; c < 6; ++c)
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(ws.assembled().k.vals[q](r, c)),
                              std::bit_cast<std::uint64_t>(ref.k.vals[q](r, c)));
        const sp::HsbcsrMatrix full = sp::hsbcsr_from_bsr(ref.k);
        EXPECT_EQ(bits(ws.matrix().nd_data_up), bits(full.nd_data_up));
        EXPECT_EQ(bits(ws.matrix().d_data), bits(full.d_data));
    }
    EXPECT_EQ(ws.stats().cold_structure_builds, 1u);
}

TEST(SolveWorkspace, PricedPassesBitIdenticalColdAndWarm) {
    Scene s = make_scene();
    ASSERT_FALSE(s.contacts.empty());

    // A Gpu-mode caller passes cost sinks; the numbers must not notice.
    co::SolveWorkspace priced;
    co::SolveWorkspace plain;
    gdda::simt::KernelCost diagonal = gdda::simt::KernelCost::accumulator();
    gdda::simt::KernelCost nondiagonal = gdda::simt::KernelCost::accumulator();
    assemble_pass(priced, s, s.contacts, s.geo, 1, &diagonal, &nondiagonal);
    assemble_pass(plain, s, s.contacts, s.geo, 1);
    const auto dense_cold = sp::to_dense(priced.assembled().k);
    EXPECT_EQ(dense_cold, sp::to_dense(plain.assembled().k));
    assemble_pass(priced, s, s.contacts, s.geo, 1, &diagonal, &nondiagonal);
    EXPECT_TRUE(priced.warm());
    EXPECT_EQ(dense_cold, sp::to_dense(priced.assembled().k));

    const auto ref = as::assemble_serial(s.sys, s.att, s.contacts, s.geo, s.sp);
    EXPECT_EQ(dense_cold, sp::to_dense(ref.k));
    expect_bitwise_eq(priced.assembled().f, ref.f);

    // The workspace priced the cold pass as a full build (diag_build: 2
    // launches, nondiag_build: 30) and the warm one as a refill (diag_copy:
    // 1, nondiag_refill: 2).
    EXPECT_EQ(diagonal.launches, 2 + 1);
    EXPECT_EQ(nondiagonal.launches, 30 + 2);
}

TEST(SolveWorkspace, InvalidatesWhenContactsAppearOrDisappear) {
    Scene s = make_scene();
    ASSERT_GE(s.contacts.size(), 2u);

    co::SolveWorkspace ws;
    assemble_pass(ws, s, s.contacts, s.geo, 1);
    assemble_pass(ws, s, s.contacts, s.geo, 1);
    EXPECT_TRUE(ws.warm());

    // A contact disappears: the next pass must rebuild cold and match a
    // from-scratch workspace bitwise.
    auto fewer = s.contacts;
    auto fewer_geo = s.geo;
    fewer.pop_back();
    fewer_geo.pop_back();
    assemble_pass(ws, s, fewer, fewer_geo, 1);
    EXPECT_FALSE(ws.warm());
    EXPECT_EQ(ws.stats().cold_structure_builds, 2u);
    co::SolveWorkspace fresh;
    assemble_pass(fresh, s, fewer, fewer_geo, 1);
    EXPECT_EQ(sp::to_dense(fresh.assembled().k), sp::to_dense(ws.assembled().k));
    expect_bitwise_eq(fresh.assembled().f, ws.assembled().f);

    // A contact appears: cold again.
    assemble_pass(ws, s, s.contacts, s.geo, 1);
    EXPECT_FALSE(ws.warm());
    EXPECT_EQ(ws.stats().cold_structure_builds, 3u);

    // invalidate() forces the cold path even with an unchanged set.
    assemble_pass(ws, s, s.contacts, s.geo, 1);
    EXPECT_TRUE(ws.warm());
    ws.invalidate();
    assemble_pass(ws, s, s.contacts, s.geo, 1);
    EXPECT_FALSE(ws.warm());
}

TEST(SolveWorkspace, InvalidateForcesExactlyOneColdBuild) {
    Scene s = make_scene();
    co::SolveWorkspace ws;
    assemble_pass(ws, s, s.contacts, s.geo, 1);
    assemble_pass(ws, s, s.contacts, s.geo, 1);
    ASSERT_TRUE(ws.warm());
    const auto dense_warm = sp::to_dense(ws.assembled().k);
    const auto f_warm = ws.assembled().f;

    ws.invalidate();
    assemble_pass(ws, s, s.contacts, s.geo, 1);
    EXPECT_FALSE(ws.warm());
    EXPECT_EQ(ws.stats().cold_structure_builds, 2u);
    EXPECT_EQ(ws.stats().diag_physics_reuses, 1u); // the dropped cache recomputed
    EXPECT_EQ(dense_warm, sp::to_dense(ws.assembled().k));
    expect_bitwise_eq(f_warm, ws.assembled().f);

    // The very next pass is warm again: one invalidate, one cold build.
    assemble_pass(ws, s, s.contacts, s.geo, 1);
    EXPECT_TRUE(ws.warm());
    EXPECT_EQ(ws.stats().cold_structure_builds, 2u);
    EXPECT_EQ(ws.stats().warm_numeric_refills, 2u);
    EXPECT_EQ(ws.stats().diag_physics_reuses, 2u);
}

namespace {

// Structure reuse on vs off, without a switch: restore(capture()) drops the
// solve workspace and the pair cache, so every step of the "off" run starts
// from a cold rebuild. Warm structure reuse must be bitwise invisible.
void expect_reuse_invisible(co::EngineMode mode) {
    constexpr int kSteps = 20;
    for (auto kind : {co::PrecondKind::BlockJacobi, co::PrecondKind::SsorAi,
                      co::PrecondKind::Ilu0}) {
        SCOPED_TRACE("precond " + std::to_string(static_cast<int>(kind)));
        co::SimConfig cfg = static_config();
        cfg.precond = kind;

        bl::BlockSystem sys_on = mo::make_column(4, 0.005);
        bl::BlockSystem sys_off = mo::make_column(4, 0.005);
        co::DdaEngine eng_on(sys_on, cfg, mode);
        co::DdaEngine eng_off(sys_off, cfg, mode);
        for (int s = 0; s < kSteps; ++s) {
            eng_on.step();
            eng_off.restore(eng_off.capture());
            eng_off.step();
        }

        EXPECT_EQ(bl::state_fingerprint(sys_on), bl::state_fingerprint(sys_off));
        expect_same_state(sys_on, sys_off);
        expect_bitwise_eq(eng_on.warm_start(), eng_off.warm_start());
        // The reuse-on engine actually took warm passes; the restored one
        // rebuilt its structure and its candidate set every step.
        EXPECT_GT(eng_on.solve_workspace().stats().warm_numeric_refills, 0u);
        EXPECT_GE(eng_off.solve_workspace().stats().cold_structure_builds,
                  static_cast<std::uint64_t>(kSteps));
        EXPECT_EQ(eng_off.pair_cache().stats().rebuilds, static_cast<std::uint64_t>(kSteps));
    }
}

} // namespace

TEST(Engine, ReuseOnAndOffProduceBitwiseIdenticalTrajectories) {
    expect_reuse_invisible(co::EngineMode::Serial);
}

TEST(Engine, GpuModeReuseOnAndOffBitwiseIdentical) {
    expect_reuse_invisible(co::EngineMode::Gpu);
}

TEST(Engine, StaticContactSetDoesZeroStructuralRecomputation) {
    bl::BlockSystem sys = mo::make_column(3, 0.005);
    co::DdaEngine eng(sys, static_config(), co::EngineMode::Serial);
    eng.run(20); // settle: the contact set stops changing

    const auto before = eng.solve_workspace().stats();
    eng.run(10);
    const auto after = eng.solve_workspace().stats();
    EXPECT_EQ(after.cold_structure_builds, before.cold_structure_builds)
        << "static contact set must not rebuild any structure";
    EXPECT_GT(after.warm_numeric_refills, before.warm_numeric_refills);
    EXPECT_GT(after.structural_kernels_skipped, before.structural_kernels_skipped);
}
