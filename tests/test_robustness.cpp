// Robustness mechanics: the contact-engineering details that keep penalty
// DDA stable — hysteresis bands, span gates, rate-limited penetration
// recovery, the containment safety net, and the assembly plan's equivalence
// with the reference assembler.

#include <gtest/gtest.h>

#include <cmath>

#include "assembly/assembler.hpp"
#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "contact/open_close.hpp"
#include "core/engine.hpp"
#include "core/interpenetration.hpp"
#include "models/falling_rocks.hpp"
#include "models/stacks.hpp"

namespace ct = gdda::contact;
namespace bl = gdda::block;
namespace as = gdda::assembly;
namespace co = gdda::core;
using gdda::geom::Vec2;

namespace {
bl::BlockSystem two_squares(double gap) {
    bl::BlockSystem sys;
    sys.add_block({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
    sys.add_block({{0, 1 + gap}, {1, 1 + gap}, {1, 2 + gap}, {0, 2 + gap}});
    return sys;
}

ct::Contact top_contact() {
    ct::Contact c;
    c.bi = 1;
    c.vi = 0;
    c.bj = 0;
    c.e1 = 2;
    c.e2 = 3;
    return c;
}
} // namespace

TEST(Hysteresis, ZeroGapContactDoesNotFlicker) {
    bl::BlockSystem sys = two_squares(0.0); // exact touch
    std::vector<ct::Contact> contacts{top_contact()};
    auto geo = ct::contact_geometry(sys, contacts);
    std::vector<ct::BlockMotion> motion(sys.size());
    ct::OpenCloseParams params;
    params.penalty = 1e10;
    params.shear_penalty = 1e10;
    params.open_tol = 1e-9;

    gdda::sparse::BlockVec d(2); // zero displacement: dn == 0 exactly
    // An open contact at gap zero must STAY open (closing needs dn < -tol)...
    const auto r1 = ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Open);
    EXPECT_EQ(r1.state_changes, 0);
    // ...and a locked contact at gap zero must STAY locked.
    contacts[0].state = ct::ContactState::Lock;
    const auto r2 = ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Lock);
    EXPECT_EQ(r2.state_changes, 0);
}

TEST(Hysteresis, NoiseWithinBandIgnored) {
    bl::BlockSystem sys = two_squares(0.0);
    std::vector<ct::Contact> contacts{top_contact()};
    contacts[0].state = ct::ContactState::Lock;
    auto geo = ct::contact_geometry(sys, contacts);
    std::vector<ct::BlockMotion> motion(sys.size());
    ct::OpenCloseParams params;
    params.penalty = 1e10;
    params.shear_penalty = 1e10;
    params.open_tol = 1e-8;

    gdda::sparse::BlockVec d(2);
    d[1][1] = +5e-9; // separation smaller than the band
    ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Lock);
    d[1][1] = +5e-8; // beyond the band: opens
    ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Open);
}

TEST(SpanGate, PhantomDeepContactRefusesToClose) {
    // Vertex far behind the edge's extended line but laterally off the
    // segment: the line gap is hugely negative, yet there is no overlap.
    bl::BlockSystem sys;
    sys.add_block({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
    sys.add_block({{-1.2, -0.8}, {-0.2, -0.8}, {-0.2, 0.2}, {-1.2, 0.2}});
    ct::Contact c;
    c.bi = 1;
    c.vi = 2; // (-0.2, 0.2): behind block 0's top-edge line? use bottom edge
    c.bj = 0;
    c.e1 = 0; // bottom edge (0,0)-(2,0): vertex is above it (gap < 0) but
    c.e2 = 1; // off-span to the left (ratio < 0)
    std::vector<ct::Contact> contacts{c};
    auto geo = ct::contact_geometry(sys, contacts);
    std::vector<ct::BlockMotion> motion(sys.size());
    EXPECT_LT(geo[0].gap0, 0.0);
    EXPECT_LT(geo[0].ratio, -0.01);

    ct::OpenCloseParams params;
    params.penalty = 1e10;
    params.shear_penalty = 1e10;
    gdda::sparse::BlockVec d(2);
    ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Open);
    // And phantom depth does not pollute the penetration metric.
    const auto r = ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_DOUBLE_EQ(r.max_penetration, 0.0);
}

TEST(SpanGate, LockedContactOpensWhenVertexLeavesSpan) {
    bl::BlockSystem sys = two_squares(0.0);
    std::vector<ct::Contact> contacts{top_contact()};
    contacts[0].state = ct::ContactState::Lock;
    // Slide the top block sideways so its vertex passes the edge end.
    for (Vec2& p : sys.blocks[1].verts) p.x += 1.4;
    auto geo = ct::contact_geometry(sys, contacts);
    std::vector<ct::BlockMotion> motion(sys.size());
    EXPECT_TRUE(geo[0].ratio < -0.25 || geo[0].ratio > 1.25);

    ct::OpenCloseParams params;
    params.penalty = 1e10;
    params.shear_penalty = 1e10;
    gdda::sparse::BlockVec d(2);
    ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Open);
}

TEST(SpanGate, ClosingDepthGateBlocksDeepFreshContacts) {
    bl::BlockSystem sys = two_squares(0.0);
    // Push the top block DOWN so the contact is deeply penetrated.
    for (Vec2& p : sys.blocks[1].verts) p.y -= 0.5;
    std::vector<ct::Contact> contacts{top_contact()};
    auto geo = ct::contact_geometry(sys, contacts);
    std::vector<ct::BlockMotion> motion(sys.size());
    ASSERT_LT(geo[0].gap0, -0.4);

    ct::OpenCloseParams params;
    params.penalty = 1e10;
    params.shear_penalty = 1e10;
    params.max_closing_depth = 0.1;
    gdda::sparse::BlockVec d(2);
    ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Open); // too deep to grab
    params.max_closing_depth = 1.0;
    ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Lock); // within the gate
}

TEST(RateLimit, DeepOverlapForceIsCapped) {
    bl::BlockSystem sys = two_squares(0.0);
    for (Vec2& p : sys.blocks[1].verts) p.y -= 0.2; // 0.2 overlap
    std::vector<ct::Contact> contacts{top_contact()};
    contacts[0].state = ct::ContactState::Lock;
    auto geo = ct::contact_geometry(sys, contacts);

    ct::OpenCloseParams params;
    params.penalty = 1e10;
    params.shear_penalty = 1e10;
    params.max_push = 0.01;
    const auto capped = as::contact_contribution(sys, contacts[0], geo[0], params);
    params.max_push = 1e30;
    const auto full = as::contact_contribution(sys, contacts[0], geo[0], params);
    // Stiffness identical, load vector capped at max_push * penalty.
    for (int e = 0; e < 36; ++e) EXPECT_EQ(capped.kii.a[e], full.kii.a[e]);
    EXPECT_NEAR(capped.fi.norm() / full.fi.norm(), 0.01 / 0.2, 1e-9);
}

TEST(RateLimit, DeepOverlapRecoversWithoutVelocityExplosion) {
    // Start a simulation from an (artificially) overlapped pair and verify
    // the springs separate the blocks at bounded velocity.
    bl::BlockSystem sys = gdda::models::make_block_on_floor(0.0);
    for (Vec2& p : sys.blocks[1].verts) p.y -= 0.05; // 5 cm into the floor
    co::SimConfig cfg;
    cfg.dt = 1e-3;
    cfg.dt_max = 1e-3;
    cfg.velocity_carry = 1.0;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    double vmax = 0.0;
    for (int i = 0; i < 400; ++i) {
        eng.step();
        for (int k = 0; k < 6; ++k)
            vmax = std::max(vmax, std::abs(sys.blocks[1].velocity[k]));
    }
    EXPECT_LT(vmax, 30.0); // no hundreds-of-m/s ejection
    EXPECT_LT(co::audit_interpenetration(sys).max_depth, 5e-3); // resolved
}

TEST(SafetyNet, ContainedVertexAlwaysGetsContact) {
    // A vertex fully inside another block must yield a VE contact on the
    // nearest edge even when every angle/corner filter would reject it.
    bl::BlockSystem sys;
    sys.add_block({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
    // Small rotated block whose lowest vertex dips into the big one.
    sys.add_block({{2.0, 3.7}, {3.0, 4.3}, {2.4, 5.2}, {1.4, 4.6}});
    ASSERT_TRUE(gdda::geom::contains(sys.blocks[0].verts, sys.blocks[1].verts[0], 0.0));

    const auto pairs = ct::broad_phase_triangular(sys, 0.05);
    const auto np = ct::narrow_phase(sys, pairs, 0.05);
    bool found = false;
    for (const ct::Contact& c : np.contacts)
        if (c.bi == 1 && c.vi == 0 && c.bj == 0) found = true;
    EXPECT_TRUE(found);
}

TEST(BroadPhase, FixedFixedPairsSkipped) {
    bl::BlockSystem sys;
    sys.add_block({{0, 0}, {1, 0}, {1, 1}, {0, 1}}, 0, /*fixed=*/true);
    sys.add_block({{1, 0}, {2, 0}, {2, 1}, {1, 1}}, 0, /*fixed=*/true);
    sys.add_block({{0.2, 1.01}, {0.8, 1.01}, {0.8, 1.6}, {0.2, 1.6}}, 0);
    const auto tri = ct::broad_phase_triangular(sys, 0.1);
    for (const auto& p : tri)
        EXPECT_FALSE(sys.blocks[p.a].fixed && sys.blocks[p.b].fixed);
    const auto bal = ct::broad_phase_balanced(sys, 0.1);
    EXPECT_EQ(tri.size(), bal.size());
}

TEST(AssemblyPlan, BitIdenticalToReferenceAssembler) {
    for (int model = 0; model < 2; ++model) {
        bl::BlockSystem sys = model == 0 ? gdda::models::make_column(4)
                                         : gdda::models::make_incline(25.0, 20.0);
        const auto att = as::index_attachments(sys);
        const auto pairs = ct::broad_phase_triangular(sys, 0.05);
        auto np = ct::narrow_phase(sys, pairs, 0.05);
        for (std::size_t i = 0; i < np.contacts.size(); ++i)
            np.contacts[i].state = (i % 3 == 0) ? ct::ContactState::Open
                                  : (i % 3 == 1) ? ct::ContactState::Slide
                                                 : ct::ContactState::Lock;
        auto geo = ct::contact_geometry(sys, np.contacts);
        as::StepParams sp;
        sp.contact.penalty = 1e10;
        sp.contact.shear_penalty = 1e10;
        sp.fixed_penalty = 1e10;

        const auto ref = as::assemble_serial(sys, att, np.contacts, geo, sp);
        const as::AssemblyPlan plan(static_cast<int>(sys.size()), np.contacts);
        const auto fast = plan.assemble(sys, att, np.contacts, geo, sp);

        ASSERT_EQ(ref.k.row_ptr, fast.k.row_ptr);
        ASSERT_EQ(ref.k.col_idx, fast.k.col_idx);
        for (std::size_t i = 0; i < ref.k.diag.size(); ++i)
            for (int e = 0; e < 36; ++e) EXPECT_EQ(ref.k.diag[i].a[e], fast.k.diag[i].a[e]);
        for (std::size_t i = 0; i < ref.k.vals.size(); ++i)
            for (int e = 0; e < 36; ++e) EXPECT_EQ(ref.k.vals[i].a[e], fast.k.vals[i].a[e]);
        for (std::size_t i = 0; i < ref.f.size(); ++i)
            for (int e = 0; e < 6; ++e) EXPECT_EQ(ref.f[i][e], fast.f[i][e]);
    }
}

TEST(FrictionHysteresis, SlideRelocksOnlyWithMargin) {
    bl::BlockSystem sys = two_squares(0.0);
    sys.joints[0].friction_deg = 30.0;
    std::vector<ct::Contact> contacts{top_contact()};
    contacts[0].state = ct::ContactState::Slide;
    contacts[0].slide_sign = 1.0;
    auto geo = ct::contact_geometry(sys, contacts);
    std::vector<ct::BlockMotion> motion(sys.size());

    ct::OpenCloseParams params;
    params.penalty = 1e10;
    params.shear_penalty = 1e10;

    // Compression dn = -1e-5 => N = 1e5, friction limit = N tan30 ~ 5.77e4.
    // Shear force just below the limit (95%): within the 10% margin, a
    // sliding contact keeps sliding (no flip back to lock).
    gdda::sparse::BlockVec d(2);
    d[1][1] = -1e-5;
    const double limit = 1e10 * 1e-5 * std::tan(30.0 * std::acos(-1.0) / 180.0);
    // Top edge of block 0 runs (1,1)->(0,1): +x vertex motion = -shear.
    d[1][0] = -(0.95 * limit) / 1e10;
    ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Slide);

    // At 50% of the limit it re-locks.
    contacts[0].state = ct::ContactState::Slide;
    d[1][0] = -(0.5 * limit) / 1e10;
    ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Lock);
}

TEST(Engine, PenetrationGrowthRejected) {
    // A rock dropped fast enough to penetrate deeply in one stock step must
    // trigger dt reduction rather than committing the overlap.
    bl::BlockSystem sys = gdda::models::make_block_on_floor(0.05);
    sys.blocks[1].velocity[1] = -20.0; // 2 cm/step at dt=1e-3
    co::SimConfig cfg;
    cfg.dt = 1e-3;
    cfg.dt_max = 1e-3;
    cfg.velocity_carry = 1.0;
    co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
    for (int i = 0; i < 50; ++i) eng.step();
    EXPECT_LT(co::audit_interpenetration(sys).max_depth, 0.02);
    // The block bounced or rests; it did not tunnel through the floor.
    EXPECT_GT(sys.blocks[1].centroid.y, -0.5);
}
