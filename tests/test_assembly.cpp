// Assembly module: element sub-matrices, serial assembly properties, and
// the sort/scan GPU assembler's bit-identical equivalence (Fig. 4).

#include <gtest/gtest.h>

#include <cstring>

#include "assembly/assembler.hpp"
#include "assembly/gpu_assembler.hpp"
#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "solver/pcg.hpp"

namespace as = gdda::assembly;
namespace ct = gdda::contact;
namespace bl = gdda::block;
namespace sp = gdda::sparse;

namespace {

struct Fixture {
    bl::BlockSystem sys;
    as::BlockAttachments att;
    std::vector<ct::Contact> contacts;
    std::vector<ct::ContactGeometry> geo;
    as::StepParams sp;
};

Fixture make_fixture(bl::BlockSystem sys, bool close_contacts) {
    Fixture f;
    f.sys = std::move(sys);
    f.att = as::index_attachments(f.sys);
    const auto pairs = ct::broad_phase_triangular(f.sys, 0.05);
    auto np = ct::narrow_phase(f.sys, pairs, 0.05);
    f.contacts = std::move(np.contacts);
    if (close_contacts)
        for (ct::Contact& c : f.contacts) c.state = ct::ContactState::Lock;
    f.geo = ct::init_all_contacts(f.sys, f.contacts);
    f.sp.dt = 1e-3;
    f.sp.velocity_carry = 1.0;
    f.sp.contact.penalty = 2e10;
    f.sp.contact.shear_penalty = 2e10;
    f.sp.fixed_penalty = 2e10;
    return f;
}

/// Bitwise equality of two assembled systems. memcmp, not ==, because
/// -0.0 == +0.0 would hide a sign flip.
::testing::AssertionResult same_system_bits(const as::AssembledSystem& a,
                                            const as::AssembledSystem& b) {
    if (a.k.n != b.k.n || a.k.row_ptr != b.k.row_ptr || a.k.col_idx != b.k.col_idx)
        return ::testing::AssertionFailure() << "structure differs";
    if (a.k.diag.size() != b.k.diag.size() || a.k.vals.size() != b.k.vals.size() ||
        a.f.size() != b.f.size())
        return ::testing::AssertionFailure() << "sizes differ";
    if (std::memcmp(a.k.diag.data(), b.k.diag.data(), a.k.diag.size() * sizeof(sp::Mat6)))
        return ::testing::AssertionFailure() << "diag bits differ";
    if (!a.k.vals.empty() &&
        std::memcmp(a.k.vals.data(), b.k.vals.data(), a.k.vals.size() * sizeof(sp::Mat6)))
        return ::testing::AssertionFailure() << "vals bits differ";
    if (std::memcmp(a.f.data(), b.f.data(), a.f.size() * sizeof(sp::Vec6)))
        return ::testing::AssertionFailure() << "rhs bits differ";
    return ::testing::AssertionSuccess();
}

/// Open / Slide / Lock by contact index, rotated by `shift`, with nonzero
/// spring bookkeeping so every state reads its inputs.
void assign_states(std::vector<ct::Contact>& contacts, int shift) {
    for (std::size_t i = 0; i < contacts.size(); ++i) {
        ct::Contact& c = contacts[i];
        c.state = static_cast<ct::ContactState>((i + shift) % 3);
        c.shear_disp = 1e-6 * static_cast<double>(i % 5);
        c.slide_sign = i % 2 ? -1.0 : 1.0;
        c.last_gap = -1e-5 * static_cast<double>(i % 4);
    }
}

} // namespace

TEST(Submatrices, DiagonalContainsInertiaAndGravity) {
    Fixture f = make_fixture(gdda::models::make_free_block(5.0), false);
    sp::Mat6 k;
    sp::Vec6 rhs;
    as::block_diagonal(f.sys, f.att, 0, f.sp, k, rhs);
    const bl::Block& b = f.sys.blocks[0];
    const double mass = f.sys.materials[0].density * b.area;
    // Translation diagonal = 2M/dt^2.
    EXPECT_NEAR(k(0, 0), 2.0 * mass / (f.sp.dt * f.sp.dt), 1e-3 * k(0, 0));
    // Gravity load on v0 row.
    EXPECT_NEAR(rhs[1], mass * f.sys.gravity.y, 1e-6 * std::abs(rhs[1]));
    EXPECT_NEAR(rhs[0], 0.0, 1e-9);
    EXPECT_TRUE(k.is_symmetric(1e-6 * k.max_abs()));
}

TEST(Submatrices, VelocityLoadOnlyInDynamicMode) {
    Fixture f = make_fixture(gdda::models::make_free_block(5.0), false);
    f.sys.blocks[0].velocity[1] = -3.0;
    sp::Mat6 k;
    sp::Vec6 dyn;
    as::block_diagonal(f.sys, f.att, 0, f.sp, k, dyn);
    f.sp.velocity_carry = 0.0;
    sp::Vec6 sta;
    as::block_diagonal(f.sys, f.att, 0, f.sp, k, sta);
    const double mass = f.sys.materials[0].density * f.sys.blocks[0].area;
    EXPECT_NEAR(dyn[1] - sta[1], 2.0 * mass / f.sp.dt * -3.0, 1e-3 * mass / f.sp.dt);
}

TEST(Submatrices, InitialStressEntersRhs) {
    Fixture f = make_fixture(gdda::models::make_free_block(5.0), false);
    f.sys.blocks[0].stress = {1e5, -2e5, 3e4};
    sp::Mat6 k;
    sp::Vec6 rhs;
    as::block_diagonal(f.sys, f.att, 0, f.sp, k, rhs);
    const double area = f.sys.blocks[0].area;
    EXPECT_NEAR(rhs[3], -area * 1e5, 1e-6 * area * 1e5);
    EXPECT_NEAR(rhs[4], +area * 2e5, 1e-6 * area * 2e5);
    EXPECT_NEAR(rhs[5], -area * 3e4, 1e-6 * area * 3e4);
}

TEST(Submatrices, PointLoadUsesBasis) {
    bl::BlockSystem sys = gdda::models::make_free_block(0.0);
    sys.point_loads.push_back({.block = 0, .point = {0.5, 1.0}, .force = {10.0, 0.0}});
    Fixture f = make_fixture(std::move(sys), false);
    sp::Mat6 k;
    sp::Vec6 rhs;
    as::block_diagonal(f.sys, f.att, 0, f.sp, k, rhs);
    // Force at (0.5, 1.0): centroid (0, 0.5), offset (0.5, 0.5). Moment row:
    // -(y-y0)*Fx = -0.5*10 = -5 on r0.
    EXPECT_NEAR(rhs[0], 10.0, 1e-9);
    EXPECT_NEAR(rhs[2], -5.0, 1e-9);
}

TEST(Submatrices, ContactContributionSymmetricPair) {
    Fixture f = make_fixture(gdda::models::make_block_on_floor(0.001), true);
    ASSERT_FALSE(f.contacts.empty());
    const as::ContactContribution cc =
        as::contact_contribution(f.sys, f.contacts[0], f.geo[0], f.sp.contact);
    ASSERT_TRUE(cc.active);
    EXPECT_TRUE(cc.kii.is_symmetric(1e-6 * cc.kii.max_abs() + 1e-12));
    EXPECT_TRUE(cc.kjj.is_symmetric(1e-6 * cc.kjj.max_abs() + 1e-12));
    // Rank-1 structure: kij = p * e g^T => kij(a,b)*kii(c,c)... check via
    // the defining vectors instead: kii = p e e^T means kii * x ~ e.
    EXPECT_GT(cc.kii.max_abs(), 0.0);
}

TEST(Submatrices, OpenContactInactive) {
    Fixture f = make_fixture(gdda::models::make_block_on_floor(0.001), false);
    ASSERT_FALSE(f.contacts.empty());
    const as::ContactContribution cc =
        as::contact_contribution(f.sys, f.contacts[0], f.geo[0], f.sp.contact);
    EXPECT_FALSE(cc.active);
    EXPECT_DOUBLE_EQ(cc.kii.max_abs(), 0.0);
}

TEST(Assemble, MatrixIsSymmetricSpd) {
    Fixture f = make_fixture(gdda::models::make_column(3), true);
    const as::AssembledSystem s =
        as::assemble_serial(f.sys, f.att, f.contacts, f.geo, f.sp);
    EXPECT_EQ(s.k.n, 4);
    EXPECT_TRUE(s.k.diag_symmetric(1e-4));
    // SPD check: CG on the assembled system converges.
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(s.k);
    sp::BlockVec x(s.k.n);
    const auto r = gdda::solver::cg(h, s.f, x, {.max_iters = 2000, .rel_tol = 1e-8});
    EXPECT_TRUE(r.converged);
}

TEST(Assemble, StructureIncludesOpenContacts) {
    Fixture fo = make_fixture(gdda::models::make_column(3), false);
    Fixture fc = make_fixture(gdda::models::make_column(3), true);
    const auto so = as::assemble_serial(fo.sys, fo.att, fo.contacts, fo.geo, fo.sp);
    const auto sc = as::assemble_serial(fc.sys, fc.att, fc.contacts, fc.geo, fc.sp);
    // Same sparsity pattern regardless of contact state.
    EXPECT_EQ(so.k.col_idx, sc.k.col_idx);
    EXPECT_EQ(so.k.row_ptr, sc.k.row_ptr);
}

TEST(Assemble, GpuAssemblerBitIdentical) {
    for (int model = 0; model < 3; ++model) {
        Fixture f = make_fixture(model == 0   ? gdda::models::make_block_on_floor(0.001)
                                 : model == 1 ? gdda::models::make_column(4)
                                              : gdda::models::make_incline(20.0, 30.0),
                                 true);
        double ds = 0.0;
        const auto a = as::assemble_serial(f.sys, f.att, f.contacts, f.geo, f.sp, &ds);
        as::GpuAssemblyCosts costs;
        const auto b = as::assemble_gpu(f.sys, f.att, f.contacts, f.geo, f.sp, &costs);

        ASSERT_EQ(a.k.n, b.k.n);
        ASSERT_EQ(a.k.col_idx, b.k.col_idx);
        ASSERT_EQ(a.k.row_ptr, b.k.row_ptr);
        for (std::size_t i = 0; i < a.k.vals.size(); ++i)
            for (int e = 0; e < 36; ++e)
                EXPECT_EQ(a.k.vals[i].a[e], b.k.vals[i].a[e]) << "model " << model;
        for (std::size_t i = 0; i < a.k.diag.size(); ++i)
            for (int e = 0; e < 36; ++e)
                EXPECT_EQ(a.k.diag[i].a[e], b.k.diag[i].a[e]) << "model " << model;
        for (std::size_t i = 0; i < a.f.size(); ++i)
            for (int e = 0; e < 6; ++e) EXPECT_EQ(a.f[i][e], b.f[i][e]);
        EXPECT_GT(costs.nondiagonal.flops, 0.0);
        EXPECT_GT(costs.diagonal.flops, 0.0);
    }
}

TEST(Assemble, GpuSkipsOpenContactsBitIdentical) {
    Fixture f = make_fixture(gdda::models::make_slope_with_blocks(60), false);
    ASSERT_GT(f.contacts.size(), 30u);
    const int n = static_cast<int>(f.sys.size());

    as::GpuAssemblyPlan gplan;
    gplan.build(n, f.contacts);
    const as::AssemblyPlan plan(n, f.contacts);
    as::DiagPhysicsCache gcache;
    as::DiagPhysicsCache cache;
    as::AssembledSystem gout;
    as::AssembledSystem out;
    auto check = [&](const char* what) {
        const as::AssembledSystem ref =
            as::assemble_serial(f.sys, f.att, f.contacts, f.geo, f.sp);
        EXPECT_TRUE(same_system_bits(ref, as::assemble_gpu(f.sys, f.att, f.contacts, f.geo,
                                                           f.sp)))
            << what;
        gplan.assemble_into(gout, f.sys, f.att, f.contacts, f.geo, f.sp, nullptr, nullptr,
                            &gcache, /*warm=*/true);
        EXPECT_TRUE(same_system_bits(ref, gout)) << what << " (gpu plan, memo)";
        plan.assemble_into(out, f.sys, f.att, f.contacts, f.geo, f.sp, nullptr, &cache);
        EXPECT_TRUE(same_system_bits(ref, out)) << what << " (serial plan, memo)";
    };

    // Mixed states, then every contact switched, then back: the memo must
    // recall the first pass's entries only where their inputs still match.
    assign_states(f.contacts, 0);
    check("mixed");
    assign_states(f.contacts, 1);
    check("rotated");
    assign_states(f.contacts, 0);
    check("mixed again");

    // A dropped memo (new displacement attempt) must not resurrect entries
    // stored before it, even for contacts that stayed open in between: the
    // penalty changes, so a stale recall would show in the bits.
    for (as::DiagPhysicsCache* c : {&gcache, &cache}) {
        c->valid = false;
        c->memo_valid = false;
    }
    f.sp.contact.penalty *= 3.0;
    for (ct::Contact& c : f.contacts) c.state = ct::ContactState::Open;
    check("all open, new penalty");
    assign_states(f.contacts, 0);
    check("mixed, new penalty");
}

TEST(Assemble, CategoriesPartitionContacts) {
    Fixture f = make_fixture(gdda::models::make_column(4), true);
    for (std::size_t i = 0; i < f.contacts.size(); ++i) {
        f.contacts[i].p1 = static_cast<std::int8_t>(i % 3 == 0);
        f.contacts[i].p2 = static_cast<std::int8_t>(i % 3 == 1);
    }
    const as::CategoryStats st = as::classify_categories(f.contacts);
    EXPECT_EQ(st.c1 + st.c2 + st.c3 + st.c4 + st.c5 + st.abandoned, f.contacts.size());
}
