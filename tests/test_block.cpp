// Block module: Shi's displacement basis, mass matrix, stress update,
// block-system bookkeeping, and the exact-rotation option.

#include <gtest/gtest.h>

#include <cmath>

#include "block/block_system.hpp"
#include "core/engine.hpp"
#include "models/stacks.hpp"

namespace bl = gdda::block;
namespace co = gdda::core;
using gdda::geom::Vec2;
using gdda::sparse::Mat6;
using gdda::sparse::Vec6;

namespace {
bl::Block unit_block(Vec2 origin = {0, 0}) {
    bl::Block b;
    b.verts = {origin, origin + Vec2{1, 0}, origin + Vec2{1, 1}, origin + Vec2{0, 1}};
    b.update_geometry();
    return b;
}

co::SimConfig dyn_config() {
    co::SimConfig cfg;
    cfg.dt = 1e-3;
    cfg.dt_max = 1e-3;
    cfg.velocity_carry = 1.0;
    return cfg;
}
} // namespace

TEST(Block, GeometryDerived) {
    const bl::Block b = unit_block({3, 4});
    EXPECT_NEAR(b.area, 1.0, 1e-14);
    EXPECT_NEAR(b.centroid.x, 3.5, 1e-14);
    EXPECT_NEAR(b.centroid.y, 4.5, 1e-14);
    EXPECT_NEAR(b.moments.sx, 0.0, 1e-12);
    EXPECT_NEAR(b.moments.sy, 0.0, 1e-12);
}

TEST(Block, DisplacementBasisTranslation) {
    const bl::Block b = unit_block();
    const Vec6 d{{0.3, -0.2, 0, 0, 0, 0}};
    const Vec2 u = b.displacement_at({0.7, 0.9}, d);
    EXPECT_DOUBLE_EQ(u.x, 0.3);
    EXPECT_DOUBLE_EQ(u.y, -0.2);
}

TEST(Block, DisplacementBasisRotation) {
    const bl::Block b = unit_block();
    const double r0 = 0.01;
    const Vec6 d{{0, 0, r0, 0, 0, 0}};
    // First-order rotation about the centroid: u = -r0*(y-y0), v = r0*(x-x0).
    const Vec2 p{1.0, 1.0};
    const Vec2 u = b.displacement_at(p, d);
    EXPECT_NEAR(u.x, -r0 * 0.5, 1e-15);
    EXPECT_NEAR(u.y, r0 * 0.5, 1e-15);
    // The centroid itself does not move.
    const Vec2 uc = b.displacement_at(b.centroid, d);
    EXPECT_DOUBLE_EQ(uc.x, 0.0);
    EXPECT_DOUBLE_EQ(uc.y, 0.0);
}

TEST(Block, DisplacementBasisStrain) {
    const bl::Block b = unit_block();
    const Vec6 d{{0, 0, 0, 0.01, -0.02, 0.004}};
    const Vec2 p{1.0, 1.0}; // offset (0.5, 0.5) from the centroid
    const Vec2 u = b.displacement_at(p, d);
    EXPECT_NEAR(u.x, 0.01 * 0.5 + 0.004 * 0.25, 1e-15); // ex*X + gxy*Y/2
    EXPECT_NEAR(u.y, -0.02 * 0.5 + 0.004 * 0.25, 1e-15);
}

TEST(Block, MassMatrixRigidEntries) {
    const bl::Block b = unit_block();
    const double rho = 2500.0;
    const Mat6 m = b.mass_matrix(rho);
    EXPECT_NEAR(m(0, 0), rho * 1.0, 1e-9);                 // translation = mass
    EXPECT_NEAR(m(1, 1), rho * 1.0, 1e-9);
    EXPECT_NEAR(m(2, 2), rho * (1.0 / 12 + 1.0 / 12), 1e-9); // polar inertia
    EXPECT_NEAR(m(0, 1), 0.0, 1e-12);
    EXPECT_NEAR(m(0, 2), 0.0, 1e-12); // centroidal: no coupling
    EXPECT_TRUE(m.is_symmetric(1e-12));
}

TEST(Block, MassMatrixPositiveDefinite) {
    const bl::Block b = unit_block({100, -3}); // far from origin
    const Mat6 m = b.mass_matrix(1.0);
    EXPECT_NO_THROW(gdda::sparse::Ldlt6{m}); // LDLT succeeds only if PD
}

TEST(Block, ApplyIncrementMovesAndStresses) {
    bl::Block b = unit_block();
    bl::Material mat;
    mat.young = 1e9;
    mat.poisson = 0.0;
    const Vec6 d{{0.1, 0.0, 0.0, 1e-4, 0.0, 0.0}};
    b.apply_increment(d, mat);
    EXPECT_NEAR(b.centroid.x, 0.6, 1e-6);
    // Uniaxial strain with nu=0: sigma_x = E * ex.
    EXPECT_NEAR(b.stress[0], 1e9 * 1e-4, 1e-3);
    EXPECT_NEAR(b.stress[1], 0.0, 1e-9);
    // Area grows with the strain.
    EXPECT_NEAR(b.area, 1.0 * (1.0 + 1e-4), 1e-6);
}

TEST(Material, ElasticityPlaneStressVsStrain) {
    bl::Material m;
    m.young = 1e9;
    m.poisson = 0.3;
    const auto ps = m.elasticity();
    EXPECT_NEAR(ps[0], 1e9 / (1 - 0.09), 1.0);
    m.plane_strain = true;
    const auto pe = m.elasticity();
    EXPECT_GT(pe[0], ps[0]); // plane strain is stiffer
    EXPECT_NEAR(pe[8], 1e9 / (2 * (1 + 0.3)), 1.0); // shear modulus
}

TEST(BlockSystem, AddBlockFixesWinding) {
    bl::BlockSystem sys;
    // Clockwise input must be re-wound CCW.
    const int i = sys.add_block({{0, 0}, {0, 1}, {1, 1}, {1, 0}});
    EXPECT_GT(gdda::geom::signed_area(sys.blocks[i].verts), 0.0);
    EXPECT_NEAR(sys.blocks[i].area, 1.0, 1e-12);
}

TEST(BlockSystem, CharacteristicLengthAndMaxYoung) {
    bl::BlockSystem sys = gdda::models::make_column(3);
    EXPECT_NEAR(sys.characteristic_length(), (std::sqrt(10.0) + 3.0) / 4.0, 1e-6);
    EXPECT_DOUBLE_EQ(sys.max_young(), sys.materials[0].young);
}

TEST(BlockSystem, JointSelectionByMaterialPair) {
    bl::BlockSystem sys;
    sys.materials = {bl::Material{}, bl::Material{}};
    sys.joints = {bl::JointMaterial{.friction_deg = 10},
                  bl::JointMaterial{.friction_deg = 20},
                  bl::JointMaterial{.friction_deg = 30, .cohesion = 0, .tension = 0}};
    sys.joint_of_material = {0, 1, 1, 2};
    sys.add_block({{0, 0}, {1, 0}, {1, 1}}, 0);
    sys.add_block({{2, 0}, {3, 0}, {3, 1}}, 1);
    EXPECT_DOUBLE_EQ(sys.joint_between(sys.blocks[0], sys.blocks[1]).friction_deg, 20.0);
    EXPECT_DOUBLE_EQ(sys.joint_between(sys.blocks[1], sys.blocks[1]).friction_deg, 30.0);
    EXPECT_DOUBLE_EQ(sys.joint_between(sys.blocks[0], sys.blocks[0]).friction_deg, 10.0);
}

TEST(ExactRotation, PreservesAreaUnderSpin) {
    // First-order rotation grows the area by (1 + r^2) per application; the
    // exact operator keeps it constant.
    const double r = 0.05;
    bl::Block first;
    first.verts = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
    first.update_geometry();
    bl::Block exact = first;
    bl::Material mat;
    gdda::sparse::Vec6 d;
    d[2] = r;
    for (int i = 0; i < 40; ++i) {
        first.apply_increment(d, mat, /*exact_rotation=*/false);
        exact.apply_increment(d, mat, /*exact_rotation=*/true);
    }
    EXPECT_NEAR(exact.area, 1.0, 1e-9);
    EXPECT_GT(first.area, 1.05); // ~ (1+r^2)^40
}

TEST(ExactRotation, MatchesFirstOrderForSmallIncrements) {
    bl::Block a;
    a.verts = {{2, 3}, {3, 3}, {3, 4}, {2, 4}};
    a.update_geometry();
    bl::Block b = a;
    bl::Material mat;
    gdda::sparse::Vec6 d{{1e-4, -2e-4, 1e-5, 2e-6, -1e-6, 3e-6}};
    a.apply_increment(d, mat, false);
    b.apply_increment(d, mat, true);
    for (std::size_t v = 0; v < a.verts.size(); ++v) {
        EXPECT_NEAR(a.verts[v].x, b.verts[v].x, 1e-9);
        EXPECT_NEAR(a.verts[v].y, b.verts[v].y, 1e-9);
    }
}

TEST(ExactRotation, EngineOptionKeepsPhysics) {
    auto run = [](bool exact) {
        bl::BlockSystem sys = gdda::models::make_block_on_floor(0.05);
        co::SimConfig cfg = dyn_config();
        cfg.exact_rotation = exact;
        co::DdaEngine eng(sys, cfg, co::EngineMode::Serial);
        for (int i = 0; i < 400; ++i) eng.step();
        return sys.blocks[1].centroid;
    };
    const auto c_first = run(false);
    const auto c_exact = run(true);
    EXPECT_NEAR(gdda::geom::distance(c_first, c_exact), 0.0, 1e-3);
}
