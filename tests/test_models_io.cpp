// Model generators (slope, falling rocks, stacks) and the text model /
// snapshot I/O round trips.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "core/engine.hpp"
#include "core/interpenetration.hpp"
#include "io/model_io.hpp"
#include "io/snapshot.hpp"
#include "models/falling_rocks.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "models/tunnel.hpp"

namespace bl = gdda::block;
namespace mo = gdda::models;
namespace io = gdda::io;

TEST(Slope, GeneratesBlocksWithoutOverlap) {
    mo::SlopeParams p;
    p.joint1_spacing = 6.0;
    p.joint2_spacing = 6.0;
    const bl::BlockSystem sys = mo::make_slope(p);
    EXPECT_GT(sys.size(), 20u);
    // All blocks valid CCW polygons.
    for (const bl::Block& b : sys.blocks) {
        EXPECT_GE(b.verts.size(), 3u);
        EXPECT_GT(b.area, 0.0);
    }
    // Generated by clipping a partition: no initial interpenetration.
    const auto rep = gdda::core::audit_interpenetration(sys);
    EXPECT_LT(rep.max_depth, 1e-9);
    // Foundation blocks fixed.
    std::size_t fixed = 0;
    for (const bl::Block& b : sys.blocks) fixed += b.fixed;
    EXPECT_GT(fixed, 0u);
    EXPECT_LT(fixed, sys.size());
    // Material and joint diversity as requested.
    EXPECT_EQ(sys.materials.size(), 5u);
    EXPECT_EQ(sys.joints.size(), 38u);
}

TEST(Slope, TargetBlockCountRoughlyHit) {
    for (int target : {100, 400}) {
        const bl::BlockSystem sys = mo::make_slope_with_blocks(target);
        EXPECT_GT(static_cast<int>(sys.size()), target / 3);
        EXPECT_LT(static_cast<int>(sys.size()), target * 3);
    }
}

TEST(Slope, DeterministicForSeed) {
    const bl::BlockSystem a = mo::make_slope({});
    const bl::BlockSystem b = mo::make_slope({});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.blocks[i].verts.size(), b.blocks[i].verts.size());
}

TEST(FallingRocks, GeneratesBedrockAndRocks) {
    mo::FallingRocksParams p;
    p.rock_rows = 3;
    p.rock_cols = 5;
    const bl::BlockSystem sys = mo::make_falling_rocks(p);
    std::size_t fixed = 0;
    std::size_t loose = 0;
    for (const bl::Block& b : sys.blocks) (b.fixed ? fixed : loose)++;
    EXPECT_EQ(loose, 15u);
    EXPECT_GE(fixed, 15u); // face segments + floor
    // Rocks start above the bedrock (no initial penetration).
    const auto rep = gdda::core::audit_interpenetration(sys);
    EXPECT_LT(rep.max_depth, 1e-9);
}

TEST(FallingRocks, TargetCount) {
    const bl::BlockSystem sys = mo::make_falling_rocks_with_blocks(60);
    std::size_t loose = 0;
    for (const bl::Block& b : sys.blocks) loose += !b.fixed;
    EXPECT_GE(loose, 50u);
    EXPECT_LE(loose, 80u);
}

TEST(Stacks, InclineGeometry) {
    const bl::BlockSystem sys = mo::make_incline(30.0, 10.0);
    ASSERT_EQ(sys.size(), 2u);
    EXPECT_TRUE(sys.blocks[0].fixed);
    EXPECT_FALSE(sys.blocks[1].fixed);
    EXPECT_DOUBLE_EQ(sys.joints[0].friction_deg, 10.0);
}

TEST(Tunnel, GeneratesOpeningAndFixedRing) {
    const bl::BlockSystem sys = mo::make_tunnel({});
    EXPECT_GT(sys.size(), 40u);
    const gdda::geom::Vec2 center{20.0, 20.0};
    std::size_t fixed = 0;
    for (const bl::Block& b : sys.blocks) {
        // No block centroid inside the excavated opening.
        EXPECT_GT(gdda::geom::distance(b.centroid, center), 6.0 - 3.0);
        fixed += b.fixed;
    }
    EXPECT_GT(fixed, 8u);
    EXPECT_LT(fixed, sys.size());
    EXPECT_LT(gdda::core::audit_interpenetration(sys).max_depth, 1e-9);
}

TEST(Tunnel, RoofHoldsWithHighFriction) {
    mo::TunnelParams p;
    p.width = 24.0;
    p.height = 24.0;
    p.radius = 4.0;
    p.joint1_spacing = 3.5;
    p.joint2_spacing = 3.5;
    p.friction_deg = 45.0;
    bl::BlockSystem sys = mo::make_tunnel(p);
    gdda::core::SimConfig cfg;
    cfg.dt = 5e-4;
    cfg.dt_max = 1e-3;
    cfg.velocity_carry = 0.0;
    gdda::core::DdaEngine eng(sys, cfg, gdda::core::EngineMode::Serial);
    for (int i = 0; i < 150; ++i) eng.step();
    // No block fell into the opening center.
    for (const bl::Block& b : sys.blocks)
        EXPECT_GT(gdda::geom::distance(b.centroid, {12.0, 12.0}), 1.0);
}

TEST(ModelIo, RoundTrip) {
    bl::BlockSystem sys = mo::make_column(3);
    sys.fixed_points.push_back({.block = 1, .point = {0.0, 1.5}, .anchor = {0.0, 1.5}});
    sys.point_loads.push_back({.block = 2, .point = {0.0, 2.5}, .force = {5.0, -1.0}});
    sys.gravity = {0.1, -9.7};

    std::stringstream ss;
    io::save_model(ss, sys);
    const bl::BlockSystem back = io::load_model(ss);

    ASSERT_EQ(back.size(), sys.size());
    for (std::size_t i = 0; i < sys.size(); ++i) {
        ASSERT_EQ(back.blocks[i].verts.size(), sys.blocks[i].verts.size());
        for (std::size_t v = 0; v < sys.blocks[i].verts.size(); ++v) {
            EXPECT_DOUBLE_EQ(back.blocks[i].verts[v].x, sys.blocks[i].verts[v].x);
            EXPECT_DOUBLE_EQ(back.blocks[i].verts[v].y, sys.blocks[i].verts[v].y);
        }
        EXPECT_EQ(back.blocks[i].fixed, sys.blocks[i].fixed);
        EXPECT_EQ(back.blocks[i].material, sys.blocks[i].material);
    }
    EXPECT_DOUBLE_EQ(back.gravity.y, -9.7);
    ASSERT_EQ(back.fixed_points.size(), 1u);
    ASSERT_EQ(back.point_loads.size(), 1u);
    EXPECT_DOUBLE_EQ(back.point_loads[0].force.x, 5.0);
}

TEST(ModelIo, RejectsMalformed) {
    std::stringstream bad1("block 0 0 2 0 0 1 1\n"); // only 2 vertices
    EXPECT_THROW(io::load_model(bad1), std::runtime_error);
    std::stringstream bad2("frobnicate 1 2 3\n");
    EXPECT_THROW(io::load_model(bad2), std::runtime_error);
    std::stringstream bad3("material 2500\n");
    EXPECT_THROW(io::load_model(bad3), std::runtime_error);
}

TEST(ModelIo, CommentsAndEmptyLines) {
    std::stringstream ok("# comment\n\nmaterial 2500 1e9 0.25\nblock 0 1 3 0 0 1 0 0 1\n");
    const bl::BlockSystem sys = io::load_model(ok);
    EXPECT_EQ(sys.size(), 1u);
    EXPECT_TRUE(sys.blocks[0].fixed);
}

TEST(Snapshot, CsvAndSvgWritten) {
    const bl::BlockSystem sys = mo::make_column(2);
    const auto dir = std::filesystem::temp_directory_path() / "gdda_test_io";
    std::filesystem::create_directories(dir);
    const std::string csv = (dir / "snap.csv").string();
    const std::string svg = (dir / "snap.svg").string();
    io::append_snapshot_csv(csv, sys, 0, /*truncate=*/true);
    io::append_snapshot_csv(csv, sys, 1);
    io::write_snapshot_svg(svg, sys);
    EXPECT_GT(std::filesystem::file_size(csv), 100u);
    EXPECT_GT(std::filesystem::file_size(svg), 200u);
    std::ifstream in(csv);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "step,block,vertex,x,y,fixed");
}

TEST(Snapshot, VtkPolydataStructure) {
    bl::BlockSystem sys = mo::make_column(2);
    sys.blocks[1].velocity[0] = 3.0;
    sys.blocks[1].velocity[1] = 4.0;
    sys.blocks[2].stress = {2.0e5, 4.0e5, 0.0};
    const auto path =
        (std::filesystem::temp_directory_path() / "gdda_snap.vtk").string();
    io::write_snapshot_vtk(path, sys);

    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("DATASET POLYDATA"), std::string::npos);
    EXPECT_NE(text.find("POINTS 12 double"), std::string::npos);  // 3 quads
    EXPECT_NE(text.find("POLYGONS 3 15"), std::string::npos);
    EXPECT_NE(text.find("SCALARS speed double"), std::string::npos);
    EXPECT_NE(text.find("\n5\n"), std::string::npos);          // |v| = 5
    EXPECT_NE(text.find("300000"), std::string::npos);            // mean stress
}

TEST(Config, ValidateRejectsNonsense) {
    using gdda::core::SimConfig;
    SimConfig ok;
    EXPECT_NO_THROW(ok.validate());

    SimConfig bad = ok;
    bad.dt = -1.0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = ok;
    bad.dt_min = 1.0;
    bad.dt_max = 0.5;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = ok;
    bad.velocity_carry = 2.0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = ok;
    bad.dt_shrink = 1.5;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = ok;
    bad.penalty_scale = 0.0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = ok;
    bad.pcg.max_iters = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = ok;
    bad.precond = static_cast<gdda::core::PrecondKind>(3);
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    // NaN and infinities fail every range check, and both penalty ratios
    // must be positive.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::function<void(SimConfig&)> spoilers[] = {
        [&](SimConfig& c) { c.velocity_carry = nan; },
        [&](SimConfig& c) { c.dt_max = nan; },
        [&](SimConfig& c) { c.dt_max = inf; },
        [&](SimConfig& c) { c.pcg.abs_tol = nan; },
        [&](SimConfig& c) { c.pcg.rel_tol = inf; },
        [&](SimConfig& c) { c.shear_penalty_ratio = -1.0; },
        [&](SimConfig& c) { c.shear_penalty_ratio = 0.0; },
        [&](SimConfig& c) { c.fixed_penalty_ratio = nan; },
        [&](SimConfig& c) { c.penalty_scale = inf; },
        [&](SimConfig& c) { c.search_factor = inf; },
        [&](SimConfig& c) { c.dt_grow = inf; },
        [&](SimConfig& c) { c.dt_shrink = nan; },
    };
    for (const auto& spoil : spoilers) {
        bad = ok;
        spoil(bad);
        EXPECT_THROW(bad.validate(), std::invalid_argument);
    }

    // The engine enforces validation on construction.
    bl::BlockSystem sys = mo::make_column(1);
    SimConfig broken;
    broken.dt = 0.0;
    EXPECT_THROW(gdda::core::DdaEngine(sys, broken, gdda::core::EngineMode::Serial),
                 std::invalid_argument);
}
