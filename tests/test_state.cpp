// gdda::state tests: versioned binary snapshot/restore. The load-bearing
// contract is bitwise determinism — restoring a snapshot and continuing must
// be indistinguishable (by block::state_fingerprint) from never having
// paused, across the model zoo, both engine modes, and non-default solver
// knobs. The rest is defense: every malformed input (wrong magic, foreign
// version, truncation, bit flips, engine/config mismatch) must be rejected
// with a typed SnapshotError, never UB.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "models/falling_rocks.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "models/tunnel.hpp"
#include "state/snapshot.hpp"

using namespace gdda;
using state::SnapshotError;
using state::SnapshotErrorCode;

namespace {

using SceneFn = block::BlockSystem (*)();

struct ZooModel {
    const char* name;
    SceneFn scene;
};

block::BlockSystem zoo_slope() { return models::make_slope_with_blocks(40); }
block::BlockSystem zoo_rocks() { return models::make_falling_rocks_with_blocks(16); }
block::BlockSystem zoo_column() { return models::make_column(6); }
block::BlockSystem zoo_tunnel() { return models::make_tunnel(); }

constexpr ZooModel kZoo[] = {
    {"slope", zoo_slope},
    {"rocks", zoo_rocks},
    {"column", zoo_column},
    {"tunnel", zoo_tunnel},
};

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "gdda_state_" + name + ".ckpt";
}

/// Uninterrupted baseline: `steps` direct engine steps, fingerprint at end.
std::uint64_t run_uninterrupted(SceneFn scene, const core::SimConfig& cfg,
                                core::EngineMode mode, int steps) {
    block::BlockSystem sys = scene();
    core::DdaEngine engine(sys, cfg, mode);
    for (int s = 0; s < steps; ++s) engine.step();
    return block::state_fingerprint(sys);
}

/// Pause/resume run: step to `pause_at`, snapshot to disk, build a FRESH
/// engine on a fresh scene, restore the file, finish the remaining steps.
std::uint64_t run_paused(SceneFn scene, const core::SimConfig& cfg, core::EngineMode mode,
                         int steps, int pause_at, const std::string& path) {
    {
        block::BlockSystem sys = scene();
        core::DdaEngine engine(sys, cfg, mode);
        for (int s = 0; s < pause_at; ++s) engine.step();
        state::save_engine_file(path, engine);
    } // first engine and its system die here — nothing carries over in memory
    block::BlockSystem sys = scene();
    core::DdaEngine engine(sys, cfg, mode);
    const state::EngineSnapshot snap = state::load_snapshot_file(path);
    state::restore_engine(engine, snap);
    EXPECT_EQ(engine.step_index(), pause_at);
    for (int s = pause_at; s < steps; ++s) engine.step();
    std::remove(path.c_str());
    return block::state_fingerprint(sys);
}

/// Write a snapshot file and return its bytes for tampering tests.
std::string snapshot_bytes(const core::DdaEngine& engine) {
    std::ostringstream out(std::ios::binary);
    state::save_snapshot(out, state::capture(engine));
    return out.str();
}

SnapshotErrorCode load_error_code(const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    try {
        (void)state::load_snapshot(in);
    } catch (const SnapshotError& ex) {
        return ex.code();
    }
    ADD_FAILURE() << "load_snapshot accepted malformed input";
    return SnapshotErrorCode::OpenFailed;
}

} // namespace

// ---------------------------------------------------------------------------
// Round trip and header triage

TEST(Snapshot, StreamRoundTripIsBitFaithful) {
    block::BlockSystem sys = models::make_column(5);
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    for (int s = 0; s < 6; ++s) engine.step();

    const state::EngineSnapshot snap = state::capture(engine);
    EXPECT_EQ(snap.header.version, state::kSnapshotVersion);
    EXPECT_EQ(snap.header.step_index, 6);
    EXPECT_EQ(snap.header.block_count, sys.blocks.size());
    EXPECT_EQ(snap.header.state_fingerprint, block::state_fingerprint(sys));

    std::ostringstream out(std::ios::binary);
    state::save_snapshot(out, snap);
    std::istringstream in(out.str(), std::ios::binary);
    const state::EngineSnapshot loaded = state::load_snapshot(in);

    EXPECT_EQ(loaded.header.state_fingerprint, snap.header.state_fingerprint);
    EXPECT_EQ(loaded.header.config_fingerprint, snap.header.config_fingerprint);
    EXPECT_EQ(loaded.header.step_index, 6);
    EXPECT_EQ(loaded.state.contacts.size(), snap.state.contacts.size());
    EXPECT_EQ(block::state_fingerprint(loaded.state.sys), block::state_fingerprint(sys));
    // Exact bits, not just close: time/dt survive as raw doubles.
    EXPECT_EQ(loaded.state.time, snap.state.time);
    EXPECT_EQ(loaded.state.dt, snap.state.dt);
    EXPECT_EQ(loaded.state.values_epoch, snap.state.values_epoch);
    EXPECT_EQ(loaded.state.w0, snap.state.w0);
}

TEST(Snapshot, PeekHeaderTriagesWithoutPayload) {
    block::BlockSystem sys = models::make_column(4);
    core::DdaEngine engine(sys, {}, core::EngineMode::Gpu);
    for (int s = 0; s < 3; ++s) engine.step();
    const std::string path = temp_path("peek");
    state::save_engine_file(path, engine);

    const state::SnapshotHeader head = state::peek_header(path);
    EXPECT_EQ(head.version, state::kSnapshotVersion);
    EXPECT_EQ(head.mode, core::EngineMode::Gpu);
    EXPECT_EQ(head.step_index, 3);
    EXPECT_EQ(head.block_count, sys.blocks.size());
    EXPECT_EQ(head.state_fingerprint, block::state_fingerprint(sys));
    EXPECT_FALSE(head.git_sha.empty());
    std::remove(path.c_str());
}

TEST(Snapshot, CaptureIsObserverOnly) {
    const std::uint64_t clean = run_uninterrupted(zoo_column, {}, core::EngineMode::Serial, 12);
    block::BlockSystem sys = zoo_column();
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    for (int s = 0; s < 12; ++s) {
        (void)state::capture(engine); // capture every step; must not perturb
        engine.step();
    }
    EXPECT_EQ(block::state_fingerprint(sys), clean);
}

// ---------------------------------------------------------------------------
// The determinism contract: pause/resume == never paused

TEST(Snapshot, PauseResumeBitwiseIdenticalAcrossZooAndModes) {
    constexpr int kSteps = 20;
    constexpr int kPause = 10;
    for (const ZooModel& model : kZoo) {
        for (const core::EngineMode mode :
             {core::EngineMode::Serial, core::EngineMode::Gpu}) {
            const core::SimConfig cfg;
            const std::uint64_t clean = run_uninterrupted(model.scene, cfg, mode, kSteps);
            const std::uint64_t resumed =
                run_paused(model.scene, cfg, mode, kSteps, kPause,
                           temp_path(std::string(model.name) + "_zoo"));
            EXPECT_EQ(resumed, clean)
                << model.name << " mode=" << (mode == core::EngineMode::Gpu ? "gpu" : "serial")
                << ": resumed run diverged from uninterrupted run";
        }
    }
}

TEST(Snapshot, PauseResumeHoldsForNonDefaultSolverKnobs) {
    // Each config flips one solver knob away from its default; resume must
    // stay bitwise clean for all of them (the snapshot carries the PCG warm
    // start, and the invalidated solve workspace has a warm==cold identity
    // contract, including ILU(0)'s cached symbolic pattern).
    core::SimConfig ilu;
    ilu.precond = core::PrecondKind::Ilu0;
    core::SimConfig exact;
    exact.exact_rotation = true;

    struct Named {
        const char* name;
        const core::SimConfig* cfg;
    };
    const Named cfgs[] = {{"ilu0", &ilu}, {"exact_rotation", &exact}};
    constexpr int kSteps = 16;
    constexpr int kPause = 7; // odd split: resume mid-cadence, not on a boundary
    for (const Named& n : cfgs) {
        const std::uint64_t clean =
            run_uninterrupted(zoo_slope, *n.cfg, core::EngineMode::Serial, kSteps);
        const std::uint64_t resumed = run_paused(zoo_slope, *n.cfg, core::EngineMode::Serial,
                                                 kSteps, kPause, temp_path(n.name));
        EXPECT_EQ(resumed, clean) << n.name << ": resumed run diverged";
    }
}

TEST(Snapshot, RestoreInvalidatesDerivedCachesLikeEngineRestore) {
    block::BlockSystem sys = models::make_column(5);
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    for (int s = 0; s < 5; ++s) engine.step();
    const state::EngineSnapshot snap = state::capture(engine);
    for (int s = 0; s < 3; ++s) engine.step();

    const std::uint64_t cache_inv_before = engine.pair_cache().stats().invalidations;
    const std::uint64_t cold_builds_before =
        engine.solve_workspace().stats().cold_structure_builds;
    state::restore_engine(engine, snap);
    EXPECT_EQ(engine.pair_cache().stats().invalidations, cache_inv_before + 1)
        << "restore must drop the persistent broad-phase pair cache";
    engine.step();
    EXPECT_GT(engine.solve_workspace().stats().cold_structure_builds, cold_builds_before)
        << "first post-restore solve must rebuild structure cold";
}

// ---------------------------------------------------------------------------
// Malformed input: typed rejection, never UB

TEST(Snapshot, MissingFileIsOpenFailed) {
    try {
        (void)state::load_snapshot_file(temp_path("does_not_exist_ever"));
        FAIL() << "loading a missing file must throw";
    } catch (const SnapshotError& ex) {
        EXPECT_EQ(ex.code(), SnapshotErrorCode::OpenFailed);
    }
}

TEST(Snapshot, MalformedInputsRejectedWithTypedCodes) {
    block::BlockSystem sys = models::make_column(4);
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    for (int s = 0; s < 4; ++s) engine.step();
    const std::string good = snapshot_bytes(engine);
    {
        std::istringstream in(good, std::ios::binary);
        EXPECT_NO_THROW((void)state::load_snapshot(in)) << "baseline bytes must load";
    }

    // Not a snapshot at all.
    EXPECT_EQ(load_error_code("definitely not a snapshot file"), SnapshotErrorCode::BadMagic);

    // Future schema version (byte 8 is the low byte of the u32 version).
    std::string skewed = good;
    skewed[8] = '\x7f';
    EXPECT_EQ(load_error_code(skewed), SnapshotErrorCode::UnsupportedVersion);

    // Version 0 is never written; reject rather than trusting the layout.
    std::string zeroed = good;
    zeroed[8] = '\0';
    EXPECT_EQ(load_error_code(zeroed), SnapshotErrorCode::UnsupportedVersion);

    // An older version carries an older config layout (v4 stored three more
    // config bytes, v3 two more fields and other preconditioner numbers);
    // the header sits outside the payload checksum, so only the version
    // check stops the reader from misparsing it. Both entry points must
    // refuse it.
    std::string older = good;
    ASSERT_EQ(state::kSnapshotVersion, 5u);
    older[8] = '\x04';
    EXPECT_EQ(load_error_code(older), SnapshotErrorCode::UnsupportedVersion);
    const std::string older_path = temp_path("older_version");
    {
        std::ofstream out(older_path, std::ios::binary);
        out.write(older.data(), static_cast<std::streamsize>(older.size()));
    }
    try {
        (void)state::peek_header(older_path);
        ADD_FAILURE() << "peek_header accepted an older snapshot version";
    } catch (const SnapshotError& ex) {
        EXPECT_EQ(ex.code(), SnapshotErrorCode::UnsupportedVersion);
    }
    std::remove(older_path.c_str());

    // Truncations at every structural boundary.
    EXPECT_EQ(load_error_code(good.substr(0, 4)), SnapshotErrorCode::Truncated);
    EXPECT_EQ(load_error_code(good.substr(0, 10)), SnapshotErrorCode::Truncated);
    EXPECT_EQ(load_error_code(good.substr(0, good.size() / 2)), SnapshotErrorCode::Truncated);
    EXPECT_EQ(load_error_code(good.substr(0, good.size() - 5)), SnapshotErrorCode::Truncated);

    // A single flipped payload bit is caught by the checksum.
    std::string flipped = good;
    flipped[good.size() / 2] ^= '\x01';
    EXPECT_EQ(load_error_code(flipped), SnapshotErrorCode::Corrupt);

    // Flipping the stored checksum itself must also land on Corrupt.
    std::string badsum = good;
    badsum[good.size() - 1] ^= '\x01';
    EXPECT_EQ(load_error_code(badsum), SnapshotErrorCode::Corrupt);
}

TEST(Snapshot, StoredConfigOutOfRangeIsCorrupt) {
    // Each snapshot is written from a capture whose stored config holds one
    // invalid value, with the header's config fingerprint recomputed to
    // match: magic, version, checksum and fingerprints are all valid, so
    // only the config check of the reader stands between the bytes and an
    // engine built from them.
    block::BlockSystem sys = models::make_column(3);
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    engine.step();
    auto corrupted = [&](auto&& spoil) {
        state::EngineSnapshot snap = state::capture(engine);
        spoil(snap.config);
        snap.header.config_fingerprint = state::config_fingerprint(snap.config);
        std::ostringstream out(std::ios::binary);
        state::save_snapshot(out, snap);
        return out.str();
    };
    const std::string bad_precond =
        corrupted([](core::SimConfig& c) { c.precond = static_cast<core::PrecondKind>(3); });
    const std::string bad_dt = corrupted([](core::SimConfig& c) { c.dt = -1.0; });
    const std::string bad_threads = corrupted([](core::SimConfig& c) { c.step_threads = -2; });
    // A NaN velocity_carry would poison every velocity of the resumed run.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::string nan_carry = corrupted([&](core::SimConfig& c) { c.velocity_carry = nan; });
    const std::string nan_dt_max = corrupted([&](core::SimConfig& c) { c.dt_max = nan; });
    const std::string nan_abs_tol = corrupted([&](core::SimConfig& c) { c.pcg.abs_tol = nan; });
    const std::string bad_shear =
        corrupted([](core::SimConfig& c) { c.shear_penalty_ratio = -1.0; });
    const std::string nan_fixed =
        corrupted([&](core::SimConfig& c) { c.fixed_penalty_ratio = nan; });
    const std::string inf_grow = corrupted([](core::SimConfig& c) {
        c.dt_grow = std::numeric_limits<double>::infinity();
    });
    for (const std::string* bytes : {&bad_precond, &bad_dt, &bad_threads, &nan_carry,
                                     &nan_dt_max, &nan_abs_tol, &bad_shear, &nan_fixed,
                                     &inf_grow})
        EXPECT_EQ(load_error_code(*bytes), SnapshotErrorCode::Corrupt);
}

TEST(Snapshot, EveryTruncationLengthIsTypedNotUB) {
    // Exhaustive sweep: every prefix of a real snapshot must throw a typed
    // SnapshotError (any other exception — or none — fails the test).
    block::BlockSystem sys = models::make_column(3);
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    engine.step();
    const std::string good = snapshot_bytes(engine);
    for (std::size_t len = 0; len < good.size(); len += 7) {
        std::istringstream in(good.substr(0, len), std::ios::binary);
        try {
            (void)state::load_snapshot(in);
            FAIL() << "prefix of length " << len << " accepted";
        } catch (const SnapshotError&) {
            // expected: typed rejection
        }
    }
}

// ---------------------------------------------------------------------------
// Engine/config mismatch policy

TEST(Snapshot, RestoreRejectsWrongModeAndWrongSystem) {
    block::BlockSystem sys = models::make_column(4);
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    engine.step();
    const state::EngineSnapshot snap = state::capture(engine);

    block::BlockSystem gpu_sys = models::make_column(4);
    core::DdaEngine gpu_engine(gpu_sys, {}, core::EngineMode::Gpu);
    try {
        state::restore_engine(gpu_engine, snap);
        FAIL() << "serial snapshot into gpu engine must throw";
    } catch (const SnapshotError& ex) {
        EXPECT_EQ(ex.code(), SnapshotErrorCode::Mismatch);
    }

    block::BlockSystem other_sys = models::make_column(7);
    core::DdaEngine other_engine(other_sys, {}, core::EngineMode::Serial);
    try {
        state::restore_engine(other_engine, snap);
        FAIL() << "snapshot into a different-sized system must throw";
    } catch (const SnapshotError& ex) {
        EXPECT_EQ(ex.code(), SnapshotErrorCode::Mismatch);
    }
}

TEST(Snapshot, ConfigFingerprintGatesTrajectoryKnobsOnly) {
    core::SimConfig base;
    // Trajectory-affecting knob → different fingerprint, restore refused.
    core::SimConfig different = base;
    different.pcg.max_iters += 1;
    EXPECT_NE(state::config_fingerprint(base), state::config_fingerprint(different));
    // Observer/identity-contract knobs → same fingerprint (resume allowed
    // even when they changed between runs).
    core::SimConfig observer = base;
    observer.checkpoint_interval = 17;
    observer.step_threads = 8;
    EXPECT_EQ(state::config_fingerprint(base), state::config_fingerprint(observer));

    block::BlockSystem sys = models::make_column(4);
    core::DdaEngine engine(sys, base, core::EngineMode::Serial);
    engine.step();
    const state::EngineSnapshot snap = state::capture(engine);

    block::BlockSystem sys2 = models::make_column(4);
    core::DdaEngine strict(sys2, different, core::EngineMode::Serial);
    try {
        state::restore_engine(strict, snap);
        FAIL() << "config-mismatched restore must throw";
    } catch (const SnapshotError& ex) {
        EXPECT_EQ(ex.code(), SnapshotErrorCode::Mismatch);
    }
    EXPECT_EQ(strict.step_index(), 0) << "a refused restore leaves the engine untouched";
}

TEST(Snapshot, AtomicFileWriteLeavesNoTempBehind) {
    block::BlockSystem sys = models::make_column(3);
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    engine.step();
    const std::string path = temp_path("atomic");
    state::save_engine_file(path, engine);
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
        << "tmp file must be renamed into place";
    // Overwrite in place (a later checkpoint of the same job) must succeed.
    engine.step();
    state::save_engine_file(path, engine);
    const state::SnapshotHeader head = state::peek_header(path);
    EXPECT_EQ(head.step_index, 2);
    std::remove(path.c_str());
}
