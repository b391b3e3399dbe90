// bench_checkpoint_overhead — guards the gdda::state checkpointing cost
// contract: periodic binary snapshots are cheap enough to leave on in a
// service (docs/STATE.md), and writing them never perturbs the trajectory.
// The bench runs the identical scene/config/steps three ways —
//
//   * checkpointing OFF (plain engine loop),
//   * checkpointing ON  (capture + atomic file write every 5 steps),
//   * a resumed run that restores the mid-run checkpoint and finishes —
//
// and FAILS (exit 1) when
//
//   * the on/off step-time ratio exceeds the budget (a snapshot of a small
//     model costs far less than a step; the cap catches an accidental
//     per-step encode or an O(n^2) copy sneaking into capture()), or
//   * the checkpointed trajectory is not BITWISE IDENTICAL to the clean one
//     (capture/save must be observer-only — no tolerance), or
//   * the resumed run does not land on the same fingerprint (the
//     pause/resume determinism contract, end to end through the file).
//
// Usage: bench_checkpoint_overhead [steps] [--force]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench_util.hpp"
#include "block/block_system.hpp"
#include "core/engine.hpp"
#include "state/snapshot.hpp"

using namespace gdda;

namespace {

constexpr int kInterval = 5; // steps between periodic checkpoints

/// Clean baseline: `steps` engine steps, no checkpointing.
std::uint64_t run_off(int steps, double* ms) {
    block::BlockSystem sys = models::make_slope_with_blocks(40);
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    const auto t0 = bench::Clock::now();
    for (int s = 0; s < steps; ++s) engine.step();
    *ms += bench::ms_since(t0);
    return block::state_fingerprint(sys);
}

/// Same run with a periodic checkpoint every kInterval steps (the service
/// cadence), timed INCLUDING the snapshot encode + atomic file write.
std::uint64_t run_on(int steps, const std::string& path, double* ms, double* ckpt_ms,
                     int* checkpoints) {
    block::BlockSystem sys = models::make_slope_with_blocks(40);
    core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
    const auto t0 = bench::Clock::now();
    for (int s = 0; s < steps; ++s) {
        engine.step();
        if ((s + 1) % kInterval == 0) {
            const auto c0 = bench::Clock::now();
            state::save_engine_file(path, engine);
            *ckpt_ms += bench::ms_since(c0);
            ++*checkpoints;
        }
    }
    *ms += bench::ms_since(t0);
    return block::state_fingerprint(sys);
}

} // namespace

int main(int argc, char** argv) {
    int steps = 30;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--force") == 0) bench::force_report_overwrite() = true;
        else steps = std::atoi(argv[i]);
    }
    if (steps < 2 * kInterval) steps = 2 * kInterval;
    const std::string path =
        (std::filesystem::temp_directory_path() / "gdda_bench_ckpt.snap").string();

    double off_ms = 0.0;
    double on_ms = 0.0;
    double ckpt_ms = 0.0;
    int checkpoints = 0;
    std::uint64_t fp_off = 0;
    std::uint64_t fp_on = 0;
    // Interleave repetitions so frequency scaling / cache state hits both
    // configurations equally.
    const int reps = 3;
    for (int r = 0; r < reps; ++r) {
        fp_off = run_off(steps, &off_ms);
        fp_on = run_on(steps, path, &on_ms, &ckpt_ms, &checkpoints);
    }
    const bool bitwise_ok = fp_off == fp_on;
    const double ratio = off_ms > 0.0 ? on_ms / off_ms : 1.0;
    // A checkpoint every kInterval steps costs one system copy + encode +
    // file write. 1.5x is generous headroom for CI noise while still
    // catching a per-step encode or a copy blowup.
    const double ratio_cap = 1.5;
    const double per_ckpt_ms = checkpoints > 0 ? ckpt_ms / checkpoints : 0.0;

    // End-to-end resume through the file just written: restore the terminal
    // checkpoint into a fresh engine and compare fingerprints. (The terminal
    // snapshot IS the final state, so equality proves decode+restore round
    // the trip without touching a bit.)
    bool resume_ok = false;
    std::uint64_t fp_resumed = 0;
    {
        block::BlockSystem sys = models::make_slope_with_blocks(40);
        core::DdaEngine engine(sys, {}, core::EngineMode::Serial);
        const state::EngineSnapshot snap = state::load_snapshot_file(path);
        state::restore_engine(engine, snap);
        fp_resumed = block::state_fingerprint(sys);
        resume_ok = fp_resumed == fp_on && engine.step_index() == steps;
    }
    std::remove(path.c_str());

    bench::header("gdda::state checkpoint overhead (smaller is better)");
    std::printf("engine %d-step run x%d, checkpoint every %d steps:\n", steps, reps, kInterval);
    std::printf("  checkpointing off %.2f ms, on %.2f ms (ratio %.3f, cap %.1f)\n", off_ms,
                on_ms, ratio, ratio_cap);
    std::printf("  %d checkpoints written, %.3f ms each (encode + atomic rename)\n",
                checkpoints, per_ckpt_ms);
    std::printf("observer-only contract: fingerprints %016llx vs %016llx — %s\n",
                static_cast<unsigned long long>(fp_off),
                static_cast<unsigned long long>(fp_on),
                bitwise_ok ? "BITWISE IDENTICAL" : "MISMATCH");
    std::printf("resume through file: %016llx — %s\n",
                static_cast<unsigned long long>(fp_resumed),
                resume_ok ? "BITWISE IDENTICAL" : "MISMATCH");

    const bool ratio_ok = ratio <= ratio_cap;
    const bool ok = ratio_ok && bitwise_ok && resume_ok;

    bench::MetricReport rep("checkpoint_overhead");
    rep.add("steps", steps);
    rep.add("checkpoint_interval", kInterval);
    rep.add("step_ratio_on_off", ratio);
    rep.add("per_checkpoint_ms", per_ckpt_ms);
    rep.add("bitwise_identical", bitwise_ok ? 1.0 : 0.0);
    rep.add("resume_identical", resume_ok ? 1.0 : 0.0);
    rep.add("guard_passed", ok ? 1.0 : 0.0);
    rep.write();

    if (!bitwise_ok)
        std::fprintf(stderr, "checkpoint observer-only contract VIOLATED (trajectory changed)\n");
    if (!resume_ok)
        std::fprintf(stderr, "checkpoint resume contract VIOLATED (restored state differs)\n");
    if (!ratio_ok)
        std::fprintf(stderr, "checkpoint overhead OVER CAP (%.3f > %.1f)\n", ratio, ratio_cap);
    if (!ok) {
        std::fprintf(stderr, "checkpoint overhead guard FAILED\n");
        return 1;
    }
    return 0;
}
