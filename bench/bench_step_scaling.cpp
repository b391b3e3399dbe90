// bench_step_scaling — strong scaling of the WHOLE step pipeline across
// step teams of 1, 2, 4, and 8 threads: broad phase, narrow phase, pair
// cache, contact transfer, assembly refill, and the solve all inherit one
// SimConfig::step_threads team (PR 10 killed the serial pre-solve wall).
//
// Two gates, reflected in the exit status:
//   * determinism (always on, any host): the state fingerprint after every
//     run must be bit-identical to the 1-thread baseline, in BOTH engine
//     modes;
//   * scaling (only on hosts with >= 4 hardware cores, or when forced with
//     --require-speedup): the 4-thread whole-step wall clock on the lattice
//     tier must reach >= 2.2x the 1-thread run.
//
// The JSON report carries the per-module serial-fraction breakdown (module
// seconds vs the slice spent in dispatch-eligible parallel regions) so the
// Amdahl picture is machine-readable even from a 1-core host.
//
// Usage: bench_step_scaling [--short] [--require-speedup] [--no-speedup-gate]
//                           [--force]
//   --short   shrink the scenes and step counts for CI smoke use.
//   --force   overwrite a well-provisioned BENCH_step_scaling.json even
//             when this host has < 4 cores (normally refused).

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "block/block_system.hpp"
#include "core/engine.hpp"
#include "models/large_scene.hpp"
#include "par/thread_budget.hpp"

using namespace gdda;

namespace {

struct Scene {
    std::string name;
    std::function<block::BlockSystem()> make;
    int steps = 2;
};

struct RunOut {
    std::uint64_t fingerprint = 0;
    double wall_ms = 0.0;
    core::ModuleTimers timers;
    core::ModuleTimers par_timers;
};

RunOut run_scene(const Scene& scene, core::EngineMode mode, const core::SimConfig& cfg) {
    block::BlockSystem sys = scene.make();
    core::DdaEngine engine(sys, cfg, mode);
    const auto t0 = bench::Clock::now();
    for (int s = 0; s < scene.steps; ++s) engine.step();
    RunOut out;
    out.wall_ms = bench::ms_since(t0);
    out.fingerprint = block::state_fingerprint(sys);
    out.timers = engine.timers();
    out.par_timers = engine.parallel_timers();
    return out;
}

constexpr const char* kModuleKeys[core::kModuleCount] = {
    "contact", "diag", "nondiag", "solve", "interpen", "update"};

} // namespace

int main(int argc, char** argv) {
    bool short_run = false;
    int speedup_gate = -1; // -1 auto, 0 off, 1 on
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--short")) short_run = true;
        else if (!std::strcmp(argv[i], "--require-speedup")) speedup_gate = 1;
        else if (!std::strcmp(argv[i], "--no-speedup-gate")) speedup_gate = 0;
        else if (!std::strcmp(argv[i], "--force")) bench::force_report_overwrite() = true;
    }
    const int cores = par::hardware_concurrency();
    if (speedup_gate < 0) speedup_gate = cores >= 4 ? 1 : 0;

    const int lattice_blocks = short_run ? 1500 : 50000;
    const int slope_blocks = short_run ? 300 : 2000;

    std::vector<Scene> scenes;
    scenes.push_back({"lattice",
                      [lattice_blocks] {
                          return models::make_block_lattice_with_blocks(lattice_blocks);
                      },
                      2});
    scenes.push_back({"slope",
                      [slope_blocks] { return models::make_slope_with_blocks(slope_blocks); },
                      short_run ? 3 : 4});

    bench::header("whole-step strong scaling — deterministic parallel pipeline" +
                  std::string(short_run ? " (short)" : ""));
    std::printf("host: %d hardware threads; speedup gate %s\n", cores,
                speedup_gate ? "ON (>= 2.2x at 4 threads)" : "off (needs >= 4 cores)");

    bench::MetricReport report("step_scaling");
    report.add("hardware_threads", cores);
    report.add("short_run", short_run ? 1 : 0);
    report.add("lattice_blocks", lattice_blocks);
    report.add("slope_blocks", slope_blocks);

    int mismatches = 0;
    double lattice_ms_1 = 0.0, lattice_ms_4 = 0.0;

    for (const Scene& scene : scenes) {
        std::printf("\nscene %s (%d steps)\n", scene.name.c_str(), scene.steps);
        std::printf("%8s %8s %12s %10s\n", "mode", "threads", "step ms", "spdup");
        for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
            const char* mname = mode == core::EngineMode::Gpu ? "gpu" : "serial";
            std::uint64_t baseline = 0;
            double ms_1 = 0.0;
            for (const int threads : {1, 2, 4, 8}) {
                core::SimConfig cfg;
                cfg.step_threads = threads;
                const RunOut r = run_scene(scene, mode, cfg);
                if (threads == 1) {
                    baseline = r.fingerprint;
                    ms_1 = r.wall_ms;
                    if (mode == core::EngineMode::Serial) {
                        // Per-module Amdahl breakdown off the 1-thread run:
                        // module seconds + the dispatch-eligible parallel
                        // slice (meaningful even with a 1-wide team).
                        double par_total = 0.0;
                        for (int m = 0; m < core::kModuleCount; ++m) {
                            const auto mod = static_cast<core::Module>(m);
                            const std::string base = "module_" + std::string(kModuleKeys[m]) +
                                                     "_" + scene.name;
                            report.add(base + "_seconds", r.timers.seconds(mod));
                            report.add(base + "_parallel_seconds",
                                       r.par_timers.seconds(mod));
                            par_total += r.par_timers.seconds(mod);
                        }
                        const double total = r.timers.total();
                        const double serial_fraction =
                            total > 0.0 ? 1.0 - std::min(par_total / total, 1.0) : 0.0;
                        report.add("serial_fraction_" + scene.name, serial_fraction);
                        std::printf("%8s 1-thread serial fraction %.3f "
                                    "(parallel %.1f of %.1f ms)\n",
                                    mname, serial_fraction, par_total * 1e3, total * 1e3);
                    }
                } else if (r.fingerprint != baseline) {
                    ++mismatches;
                    std::fprintf(stderr, "FAIL: %s/%s fingerprint differs at %d threads\n",
                                 scene.name.c_str(), mname, threads);
                }
                if (scene.name == "lattice" && mode == core::EngineMode::Serial) {
                    if (threads == 1) lattice_ms_1 = r.wall_ms;
                    if (threads == 4) lattice_ms_4 = r.wall_ms;
                }
                const double spdup = r.wall_ms > 0.0 ? ms_1 / r.wall_ms : 0.0;
                std::printf("%8s %8d %12.2f %9.2fx\n", mname, threads, r.wall_ms, spdup);
                report.add("step_ms_" + scene.name + "_" + mname + "_t" +
                               std::to_string(threads),
                           r.wall_ms);
                report.add("speedup_" + scene.name + "_" + mname + "_t" +
                               std::to_string(threads),
                           spdup);
            }
        }
    }

    const double speedup4 = lattice_ms_4 > 0.0 ? lattice_ms_1 / lattice_ms_4 : 0.0;
    report.add("lattice_speedup_t4_final", speedup4);
    report.add("determinism_mismatches", mismatches);
    report.write();

    int rc = 0;
    if (mismatches) {
        std::fprintf(stderr, "\nFAILED: %d bitwise mismatches across teams\n",
                     mismatches);
        rc = 1;
    }
    if (speedup_gate && speedup4 < 2.2) {
        std::fprintf(stderr,
                     "\nFAILED: 4-thread whole-step speedup %.2fx below the 2.2x floor\n",
                     speedup4);
        rc = 1;
    }
    if (rc == 0)
        std::printf("\nOK: all teams bit-identical; 4-thread whole-step "
                    "speedup %.2fx\n",
                    speedup4);
    return rc;
}
