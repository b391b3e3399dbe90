// gdda run_model — the command-line driver: load a model (or a named
// built-in generator), run the DDA pipeline with configurable options, emit
// snapshots and checkpoints. The adoption-facing entry point of the library.
//
// Usage:
//   run_model <model.txt | slope:N | rocks:N | tunnel | column:N>
//             [--steps N] [--dt S] [--static|--dynamic]
//             [--engine serial|gpu] [--precond bj|ssor|ilu]
//             [--exact-rotation]
//             [--snapshot prefix] [--snapshot-every N]
//             [--checkpoint-out file] [--checkpoint-in file]
//             [--report-energy] [--telemetry file.jsonl] [--trace file.trace.json]
//
// Checkpoints are gdda::state snapshots (docs/STATE.md). --checkpoint-in
// continues a run bit for bit (the model argument is ignored); a different
// engine mode, --dt, --static/--dynamic, --precond or --exact-rotation than
// the writing run's exits 1. `done:` prints the final state fingerprint.
//
// Examples:
//   run_model slope:400 --static --steps 800 --snapshot slope
//   run_model tunnel --dynamic --steps 2000 --checkpoint-out tun.ckpt
//   run_model tunnel --dynamic --steps 2000 --checkpoint-in tun.ckpt

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/energy.hpp"
#include "core/interpenetration.hpp"
#include "core/simulation.hpp"
#include "io/model_io.hpp"
#include "io/snapshot.hpp"
#include "models/falling_rocks.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "models/tunnel.hpp"
#include "state/snapshot.hpp"
#include "trace/chrome_export.hpp"

using namespace gdda;

namespace {

block::BlockSystem make_model(const std::string& spec) {
    const auto colon = spec.find(':');
    const std::string kind = spec.substr(0, colon);
    const int n = colon == std::string::npos ? 0 : std::atoi(spec.c_str() + colon + 1);
    if (kind == "slope") return models::make_slope_with_blocks(n > 0 ? n : 300);
    if (kind == "rocks") return models::make_falling_rocks_with_blocks(n > 0 ? n : 100);
    if (kind == "tunnel") return models::make_tunnel();
    if (kind == "column") return models::make_column(n > 0 ? n : 5);
    return io::load_model_file(spec);
}

int usage() {
    std::fprintf(stderr,
                 "usage: run_model <model.txt|slope:N|rocks:N|tunnel|column:N> [options]\n"
                 "  --steps N --dt S --static --dynamic --engine serial|gpu\n"
                 "  --precond bj|ssor|ilu --exact-rotation\n"
                 "  --snapshot prefix --snapshot-every N\n"
                 "  --checkpoint-out file --checkpoint-in file --report-energy\n"
                 "  --telemetry file.jsonl --trace file.trace.json\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string model_spec = argv[1];

    int steps = 500;
    core::SimConfig cfg;
    core::EngineMode mode = core::EngineMode::Serial;
    std::string snapshot_prefix;
    int snapshot_every = 100;
    std::string ckpt_out;
    std::string ckpt_in;
    bool report_energy = false;

    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        // Every value-taking flag reads its value through here: a flag at the
        // end of the line is a usage error, never a null dereference.
        const char* v = nullptr;
        auto next = [&] {
            v = i + 1 < argc ? argv[++i] : nullptr;
            return v != nullptr;
        };
        if (a == "--steps") {
            if (!next()) return usage();
            steps = std::atoi(v);
        } else if (a == "--dt") {
            if (!next()) return usage();
            cfg.dt = std::atof(v);
            cfg.dt_max = cfg.dt * 2.0;
        } else if (a == "--static") {
            cfg.velocity_carry = 0.0;
        } else if (a == "--dynamic") {
            cfg.velocity_carry = 1.0;
        } else if (a == "--engine") {
            if (!next()) return usage();
            if (std::strcmp(v, "serial") == 0) mode = core::EngineMode::Serial;
            else if (std::strcmp(v, "gpu") == 0) mode = core::EngineMode::Gpu;
            else return usage();
        } else if (a == "--precond") {
            if (!next()) return usage();
            if (std::strcmp(v, "bj") == 0) cfg.precond = core::PrecondKind::BlockJacobi;
            else if (std::strcmp(v, "ssor") == 0) cfg.precond = core::PrecondKind::SsorAi;
            else if (std::strcmp(v, "ilu") == 0) cfg.precond = core::PrecondKind::Ilu0;
            else return usage();
        } else if (a == "--exact-rotation") {
            cfg.exact_rotation = true;
        } else if (a == "--snapshot") {
            if (!next()) return usage();
            snapshot_prefix = v;
        } else if (a == "--snapshot-every") {
            if (!next()) return usage();
            snapshot_every = std::atoi(v);
        } else if (a == "--checkpoint-out") {
            if (!next()) return usage();
            ckpt_out = v;
        } else if (a == "--checkpoint-in") {
            if (!next()) return usage();
            ckpt_in = v;
        } else if (a == "--report-energy") {
            report_energy = true;
        } else if (a == "--telemetry") {
            if (!next()) return usage();
            cfg.telemetry.enabled = true;
            cfg.telemetry.jsonl_path = v;
        } else if (a == "--trace") {
            if (!next()) return usage();
            cfg.trace.enabled = true;
            cfg.trace.chrome_path = v;
        } else {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            return usage();
        }
    }

    try {
        std::optional<state::EngineSnapshot> snap;
        if (!ckpt_in.empty()) snap = state::load_snapshot_file(ckpt_in);
        block::BlockSystem sys = snap ? snap->state.sys : make_model(model_spec);
        core::DdaEngine engine(sys, cfg, mode);
        if (snap) {
            state::restore_engine(engine, *snap);
            std::printf("resumed from %s at step %d, t=%.4f s (%zu blocks)\n", ckpt_in.c_str(),
                        engine.step_index(), engine.time(), sys.size());
        } else {
            std::printf("model %s: %zu blocks\n", model_spec.c_str(), sys.size());
        }

        // Steps are numbered by the engine, so a resumed run continues the
        // numbering (and the SVG names) of the run that wrote the checkpoint.
        if (!snapshot_prefix.empty())
            io::write_snapshot_svg(
                snapshot_prefix + "_t" + std::to_string(engine.step_index()) + ".svg",
                engine.system());

        for (int i = 0; i < steps; ++i) {
            const core::StepStats st = engine.step();
            const int s = engine.step_index();
            if (s % std::max(snapshot_every, 1) == 0) {
                std::printf("step %5d: t=%.4f dt=%.2e contacts=%zu (%zu active) pcg=%d\n", s,
                            engine.time(), st.dt_used, st.contacts, st.active_contacts,
                            st.pcg_iterations);
                if (!snapshot_prefix.empty()) {
                    char name[256];
                    std::snprintf(name, sizeof name, "%s_t%d.svg", snapshot_prefix.c_str(), s);
                    io::write_snapshot_svg(name, engine.system());
                }
                if (report_energy) {
                    const core::EnergyReport e = core::measure_energy(engine.system());
                    std::printf("        energy: kinetic=%.3e potential=%.3e elastic=%.3e\n",
                                e.kinetic, e.potential, e.elastic);
                }
            }
        }

        const auto rep = core::audit_interpenetration(engine.system());
        std::printf("done: t=%.4f s, max interpenetration %.2e m, fingerprint %016llx\n",
                    engine.time(), rep.max_depth,
                    static_cast<unsigned long long>(block::state_fingerprint(engine.system())));

        const auto& t = engine.timers();
        for (int m = 0; m < core::kModuleCount; ++m)
            std::printf("  %-30s %8.3f s\n", std::string(core::kModuleNames[m]).c_str(),
                        t.seconds(static_cast<core::Module>(m)));
        if (mode == core::EngineMode::Gpu) {
            std::printf("  modeled GPU total: K20 %.1f ms, K40 %.1f ms\n",
                        engine.ledgers().total_modeled_ms(simt::tesla_k20()),
                        engine.ledgers().total_modeled_ms(simt::tesla_k40()));
        }

        if (!ckpt_out.empty()) {
            state::save_engine_file(ckpt_out, engine);
            std::printf("checkpoint written to %s\n", ckpt_out.c_str());
        }
        if (const auto& rec = engine.recorder()) {
            rec->flush();
            std::printf("telemetry: %d records -> %s\n", rec->steps_recorded(),
                        cfg.telemetry.jsonl_path.c_str());
        }
        if (const auto& tracer = engine.tracer()) {
            std::string err;
            if (trace::write_chrome_trace(cfg.trace.chrome_path, *tracer, &err))
                std::printf("trace: %llu events -> %s\n",
                            static_cast<unsigned long long>(tracer->events_seen()),
                            cfg.trace.chrome_path.c_str());
            else
                std::fprintf(stderr, "trace export failed: %s\n", err.c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
