#pragma once
// Shared driver for the Table II / Table III case benches: run the serial
// engine (measured wall time per module, the "E5620" column: the median of
// kSerialRuns runs after a warm-up) and the GPU pipeline engine
// (SIMT-modeled K20/K40 time per module) on the same model, then print the
// paper's table layout with speed-up rates.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "obs/recorder.hpp"

namespace gdda::bench {

/// Measured serial runs per case. One more run before them warms caches
/// and the allocator and is discarded; the run with the median total time
/// is reported, so the module rows still sum to the reported total.
inline constexpr int kSerialRuns = 3;

struct CaseResult {
    core::ModuleTimers serial;                      // measured seconds (median run)
    std::array<double, core::kModuleCount> k20{};   // modeled ms
    std::array<double, core::kModuleCount> k40{};   // modeled ms
    int steps = 0;
    obs::Aggregator serial_agg;                     // telemetry totals, median serial run
    obs::Aggregator gpu_agg;                        // telemetry totals, GPU-pipeline run
};

inline CaseResult run_case(block::BlockSystem model, const core::SimConfig& cfg, int steps) {
    CaseResult out;
    out.steps = steps;
    struct SerialRun {
        core::ModuleTimers timers;
        obs::Aggregator agg;
    };
    auto serial_run = [&]() {
        block::BlockSystem sys = model;
        core::DdaEngine eng(sys, cfg, core::EngineMode::Serial);
        auto rec = std::make_shared<obs::Recorder>();
        rec->ensure_aggregator();
        eng.attach_recorder(rec);
        for (int s = 0; s < steps; ++s) eng.step();
        return SerialRun{eng.timers(), *rec->aggregator()};
    };
    (void)serial_run(); // warm-up
    std::vector<SerialRun> runs;
    for (int k = 0; k < kSerialRuns; ++k) runs.push_back(serial_run());
    std::sort(runs.begin(), runs.end(), [](const SerialRun& a, const SerialRun& b) {
        return a.timers.total() < b.timers.total();
    });
    out.serial = runs[kSerialRuns / 2].timers;
    out.serial_agg = runs[kSerialRuns / 2].agg;
    {
        block::BlockSystem sys = std::move(model);
        core::DdaEngine eng(sys, cfg, core::EngineMode::Gpu);
        auto rec = std::make_shared<obs::Recorder>();
        rec->ensure_aggregator();
        eng.attach_recorder(rec);
        for (int s = 0; s < steps; ++s) eng.step();
        out.gpu_agg = *rec->aggregator();
        for (int m = 0; m < core::kModuleCount; ++m) {
            out.k20[m] = eng.ledgers().modeled_ms(static_cast<core::Module>(m),
                                                  simt::tesla_k20());
            out.k40[m] = eng.ledgers().modeled_ms(static_cast<core::Module>(m),
                                                  simt::tesla_k40());
        }
    }
    return out;
}

/// Emit the machine-readable BENCH_<name>.json companion of a case table:
/// per-module serial seconds, modeled K20/K40 ms, speed-ups, and run totals.
/// This is the report format perf PRs diff to prove their wins.
inline void write_case_report(const std::string& bench_name, const CaseResult& r) {
    obs::JsonValue modules = obs::JsonValue::array();
    for (int m = 0; m < core::kModuleCount; ++m) {
        const double s = r.serial.seconds(static_cast<core::Module>(m));
        obs::JsonValue mj = obs::JsonValue::object();
        mj.set("key", obs::JsonValue::string(std::string(obs::kModuleKeys[m])));
        mj.set("name", obs::JsonValue::string(std::string(core::kModuleNames[m])));
        mj.set("serial_seconds", obs::JsonValue::number(s));
        mj.set("k20_ms", obs::JsonValue::number(r.k20[m]));
        mj.set("k40_ms", obs::JsonValue::number(r.k40[m]));
        mj.set("speedup_k20", obs::JsonValue::number(r.k20[m] > 0 ? s / (r.k20[m] / 1e3) : 0));
        mj.set("speedup_k40", obs::JsonValue::number(r.k40[m] > 0 ? s / (r.k40[m] / 1e3) : 0));
        modules.push(std::move(mj));
    }
    double tot20 = 0.0;
    double tot40 = 0.0;
    for (int m = 0; m < core::kModuleCount; ++m) {
        tot20 += r.k20[m];
        tot40 += r.k40[m];
    }
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("schema", obs::JsonValue::string("gdda.obs.bench"));
    doc.set("version", obs::JsonValue::integer(1));
    doc.set("bench", obs::JsonValue::string(bench_name));
    doc.set("steps", obs::JsonValue::integer(r.steps));
    doc.set("serial_total_seconds", obs::JsonValue::number(r.serial.total()));
    doc.set("k20_total_ms", obs::JsonValue::number(tot20));
    doc.set("k40_total_ms", obs::JsonValue::number(tot40));
    doc.set("pcg_iterations", obs::JsonValue::integer(r.serial_agg.pcg_iterations()));
    doc.set("open_close_iters", obs::JsonValue::integer(r.serial_agg.open_close_iters()));
    doc.set("modules", std::move(modules));
    obs::JsonValue meta = make_report_meta();
    meta.set("serial_runs", obs::JsonValue::integer(kSerialRuns));
    meta.set("serial_warmup_runs", obs::JsonValue::integer(1));
    doc.set("meta", std::move(meta));
    write_json_report("BENCH_" + bench_name + ".json", doc);
}

inline void print_case_table(const std::string& title, const CaseResult& r) {
    header(title);
    // Rendered from the telemetry aggregators — the same per-step records a
    // .jsonl sink would capture reproduce the Table II/III breakdown.
    const std::array<const simt::DeviceProfile*, 2> devs = {&simt::tesla_k20(),
                                                            &simt::tesla_k40()};
    std::fputs(obs::render_case_table("", r.serial_agg, r.gpu_agg, devs).c_str(), stdout);
    std::printf("(%d steps; serial column measured on this host, median of %d runs after\n"
                " a warm-up; GPU columns are SIMT-model times for the instrumented\n"
                " pipeline -- see DESIGN.md)\n",
                r.steps, kSerialRuns);
}

} // namespace gdda::bench
