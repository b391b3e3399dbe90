// Tests for the gdda::trace subsystem: span nesting and ring-buffer
// semantics, Chrome trace export/validation/round-trip, the profile
// aggregator, and — the acceptance criterion — exact agreement between the
// per-launch kernel events and the engine's own CostLedger accounting, plus
// structural parity of the loop-span tree between the serial and GPU modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "models/slope.hpp"
#include "obs/record.hpp"
#include "simt/warp_executor.hpp"
#include "trace/chrome_export.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"
#include "trace/validate.hpp"

using namespace gdda;

namespace {

trace::TraceConfig enabled_cfg(std::size_t ring = 1u << 16) {
    trace::TraceConfig cfg;
    cfg.enabled = true;
    cfg.ring_capacity = ring;
    return cfg;
}

core::SimConfig traced_sim_cfg() {
    core::SimConfig cfg;
    cfg.dt = 5e-4;
    cfg.dt_max = 2e-3;
    cfg.velocity_carry = 0.0;
    cfg.trace.enabled = true;
    return cfg;
}

int count_begins(const std::vector<trace::Event>& ev, trace::Category cat) {
    return static_cast<int>(
        std::count_if(ev.begin(), ev.end(), [&](const trace::Event& e) {
            return e.phase == trace::Phase::Begin && e.cat == cat;
        }));
}

} // namespace

// ------------------------------------------------------------------- tracer

TEST(Trace, SpanNestingAndBalance) {
    trace::Tracer tracer(enabled_cfg());
    const std::uint32_t outer = tracer.begin(trace::Category::Step, "step");
    EXPECT_EQ(tracer.current_span(), outer);
    const std::uint32_t mid =
        tracer.begin(trace::Category::Module, "Contact Detection", 0);
    EXPECT_EQ(tracer.current_module(), 0);
    const std::uint32_t inner = tracer.begin(trace::Category::Solve, "pcg_solve");
    EXPECT_EQ(tracer.current_module(), 0) << "module inherited from enclosing span";
    tracer.end(inner);
    tracer.end(mid);
    EXPECT_EQ(tracer.current_module(), -1);
    tracer.end(outer);
    EXPECT_EQ(tracer.current_span(), 0u);

    const auto ev = tracer.snapshot();
    ASSERT_EQ(ev.size(), 6u);
    EXPECT_EQ(ev[0].phase, trace::Phase::Begin);
    EXPECT_EQ(ev[0].parent, 0u);
    EXPECT_EQ(ev[1].parent, outer);
    EXPECT_EQ(ev[2].parent, mid);
    // Ends arrive innermost-first and timestamps never decrease.
    EXPECT_EQ(ev[3].id, inner);
    EXPECT_EQ(ev[4].id, mid);
    EXPECT_EQ(ev[5].id, outer);
    for (std::size_t i = 1; i < ev.size(); ++i) {
        EXPECT_GE(ev[i].t_us, ev[i - 1].t_us);
        EXPECT_GT(ev[i].seq, ev[i - 1].seq);
    }
}

TEST(Trace, FromConfigMirrorsEnabledFlag) {
    trace::TraceConfig off;
    off.enabled = false;
    EXPECT_EQ(trace::Tracer::from_config(off), nullptr);
    EXPECT_NE(trace::Tracer::from_config(enabled_cfg()), nullptr);
}

TEST(Trace, RingWraparoundKeepsNewestAndCounts) {
    trace::Tracer tracer(enabled_cfg(/*ring=*/64));
    for (int i = 0; i < 1000; ++i) {
        trace::Span s(&tracer, trace::Category::Other, "filler");
    }
    EXPECT_EQ(tracer.events_seen(), 2000u);
    EXPECT_EQ(tracer.events_dropped(), 2000u - 64u);
    const auto ev = tracer.snapshot();
    ASSERT_EQ(ev.size(), 64u);
    // Oldest-first chronological order, and it is the NEWEST 64 events.
    for (std::size_t i = 1; i < ev.size(); ++i) EXPECT_GT(ev[i].seq, ev[i - 1].seq);
    EXPECT_EQ(ev.back().seq, 1999u);
}

TEST(Trace, ScopedTimerAndSpanShareClockReads) {
    core::ModuleTimers timers;
    trace::Tracer tracer(enabled_cfg());
    {
        core::ScopedTimer t(timers, core::Module::EquationSolving, &tracer);
        volatile double sink = 0.0;
        for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
    }
    const auto ev = tracer.snapshot();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].cat, trace::Category::Module);
    EXPECT_EQ(ev[0].module, static_cast<int>(core::Module::EquationSolving));
    // The SAME two clock samples feed timer and span: equality is exact.
    const double span_seconds = (ev[1].t_us - ev[0].t_us) * 1e-6;
    EXPECT_EQ(timers.seconds(core::Module::EquationSolving), span_seconds);
    EXPECT_GT(span_seconds, 0.0);
}

TEST(Trace, ScopedTimerMoveChargesExactlyOnce) {
    core::ModuleTimers timers;
    trace::Tracer tracer(enabled_cfg());
    {
        core::ScopedTimer a(timers, core::Module::DataUpdate, &tracer);
        core::ScopedTimer b = std::move(a);
        b.stop();
        b.stop(); // idempotent
    } // destructors of both a and b run; neither may double-charge
    const auto ev = tracer.snapshot();
    EXPECT_EQ(ev.size(), 2u) << "one Begin + one End despite move and re-stop";
    const double charged = timers.seconds(core::Module::DataUpdate);
    EXPECT_EQ(charged, (ev[1].t_us - ev[0].t_us) * 1e-6);
}

TEST(Trace, KernelHookCapturesWarpLaunch) {
    trace::Tracer tracer(enabled_cfg());
    tracer.install_kernel_hook();
    simt::WarpExecutor ex(8);
    std::vector<int> out(64, 0);
    ex.launch("test_warp_kernel", out.size(), [&](simt::Lane& lane) {
        out[lane.thread_id()] = static_cast<int>(lane.thread_id());
    });
    tracer.uninstall_kernel_hook();

    const auto ev = tracer.snapshot();
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].cat, trace::Category::Warp);
    EXPECT_EQ(ev[0].phase, trace::Phase::Complete);
    EXPECT_EQ(ev[0].name, "test_warp_kernel");
    EXPECT_EQ(ev[0].kernel.launches, 1);
    EXPECT_EQ(ev[0].kernel.warps, 8.0); // 64 threads / warp_size 8
}

TEST(Trace, RecordKernelForwardsToHookOnce) {
    trace::Tracer tracer(enabled_cfg());
    tracer.install_kernel_hook();
    simt::KernelCost sink = simt::KernelCost::accumulator();
    simt::KernelCost kc;
    kc.name = "unit_kernel";
    kc.flops = 100.0;
    simt::record_kernel(&sink, kc, 3);
    simt::record_kernel(nullptr, kc, 3); // hook still sees sink-less launches
    tracer.uninstall_kernel_hook();

    EXPECT_EQ(sink.launches, 1);
    EXPECT_EQ(sink.flops, 100.0);
    const auto ev = tracer.snapshot();
    ASSERT_EQ(ev.size(), 2u);
    for (const auto& e : ev) {
        EXPECT_EQ(e.cat, trace::Category::Kernel);
        EXPECT_EQ(e.name, "unit_kernel");
        EXPECT_EQ(e.module, 3);
        EXPECT_GT(e.dur_us, 0.0) << "modeled duration attached";
    }
}

// ----------------------------------------------------- export + validation

TEST(Trace, ChromeExportValidatesAndRoundTrips) {
    trace::Tracer tracer(enabled_cfg());
    tracer.install_kernel_hook();
    {
        trace::Span step(&tracer, trace::Category::Step, "step");
        trace::Span mod(&tracer, trace::Category::Module, "Equation Solving", 3);
        simt::KernelCost kc;
        kc.name = "spmv_test";
        kc.flops = 5e6;
        kc.bytes_coalesced = 2e6;
        simt::record_kernel(nullptr, kc);
    }
    tracer.uninstall_kernel_hook();

    const obs::JsonValue doc = trace::chrome_trace_document(tracer);
    const trace::TraceValidation val = trace::validate_trace_document(doc);
    EXPECT_TRUE(val.ok) << val.error;
    EXPECT_EQ(val.events, 5); // 2 B + 2 E + 1 X

    // Round-trip: the profile rebuilt from the exported JSON must agree with
    // the profile computed from the live tracer.
    const trace::Profile direct = trace::Profile::from_tracer(tracer);
    trace::Profile reloaded;
    std::string err;
    ASSERT_TRUE(trace::Profile::from_chrome(doc, reloaded, &err)) << err;
    ASSERT_EQ(reloaded.kernels().size(), direct.kernels().size());
    EXPECT_EQ(reloaded.kernels()[0].name, "spmv_test");
    EXPECT_EQ(reloaded.kernels()[0].module, 3);
    EXPECT_EQ(reloaded.kernels()[0].launches, 1);
    EXPECT_NEAR(reloaded.total_modeled_us(), direct.total_modeled_us(),
                1e-9 * (1.0 + direct.total_modeled_us()));
}

TEST(Trace, ExportRepairsRingWraparound) {
    // A tiny ring drops most Begin events; the exporter must still emit a
    // structurally valid file (orphan Ends dropped, open spans closed).
    trace::Tracer tracer(enabled_cfg(/*ring=*/32));
    trace::Span outer(&tracer, trace::Category::Step, "step");
    for (int i = 0; i < 500; ++i) {
        trace::Span s(&tracer, trace::Category::Other, "filler");
    }
    // `outer` stays open at export time on purpose.
    const obs::JsonValue doc = trace::chrome_trace_document(tracer);
    const trace::TraceValidation val = trace::validate_trace_document(doc);
    EXPECT_TRUE(val.ok) << val.error;
    EXPECT_GT(tracer.events_dropped(), 0u);
}

TEST(Trace, ValidatorRejectsMalformedTraces) {
    const char* bad[] = {
        // not an object / missing traceEvents
        "[]",
        R"({"traceEvents": 3})",
        // unknown category
        R"({"traceEvents":[{"name":"a","cat":"nope","ph":"X","ts":0,"dur":1}]})",
        // unbalanced: E without B
        R"({"traceEvents":[{"name":"a","cat":"step","ph":"E","ts":1}]})",
        // unbalanced: B left open
        R"({"traceEvents":[{"name":"a","cat":"step","ph":"B","ts":1}]})",
        // LIFO violation: E name does not match innermost open span
        R"({"traceEvents":[{"name":"a","cat":"step","ph":"B","ts":0},
                           {"name":"b","cat":"pass","ph":"B","ts":1},
                           {"name":"a","cat":"step","ph":"E","ts":2},
                           {"name":"b","cat":"pass","ph":"E","ts":3}]})",
        // non-monotonic timestamps
        R"({"traceEvents":[{"name":"a","cat":"step","ph":"B","ts":5},
                           {"name":"a","cat":"step","ph":"E","ts":1}]})",
        // negative Complete duration
        R"({"traceEvents":[{"name":"k","cat":"kernel","ph":"X","ts":0,"dur":-2}]})",
    };
    for (const char* text : bad) {
        EXPECT_FALSE(trace::validate_trace_text(text).ok) << text;
    }
    const trace::TraceValidation ok = trace::validate_trace_text(
        R"({"traceEvents":[{"name":"a","cat":"step","ph":"B","ts":0},
                           {"name":"k","cat":"kernel","ph":"X","ts":1,"dur":2},
                           {"name":"a","cat":"step","ph":"E","ts":9}]})");
    EXPECT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(ok.events, 3);
}

// ------------------------------------------------------- engine integration

TEST(Trace, GpuEngineKernelTotalsMatchCostLedgers) {
    block::BlockSystem sys = models::make_slope_with_blocks(40);
    core::DdaEngine eng(sys, traced_sim_cfg(), core::EngineMode::Gpu);
    eng.run(2);
    ASSERT_NE(eng.tracer(), nullptr);

    // Every kernel runs inside the timed scope of its own module: its
    // nearest Module ancestor span carries the kernel's module row, so the
    // trace tree files each launch under the row its ledger charges.
    const std::vector<trace::Event> ev = eng.tracer()->snapshot();
    ASSERT_EQ(eng.tracer()->events_dropped(), 0u);
    std::unordered_map<std::uint32_t, const trace::Event*> begins;
    for (const trace::Event& e : ev)
        if (e.phase == trace::Phase::Begin) begins[e.id] = &e;
    int kernels = 0;
    for (const trace::Event& e : ev) {
        if (e.cat != trace::Category::Kernel) continue;
        ++kernels;
        int enclosing = -1;
        for (auto it = begins.find(e.parent); it != begins.end();
             it = begins.find(it->second->parent)) {
            if (it->second->cat == trace::Category::Module) {
                enclosing = it->second->module;
                break;
            }
        }
        EXPECT_EQ(enclosing, e.module) << "kernel " << e.name;
    }
    EXPECT_GT(kernels, 0);

    const trace::Profile prof = trace::Profile::from_tracer(*eng.tracer());
    for (int m = 0; m < core::kModuleCount; ++m) {
        const simt::KernelCost ledger =
            eng.ledgers().ledger(static_cast<core::Module>(m)).total();
        const simt::KernelCost traced = prof.module_cost(m);
        const double denom = 1.0 + std::abs(ledger.flops) +
                             std::abs(ledger.bytes_coalesced) +
                             std::abs(ledger.bytes_random);
        EXPECT_EQ(traced.launches, ledger.launches) << "module " << m;
        EXPECT_NEAR(traced.flops, ledger.flops, 1e-9 * denom) << "module " << m;
        EXPECT_NEAR(traced.bytes_coalesced, ledger.bytes_coalesced, 1e-9 * denom);
        EXPECT_NEAR(traced.bytes_random, ledger.bytes_random, 1e-9 * denom);
        EXPECT_NEAR(traced.bytes_texture, ledger.bytes_texture, 1e-9 * denom);
    }
    EXPECT_GT(prof.total_modeled_us(), 0.0);
    EXPECT_GT(prof.step_wall_us(), 0.0);

    // One clock, one timing path: in either mode each module's timer holds
    // exactly the sum of its Module span durations, accumulated in the
    // order the scopes closed.
    for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
        block::BlockSystem s = models::make_slope_with_blocks(40);
        core::DdaEngine e(s, traced_sim_cfg(), mode);
        e.run(2);
        ASSERT_EQ(e.tracer()->events_dropped(), 0u);
        core::ModuleTimers from_spans;
        std::unordered_map<std::uint32_t, const trace::Event*> open;
        const std::vector<trace::Event> events = e.tracer()->snapshot();
        for (const trace::Event& x : events) {
            if (x.phase == trace::Phase::Begin && x.cat == trace::Category::Module) {
                open[x.id] = &x;
            } else if (x.phase == trace::Phase::End) {
                const auto it = open.find(x.id);
                if (it == open.end()) continue;
                from_spans.add(static_cast<core::Module>(it->second->module),
                               (x.t_us - it->second->t_us) * 1e-6);
                open.erase(it);
            }
        }
        EXPECT_TRUE(open.empty());
        for (int m = 0; m < core::kModuleCount; ++m) {
            const core::Module mod = static_cast<core::Module>(m);
            EXPECT_GT(e.timers().seconds(mod), 0.0) << "module " << m;
            EXPECT_EQ(e.timers().seconds(mod), from_spans.seconds(mod))
                << "module " << m << (mode == core::EngineMode::Gpu ? " gpu" : " serial");
        }
    }
}

TEST(Trace, SerialAndGpuAgreeOnLoopSpanCounts) {
    // The two engines produce identical trajectories, so the loop-structure
    // spans (steps, passes, open-close iterations, solves, PCG iterations)
    // must match one-to-one. Kernel events exist only on the GPU pipeline.
    std::vector<trace::Event> ev[2];
    const core::EngineMode modes[2] = {core::EngineMode::Serial,
                                       core::EngineMode::Gpu};
    for (int k = 0; k < 2; ++k) {
        block::BlockSystem sys = models::make_slope_with_blocks(30);
        core::DdaEngine eng(sys, traced_sim_cfg(), modes[k]);
        eng.run(3);
        ASSERT_NE(eng.tracer(), nullptr);
        ev[k] = eng.tracer()->snapshot();
    }
    for (trace::Category cat :
         {trace::Category::Step, trace::Category::Pass, trace::Category::OpenClose,
          trace::Category::Solve, trace::Category::PcgIteration}) {
        EXPECT_EQ(count_begins(ev[0], cat), count_begins(ev[1], cat))
            << "category " << trace::category_name(cat);
    }
    EXPECT_EQ(count_begins(ev[0], trace::Category::Step), 3);
    const auto kernel_events = [](const std::vector<trace::Event>& v) {
        return std::count_if(v.begin(), v.end(), [](const trace::Event& e) {
            return e.cat == trace::Category::Kernel;
        });
    };
    EXPECT_EQ(kernel_events(ev[0]), 0) << "serial pipeline models no kernels";
    EXPECT_GT(kernel_events(ev[1]), 0);
}

TEST(Trace, SolveAndIterationSpansMatchStepStats) {
    block::BlockSystem sys = models::make_slope_with_blocks(30);
    core::DdaEngine eng(sys, traced_sim_cfg(), core::EngineMode::Gpu);
    int solves = 0;
    int iterations = 0;
    for (int s = 0; s < 3; ++s) {
        const core::StepStats st = eng.step();
        solves += st.pcg_solves;
        iterations += st.pcg_iterations;
    }
    const auto ev = eng.tracer()->snapshot();
    EXPECT_EQ(count_begins(ev, trace::Category::Solve), solves);
    EXPECT_EQ(count_begins(ev, trace::Category::PcgIteration), iterations);
}

TEST(Trace, StepRecordCarriesStepSpanId) {
    // obs schema v2: every telemetry record names its Step span so the
    // telemetry stream can be joined against the exported trace.
    obs::StepRecord rec;
    rec.mode = "gpu";
    rec.dt = 1e-3;
    rec.trace_span = 41;
    const obs::JsonValue doc = obs::to_json(rec);
    obs::StepRecord back;
    std::string err;
    ASSERT_TRUE(obs::from_json(doc, back, &err)) << err;
    EXPECT_EQ(back.trace_span, 41u);

    // A v1 document (no trace_span) still decodes, defaulting to 0.
    obs::JsonValue v1 = doc;
    v1.set("version", obs::JsonValue::integer(1));
    obs::JsonValue stripped = obs::JsonValue::object();
    for (const auto& [key, val] : v1.members())
        if (key != "trace_span") stripped.set(key, val);
    ASSERT_TRUE(obs::from_json(stripped, back, &err)) << err;
    EXPECT_EQ(back.trace_span, 0u);
}

TEST(Trace, ProfileRendersTablesWithoutCrashing) {
    block::BlockSystem sys = models::make_slope_with_blocks(30);
    core::DdaEngine eng(sys, traced_sim_cfg(), core::EngineMode::Gpu);
    eng.run(1);
    const trace::Profile prof = trace::Profile::from_tracer(*eng.tracer());
    const std::string table = prof.render_kernel_table(5);
    const std::string tree = prof.render_loop_tree();
    EXPECT_NE(table.find("Name"), std::string::npos);
    EXPECT_NE(tree.find("step"), std::string::npos);
    EXPECT_FALSE(prof.kernels().empty());
}
