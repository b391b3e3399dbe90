// bench_metrics_overhead — guards the gdda::metrics overhead contract stated
// in metrics/registry.hpp: instruments are single relaxed atomics (counter
// inc, gauge set) or a short bounds walk plus two CAS adds (histogram
// observe); rendering the exposition is linear in registry size and never on
// the step path. The bench times each instrument op, times a short engine
// run with the full observer stack (metrics + health watchdog + flight
// recorder) against the identical run with metrics off, and FAILS (exit 1)
// when
//
//   * any per-op cost exceeds a deliberately lenient budget (catches a
//     mutex or allocation sneaking onto the hot path), or
//   * the observed step-time ratio on/off exceeds a generous cap, or
//   * the two trajectories are not BITWISE IDENTICAL — the observer-only
//     contract, gated hard with no tolerance.
//
// Usage: bench_metrics_overhead [iterations]

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "bench_util.hpp"
#include "block/block_system.hpp"
#include "core/engine.hpp"
#include "metrics/registry.hpp"
#include "metrics/validate.hpp"

using namespace gdda;

namespace {

struct Budget {
    const char* name;
    double ns;
    double budget_ns;
};

/// Run `steps` engine steps on a fresh small slope; returns the state
/// fingerprint and accumulates wall milliseconds into `*ms`.
std::uint64_t run_slope(int steps, const core::SimConfig& cfg, double* ms) {
    block::BlockSystem sys = models::make_slope_with_blocks(40);
    core::DdaEngine engine(sys, cfg, core::EngineMode::Serial);
    const auto t0 = bench::Clock::now();
    for (int s = 0; s < steps; ++s) engine.step();
    *ms += bench::ms_since(t0);
    return block::state_fingerprint(sys);
}

} // namespace

int main(int argc, char** argv) {
    const long iters = argc > 1 ? std::atol(argv[1]) : 200000;

    metrics::Registry& reg = metrics::Registry::global();
    metrics::Counter& ctr = reg.counter("bench_ops_total", "bench counter");
    metrics::Gauge& gauge = reg.gauge("bench_level", "bench gauge");
    metrics::Histogram& hist =
        reg.histogram("bench_latency_seconds", metrics::default_latency_buckets(),
                      "bench histogram");

    // 1. Counter increment: one relaxed fetch_add.
    const double ctr_ns = bench::ns_per_op(iters * 16, [&] {
        ctr.inc();
        bench::do_not_optimize(&ctr);
    });

    // 2. Gauge set: one relaxed store.
    const double gauge_ns = bench::ns_per_op(iters * 16, [&] {
        gauge.set(42.0);
        bench::do_not_optimize(&gauge);
    });

    // 3. Histogram observe: bounds walk + bucket inc + CAS sum add.
    double v = 0.0;
    const double hist_ns = bench::ns_per_op(iters, [&] {
        hist.observe(v);
        v = v < 1.0 ? v + 1e-4 : 0.0; // sweep the buckets
        bench::do_not_optimize(&hist);
    });

    // 4. Full exposition render of the populated registry (NOT on the step
    //    path — budgeted to catch quadratic blowups, not micro-speed).
    const double render_ns = bench::ns_per_op(std::max(iters / 1000, 100L), [&] {
        const std::string text = reg.render_prometheus();
        bench::do_not_optimize(text.data());
    });

    // The rendered text must itself be a valid exposition.
    std::istringstream expo(reg.render_prometheus());
    const metrics::ExpositionValidation val = metrics::validate_exposition(expo);
    if (!val) {
        std::fprintf(stderr, "exposition self-validation FAILED: %s\n", val.error.c_str());
        return 1;
    }

    // 5. End-to-end observer cost + the bitwise observer-only contract:
    //    identical scene/config/steps with the full stack on vs off.
    const int steps = 20;
    core::SimConfig base;
    core::SimConfig instrumented = base;
    instrumented.metrics.enabled = true;
    instrumented.metrics.flight_recorder_capacity = 32;

    double off_ms = 0.0;
    double on_ms = 0.0;
    // Interleave repetitions so frequency scaling / cache state hits both
    // configurations equally.
    std::uint64_t fp_off = 0;
    std::uint64_t fp_on = 0;
    const int reps = 3;
    for (int r = 0; r < reps; ++r) {
        fp_off = run_slope(steps, base, &off_ms);
        fp_on = run_slope(steps, instrumented, &on_ms);
    }
    const bool bitwise_ok = fp_off == fp_on;
    const double ratio = off_ms > 0.0 ? on_ms / off_ms : 1.0;
    // Generous cap: the observer adds one record build + ~20 atomic updates
    // + an energy measurement per step. 1.5x leaves room for CI noise while
    // still catching an accidental per-step render or allocation storm.
    const double ratio_cap = 1.5;

    // Budgets are ~100x observed cost on a laptop-class core: they catch
    // complexity regressions (a mutex on the counter path, O(families^2)
    // rendering), not micro-level speed under CI noise.
    const Budget rows[] = {
        {"counter inc (ns/op)", ctr_ns, 1000.0},
        {"gauge set (ns/op)", gauge_ns, 1000.0},
        {"histogram observe (ns/op)", hist_ns, 5000.0},
        {"render exposition (ns/call)", render_ns, 5e6},
    };

    bench::header("gdda::metrics overhead (smaller is better)");
    std::printf("%-34s %12s %12s  %s\n", "path", "ns/op", "budget", "status");
    bool ok = true;
    for (const Budget& r : rows) {
        const bool pass = r.ns <= r.budget_ns;
        ok = ok && pass;
        std::printf("%-34s %12.1f %12.0f  %s\n", r.name, r.ns, r.budget_ns,
                    pass ? "ok" : "OVER BUDGET");
    }
    bench::rule();
    std::printf("engine %d-step run x%d: metrics off %.2f ms, on %.2f ms "
                "(ratio %.3f, cap %.1f)\n",
                steps, reps, off_ms, on_ms, ratio, ratio_cap);
    std::printf("observer-only contract: fingerprints %016llx vs %016llx — %s\n",
                static_cast<unsigned long long>(fp_off),
                static_cast<unsigned long long>(fp_on),
                bitwise_ok ? "BITWISE IDENTICAL" : "MISMATCH");

    const bool ratio_ok = ratio <= ratio_cap;
    ok = ok && ratio_ok && bitwise_ok;

    bench::MetricReport rep("metrics_overhead");
    rep.add("counter_inc_ns", ctr_ns);
    rep.add("gauge_set_ns", gauge_ns);
    rep.add("histogram_observe_ns", hist_ns);
    rep.add("render_ns", render_ns);
    rep.add("step_ratio_on_off", ratio);
    rep.add("bitwise_identical", bitwise_ok ? 1.0 : 0.0);
    rep.add("guard_passed", ok ? 1.0 : 0.0);
    rep.write();

    if (!bitwise_ok)
        std::fprintf(stderr, "metrics observer-only contract VIOLATED (trajectory changed)\n");
    if (!ratio_ok)
        std::fprintf(stderr, "metrics step overhead OVER CAP (%.3f > %.1f)\n", ratio, ratio_cap);
    if (!ok) {
        std::fprintf(stderr, "metrics overhead guard FAILED\n");
        return 1;
    }
    return 0;
}
