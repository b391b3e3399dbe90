// bench_trace_overhead — guards the gdda::trace overhead contract stated in
// trace/tracer.hpp: with no tracer attached a Span is one null check; with a
// tracer attached each span costs two mutex-guarded ring pushes; record_kernel
// adds one hook dispatch per launch. The bench times each path, prints a
// table, writes BENCH_trace_overhead.json, and FAILS (exit 1) if any path
// exceeds a deliberately lenient per-operation budget — so a refactor that
// accidentally makes the disabled path allocate, or the enabled path quadratic
// in ring size, is caught by `ctest`/CI rather than by a slow profile run.
//
// Usage: bench_trace_overhead [iterations]

#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "trace/tracer.hpp"

using namespace gdda;

namespace {

struct Budget {
    const char* name;
    double ns;
    double budget_ns;
};

} // namespace

int main(int argc, char** argv) {
    const long iters = argc > 1 ? std::atol(argv[1]) : 200000;

    trace::TraceConfig cfg;
    cfg.enabled = true;
    cfg.ring_capacity = 1u << 12; // small ring: wraparound is exercised, and
                                  // cost must not depend on retained history
    trace::Tracer tracer(cfg);

    simt::KernelCost kc;
    kc.name = "bench_kernel";
    kc.flops = 1e6;
    kc.bytes_coalesced = 4e6;
    simt::KernelCost sink = simt::KernelCost::accumulator();

    // 1. Disabled path: Span against a null tracer (what untraced runs pay).
    const double off_ns = bench::ns_per_op(iters * 16, [&] {
        trace::Span s(nullptr, trace::Category::Module, "off");
        bench::do_not_optimize(s.id());
    });

    // 2. Enabled path: full begin/end pair landing in the (wrapping) ring.
    const double span_ns = bench::ns_per_op(iters, [&] {
        trace::Span s(&tracer, trace::Category::Module, "on", 0);
        bench::do_not_optimize(s.id());
    });

    // 3. record_kernel with no hook installed: accumulate-only, the pre-trace
    //    behavior every producer had before the hook existed.
    tracer.uninstall_kernel_hook();
    const double rec_ns = bench::ns_per_op(iters, [&] {
        simt::record_kernel(&sink, kc, 0);
        bench::do_not_optimize(sink.launches);
    });

    // 4. record_kernel with the tracer hooked: adds one Complete event.
    tracer.install_kernel_hook();
    const double rec_hook_ns = bench::ns_per_op(iters, [&] {
        simt::record_kernel(&sink, kc, 0);
        bench::do_not_optimize(sink.launches);
    });
    tracer.uninstall_kernel_hook();

    // Budgets are ~100x observed cost on a laptop-class core: they exist to
    // catch complexity regressions (allocation on the null path, O(ring)
    // emission), not to assert micro-level speed under CI noise.
    const Budget rows[] = {
        {"span, tracer off (ns/span)", off_ns, 1000.0},
        {"span, tracer on (ns/span)", span_ns, 20000.0},
        {"record_kernel, no hook (ns)", rec_ns, 20000.0},
        {"record_kernel, hooked (ns)", rec_hook_ns, 40000.0},
    };

    bench::header("gdda::trace overhead (smaller is better)");
    std::printf("%-34s %12s %12s  %s\n", "path", "ns/op", "budget", "status");
    bool ok = true;
    for (const Budget& r : rows) {
        const bool pass = r.ns <= r.budget_ns;
        ok = ok && pass;
        std::printf("%-34s %12.1f %12.0f  %s\n", r.name, r.ns, r.budget_ns,
                    pass ? "ok" : "OVER BUDGET");
    }
    bench::rule();
    std::printf("ring: %llu events seen, %llu dropped (wraparound exercised)\n",
                static_cast<unsigned long long>(tracer.events_seen()),
                static_cast<unsigned long long>(tracer.events_dropped()));

    bench::MetricReport rep("trace_overhead");
    rep.add("span_off_ns", off_ns);
    rep.add("span_on_ns", span_ns);
    rep.add("record_kernel_ns", rec_ns);
    rep.add("record_kernel_hooked_ns", rec_hook_ns);
    rep.add("guard_passed", ok ? 1.0 : 0.0);
    rep.write();

    if (!ok) {
        std::fprintf(stderr, "trace overhead guard FAILED\n");
        return 1;
    }
    return 0;
}
