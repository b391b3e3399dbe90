#include "workloads.hpp"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>

#include "block/block_system.hpp"
#include "core/engine.hpp"
#include "metrics/registry.hpp"
#include "models/falling_rocks.hpp"
#include "models/large_scene.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "models/tunnel.hpp"
#include "sched/session.hpp"
#include "simt/device_profile.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace gdda;
using core::Module;

double us_now() { return trace::now_us(); }

bool step_failed(const core::StepStats& s) { return !s.converged || s.pcg_failed_solves > 0; }

// ---------------------------------------------------------------------------
// Metric tables. Every workload prints every metric; a layer a workload does
// not exercise reads 0 (README.md maps each metric to the workloads it is
// meant for).

struct EndToEnd {
    double setup_s = 0, steps_per_s = 0, step_ms_p50 = 0, step_ms_tail = 0;
    double jobs_per_s = 0, job_latency_s_p50 = 0, job_latency_s_tail = 0, peak_rss_mb = 0;
};

struct Layers {
    double scene_build_ms = 0, engine_ctor_ms = 0, first_step_ms = 0;
    double interpen_ms = 0, update_ms = 0, retries = 0, open_close = 0;
    double contact_ms = 0, candidate_pairs = 0, contacts = 0, pair_cache_hit_ratio = 0;
    double active_ratio = 0, warp_efficiency = 0;
    double diag_ms = 0, nondiag_ms = 0, structure_reuse_ratio = 0;
    double solver_ms = 0, pcg_iters_per_solve = 0, solves_per_step = 0, failed_solves = 0;
    double parallel_share = 0;
    double flops = 0, bytes = 0, k40_ms = 0;
    double queue_ms_p50 = 0, run_ms_p50 = 0, worker_utilization = 0, rejected = 0;
    double checkpoints = 0, checkpoint_bytes = 0;
    double overhead_frac = 0;
    std::map<std::string, double> self_ms; ///< per step, by layer
};

void emit(RunResult& r, const EndToEnd& e, const Layers& l) {
    r.e2e("setup_s", e.setup_s, "s");
    r.e2e("steps_per_s", e.steps_per_s, "1/s");
    r.e2e("step_ms_p50", e.step_ms_p50, "ms");
    r.e2e("step_ms_tail", e.step_ms_tail, "ms");
    r.e2e("jobs_per_s", e.jobs_per_s, "1/s");
    r.e2e("job_latency_s_p50", e.job_latency_s_p50, "s");
    r.e2e("job_latency_s_tail", e.job_latency_s_tail, "s");
    r.e2e("peak_rss_mb", e.peak_rss_mb, "MiB");

    r.layer("models.scene_build_ms", l.scene_build_ms, "ms");
    r.layer("core.engine_ctor_ms", l.engine_ctor_ms, "ms");
    r.layer("core.first_step_ms", l.first_step_ms, "ms");
    r.layer("core.interpen_ms_per_step", l.interpen_ms, "ms");
    r.layer("core.update_ms_per_step", l.update_ms, "ms");
    r.layer("core.retries_per_step", l.retries, "count");
    r.layer("core.open_close_per_step", l.open_close, "count");
    r.layer("contact.ms_per_step", l.contact_ms, "ms");
    r.layer("contact.candidate_pairs", l.candidate_pairs, "count");
    r.layer("contact.contacts_per_step", l.contacts, "count");
    r.layer("contact.pair_cache_hit_ratio", l.pair_cache_hit_ratio, "ratio");
    r.layer("contact.active_ratio", l.active_ratio, "ratio");
    r.layer("contact.warp_efficiency", l.warp_efficiency, "ratio");
    r.layer("assembly.diag_ms_per_step", l.diag_ms, "ms");
    r.layer("assembly.nondiag_ms_per_step", l.nondiag_ms, "ms");
    r.layer("assembly.structure_reuse_ratio", l.structure_reuse_ratio, "ratio");
    r.layer("solver.ms_per_step", l.solver_ms, "ms");
    r.layer("solver.pcg_iters_per_solve", l.pcg_iters_per_solve, "count");
    r.layer("solver.solves_per_step", l.solves_per_step, "count");
    r.layer("solver.failed_solves", l.failed_solves, "count");
    r.layer("par.parallel_share", l.parallel_share, "ratio");
    r.layer("simt.flops_per_step", l.flops, "flop");
    r.layer("simt.bytes_per_step", l.bytes, "B");
    r.layer("simt.k40_modeled_ms_per_step", l.k40_ms, "ms");
    r.layer("sched.queue_ms_p50", l.queue_ms_p50, "ms");
    r.layer("sched.run_ms_p50", l.run_ms_p50, "ms");
    r.layer("sched.worker_utilization", l.worker_utilization, "ratio");
    r.layer("sched.rejected", l.rejected, "count");
    r.layer("state.checkpoints", l.checkpoints, "count");
    r.layer("state.checkpoint_bytes", l.checkpoint_bytes, "B");
    r.layer("trace.overhead_frac", l.overhead_frac, "ratio");
    for (const char* layer : {"bench", "core", "contact", "assembly", "solver"}) {
        auto it = l.self_ms.find(layer);
        r.layer(std::string("trace.self_ms_per_step.") + layer,
                it == l.self_ms.end() ? 0.0 : it->second, "ms");
    }
}

// ---------------------------------------------------------------------------
// Per-step accounting shared by the workloads.

struct Tally {
    long long steps = 0, failed_steps = 0, pcg_iters = 0, solves = 0, failed_solves = 0;
    long long retries = 0, open_close = 0, contacts = 0, active = 0, candidates = 0;

    void add(const core::StepStats& s, std::size_t candidate_pairs) {
        ++steps;
        failed_steps += step_failed(s) ? 1 : 0;
        pcg_iters += s.pcg_iterations;
        solves += s.pcg_solves;
        failed_solves += s.pcg_failed_solves;
        retries += s.retries;
        open_close += s.open_close_iters;
        contacts += static_cast<long long>(s.contacts);
        active += static_cast<long long>(s.active_contacts);
        candidates += static_cast<long long>(candidate_pairs);
    }
    void count_into(RunResult& r, const std::string& prefix) const {
        r.count(prefix + "steps", static_cast<double>(steps));
        r.count(prefix + "failed_steps", static_cast<double>(failed_steps));
        r.count(prefix + "pcg_iterations", static_cast<double>(pcg_iters));
        r.count(prefix + "pcg_solves", static_cast<double>(solves));
        r.count(prefix + "pcg_failed_solves", static_cast<double>(failed_solves));
        r.count(prefix + "retries", static_cast<double>(retries));
        r.count(prefix + "open_close_iters", static_cast<double>(open_close));
        r.count(prefix + "contacts", static_cast<double>(contacts));
        r.count(prefix + "candidate_pairs", static_cast<double>(candidates));
    }
};

/// Cumulative engine counters at one instant; deltas give per-window values.
struct EngineSnap {
    contact::PairCacheStats cache;
    core::SolveWorkspaceStats ws;
    double flops = 0, bytes = 0, k40_ms = 0;

    static EngineSnap of(const core::DdaEngine& e) {
        EngineSnap s;
        s.cache = e.pair_cache().stats();
        s.ws = e.solve_workspace().stats();
        const simt::KernelCost k = e.ledgers().merged_total();
        s.flops = k.flops;
        s.bytes = k.bytes_coalesced + k.bytes_texture + k.bytes_random;
        s.k40_ms = e.ledgers().total_modeled_ms(simt::tesla_k40());
        return s;
    }
};

double module_delta(const core::ModuleTimers& a, const core::ModuleTimers& b, Module m) {
    return b.seconds(m) - a.seconds(m);
}

/// Reuse and SIMT counters between two engine snapshots.
struct CacheDelta {
    double rebuilds = 0, reuses = 0, cold = 0, warm = 0, flops = 0, bytes = 0, k40_ms = 0;

    void add(const EngineSnap& a, const EngineSnap& b) {
        rebuilds += static_cast<double>(b.cache.rebuilds - a.cache.rebuilds);
        reuses += static_cast<double>(b.cache.reuses - a.cache.reuses);
        cold += static_cast<double>(b.ws.cold_structure_builds - a.ws.cold_structure_builds);
        warm += static_cast<double>(b.ws.warm_numeric_refills - a.ws.warm_numeric_refills);
        flops += b.flops - a.flops;
        bytes += b.bytes - a.bytes;
        k40_ms += b.k40_ms - a.k40_ms;
    }
    void count_into(RunResult& r, const std::string& prefix) const {
        r.count(prefix + "pair_cache_rebuilds", rebuilds);
        r.count(prefix + "pair_cache_reuses", reuses);
        r.count(prefix + "cold_structure_builds", cold);
        r.count(prefix + "warm_numeric_refills", warm);
        r.count(prefix + "simt_flops", flops);
        r.count(prefix + "simt_bytes", bytes);
    }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Fingerprint as the correctness gate sees it; the self-test flips one bit.
std::uint64_t checked_fingerprint(const block::BlockSystem& sys, const Options& o) {
    const std::uint64_t fp = block::state_fingerprint(sys);
    return o.inject_mismatch ? fp ^ 1ULL : fp;
}

trace::TraceConfig step_trace_config() {
    trace::TraceConfig tc;
    tc.enabled = true;
    tc.pcg_iteration_spans = false;
    return tc;
}

void finish_run(RunResult& r, const Options& o, const SpanLog& spans, double probe0) {
    r.note("host_probe_start_s", probe0);
    r.note("host_probe_end_s", host_probe_seconds());
    if (!o.trace) return;
    const std::filesystem::path dir = std::filesystem::path(o.work_dir) / "spans";
    std::filesystem::create_directories(dir);
    const std::string path =
        (dir / (o.workload + "-seed" + std::to_string(o.seed) + ".jsonl")).string();
    r.note("spans", static_cast<double>(spans.size()));
    r.note("spans_file", spans.write_jsonl(path) ? path : std::string("unwritable"));
}

// ---------------------------------------------------------------------------
// Single-scene workloads.

struct SceneSpec {
    /// Builds seeded variant `v` of the scene.
    std::function<block::BlockSystem(int v)> build;
    /// Variants measured per run, each for an equal share of the window.
    /// Pooling several seeded variants keeps one scene's particular
    /// dynamics from deciding the run's step-time distribution.
    int variants = 1;
    /// Set-ups (scene build, engine construction, cold first step) per
    /// variant; setup_s is the median over all of them.
    int setups_per_variant = 1;
    core::SimConfig cfg;
    core::EngineMode mode = core::EngineMode::Serial;
    /// Reference run for the correctness gate: same scene and steps, with a
    /// configuration the repo contracts to be bitwise identical.
    core::SimConfig ref_cfg;
    core::EngineMode ref_mode = core::EngineMode::Serial;
    std::string ref_label;
};

/// Everything measured over the timed segments of one run.
struct Window {
    core::ModuleTimers untraced_timers, untraced_par;
    long long untraced_steps = 0;
    std::vector<double> step_ms, traced_ms, untraced_ms;
    Tally all;
    CacheDelta caches;
    double seconds = 0.0;
    double warp_efficiency = 0.0; ///< last Gpu-mode pair schedule
};

/// What the correctness gate needs from one measured variant.
struct Measured {
    int variant = 0;
    int steps = 0;
    std::uint64_t fingerprint = 0;
};

RunResult run_single(const Options& o, const SceneSpec& spec) {
    RunResult r;
    const double probe0 = host_probe_seconds();
    SpanLog spans;
    std::uint64_t op = 0;
    const trace::TraceConfig tc = step_trace_config();

    std::vector<double> setup_s, build_ms, ctor_ms, first_ms;
    Window win;
    Tally prefix;
    CacheDelta prefix_caches;
    constexpr int kPrefixSteps = 10;
    std::vector<Measured> measured;

    for (int v = 0; v < spec.variants; ++v) {
        // Set-up: scene build + engine construction + cold first step.
        std::unique_ptr<block::BlockSystem> sys;
        std::unique_ptr<core::DdaEngine> eng;
        for (int rep = 0; rep < spec.setups_per_variant; ++rep) {
            eng.reset();
            sys.reset();
            ++op;
            const double t0 = us_now();
            sys = std::make_unique<block::BlockSystem>(spec.build(v));
            const double t1 = us_now();
            eng = std::make_unique<core::DdaEngine>(*sys, spec.cfg, spec.mode);
            const double t2 = us_now();
            const core::StepStats first = eng->step();
            const double t3 = us_now();
            ++r.attempted;
            r.failed += step_failed(first) ? 1 : 0;
            setup_s.push_back((t3 - t0) * 1e-6);
            build_ms.push_back((t1 - t0) * 1e-3);
            ctor_ms.push_back((t2 - t1) * 1e-3);
            first_ms.push_back((t3 - t2) * 1e-3);
            if (o.trace) {
                spans.add("bench.scene_build", "setup", op, t0, t1);
                spans.add("bench.engine_ctor", "setup", op, t1, t2);
                spans.add("bench.first_step", "setup", op, t2, t3);
            }
            if (rep == 0) {
                const std::string tag = "variant" + std::to_string(v) + ".";
                r.note(tag + "blocks", static_cast<double>(sys->size()));
                r.note(tag + "first_step_converged", first.converged ? 1.0 : 0.0);
                r.note(tag + "first_step_retries", first.retries);
                r.note(tag + "first_step_pcg_iterations", first.pcg_iterations);
            }
        }

        // Timed segment. With tracing, odd steps carry a fresh tracer and
        // the benchmark's bench.step span; even steps stay untraced, so
        // module timers and trace overhead both come from the same run.
        const EngineSnap snap0 = EngineSnap::of(*eng);
        long long seg_steps = 0;
        const double w0 = now_s();
        const double deadline = w0 + o.seconds / spec.variants;
        while (now_s() < deadline) {
            ++op;
            const bool traced = o.trace && (win.all.steps % 2 == 1);
            std::shared_ptr<trace::Tracer> tracer;
            if (traced) {
                tracer = std::make_shared<trace::Tracer>(tc);
                eng->attach_tracer(tracer);
            }
            const core::ModuleTimers before = eng->timers();
            const core::ModuleTimers par_before = eng->parallel_timers();
            const double s0 = us_now();
            const std::uint32_t bench_span =
                traced ? tracer->begin(trace::Category::Other, "bench.step", -1, s0) : 0;
            const core::StepStats st = eng->step();
            const double s1 = us_now();
            if (traced) {
                tracer->end(bench_span, s1);
                eng->attach_tracer(nullptr);
                spans.import(tracer->snapshot(), op);
            }
            const double ms = (s1 - s0) * 1e-3;
            win.step_ms.push_back(ms);
            (traced ? win.traced_ms : win.untraced_ms).push_back(ms);
            if (!traced) {
                ++win.untraced_steps;
                for (int m = 0; m < core::kModuleCount; ++m) {
                    const Module mod = static_cast<Module>(m);
                    win.untraced_timers.add(mod, module_delta(before, eng->timers(), mod));
                    win.untraced_par.add(mod, module_delta(par_before, eng->parallel_timers(), mod));
                }
            }
            const std::size_t candidates = eng->classification().candidates;
            win.all.add(st, candidates);
            ++seg_steps;
            if (v == 0 && seg_steps <= kPrefixSteps) {
                prefix.add(st, candidates);
                if (seg_steps == kPrefixSteps) prefix_caches.add(snap0, EngineSnap::of(*eng));
            }
            ++r.attempted;
            r.failed += step_failed(st) ? 1 : 0;
        }
        win.seconds += now_s() - w0;
        win.caches.add(snap0, EngineSnap::of(*eng));
        if (spec.mode == core::EngineMode::Gpu)
            win.warp_efficiency = eng->pair_schedule().efficiency_sorted();
        measured.push_back({v, eng->step_index(), checked_fingerprint(*sys, o)});
    }

    const double peak_rss = peak_rss_mib();

    // Correctness gate, outside the timed window: every variant re-run for
    // the same number of steps under the configuration the repo contracts
    // to be bitwise identical.
    ++op;
    const double v0 = us_now();
    int mismatches = 0;
    for (const Measured& m : measured) {
        block::BlockSystem ref_sys = spec.build(m.variant);
        core::DdaEngine ref(ref_sys, spec.ref_cfg, spec.ref_mode);
        for (int i = 0; i < m.steps; ++i) (void)ref.step();
        const bool match = block::state_fingerprint(ref_sys) == m.fingerprint;
        ++r.attempted;
        r.failed += match ? 0 : 1;
        mismatches += match ? 0 : 1;
    }
    const double v1 = us_now();
    if (o.trace) spans.add("bench.verify", "verify", op, v0, v1);
    r.correct = mismatches == 0;
    r.note("verify_reference", spec.ref_label);
    r.note("verify_mismatches", mismatches);
    r.note("verify_s", (v1 - v0) * 1e-6);
    r.note("window_s", win.seconds);

    const Tally& all = win.all;
    all.count_into(r, "window.");
    win.caches.count_into(r, "window.");
    prefix.count_into(r, "prefix.");
    prefix_caches.count_into(r, "prefix.");

    EndToEnd e;
    const double n = static_cast<double>(all.steps);
    e.setup_s = median(setup_s);
    e.steps_per_s = n / win.seconds;
    e.step_ms_p50 = median(win.step_ms);
    double tail_p = 0;
    e.step_ms_tail = tail(win.step_ms, &tail_p);
    // A single-scene run is one client issuing step requests back to back,
    // so its job view restates the step view in seconds.
    e.jobs_per_s = e.steps_per_s;
    e.job_latency_s_p50 = e.step_ms_p50 * 1e-3;
    e.job_latency_s_tail = e.step_ms_tail * 1e-3;
    e.peak_rss_mb = peak_rss;
    r.note("step_samples", n);
    r.note("step_ms_tail_percentile", tail_p);

    Layers l;
    l.scene_build_ms = median(build_ms);
    l.engine_ctor_ms = median(ctor_ms);
    l.first_step_ms = median(first_ms);
    const double un = std::max<double>(static_cast<double>(win.untraced_steps), 1.0);
    const auto per_step_ms = [&](Module m) { return win.untraced_timers.seconds(m) * 1e3 / un; };
    l.interpen_ms = per_step_ms(Module::InterpenetrationCheck);
    l.update_ms = per_step_ms(Module::DataUpdate);
    l.contact_ms = per_step_ms(Module::ContactDetection);
    l.diag_ms = per_step_ms(Module::DiagBuild);
    l.nondiag_ms = per_step_ms(Module::NondiagBuild);
    l.solver_ms = per_step_ms(Module::EquationSolving);
    l.parallel_share = ratio(win.untraced_par.total(), win.untraced_timers.total());
    l.retries = ratio(static_cast<double>(all.retries), n);
    l.open_close = ratio(static_cast<double>(all.open_close), n);
    l.candidate_pairs = ratio(static_cast<double>(all.candidates), n);
    l.contacts = ratio(static_cast<double>(all.contacts), n);
    const CacheDelta& c = win.caches;
    l.pair_cache_hit_ratio = ratio(c.reuses, c.reuses + c.rebuilds);
    l.active_ratio = ratio(static_cast<double>(all.active), static_cast<double>(all.contacts));
    l.warp_efficiency = win.warp_efficiency;
    l.structure_reuse_ratio = ratio(c.warm, c.warm + c.cold);
    l.pcg_iters_per_solve = ratio(static_cast<double>(all.pcg_iters), static_cast<double>(all.solves));
    l.solves_per_step = ratio(static_cast<double>(all.solves), n);
    l.failed_solves = static_cast<double>(all.failed_solves);
    l.flops = ratio(c.flops, n);
    l.bytes = ratio(c.bytes, n);
    l.k40_ms = ratio(c.k40_ms, n);
    if (o.trace) {
        l.overhead_frac = median(win.traced_ms) / median(win.untraced_ms) - 1.0;
        const double tn = std::max<double>(static_cast<double>(win.traced_ms.size()), 1.0);
        for (const auto& [layer, ms] : spans.self_ms_by_layer()) l.self_ms[layer] = ms / tn;
    }
    emit(r, e, l);
    finish_run(r, o, spans, probe0);
    return r;
}

} // namespace

RunResult run_slope_static(const Options& o) {
    SceneSpec spec;
    const std::uint64_t seed = o.seed;
    spec.build = [seed](int v) {
        models::SlopeParams params;
        params.seed = static_cast<unsigned>(mix_seed(seed, 10 + v));
        return models::make_slope_with_blocks(1500, params);
    };
    spec.variants = 4;
    // The bench_table2_case1 configuration (the paper's case 1).
    spec.cfg.dt = 5e-4;
    spec.cfg.dt_max = 1e-3;
    spec.cfg.velocity_carry = 1.0;
    spec.cfg.precond = core::PrecondKind::BlockJacobi;
    spec.cfg.step_threads = 1;
    spec.mode = core::EngineMode::Serial;
    spec.ref_cfg = spec.cfg;
    spec.ref_mode = core::EngineMode::Gpu;
    spec.ref_label = "gpu-mode";
    return run_single(o, spec);
}

RunResult run_lattice_freefall(const Options& o) {
    SceneSpec spec;
    const std::uint64_t seed = o.seed;
    spec.build = [seed](int v) {
        models::LatticeParams params;
        params.seed = static_cast<unsigned>(mix_seed(seed, 20 + v));
        params.fixed_floor = false;
        return models::make_block_lattice_with_blocks(10000, params);
    };
    spec.setups_per_variant = 5;
    spec.cfg.step_threads = 2;
    spec.mode = core::EngineMode::Gpu;
    spec.ref_cfg = spec.cfg;
    spec.ref_cfg.step_threads = 1;
    spec.ref_mode = core::EngineMode::Gpu;
    spec.ref_label = "step_threads=1";
    return run_single(o, spec);
}

// ---------------------------------------------------------------------------
// Session fleet.

namespace {

enum class Kind { Slope, Rocks, Tunnel, Column };

struct FleetJob {
    Kind kind = Kind::Slope;
    int size = 0;
    core::EngineMode mode = core::EngineMode::Serial;
    int steps = 10;
    int tenant = 0;
    bool checkpoint = false;
    unsigned scene_seed = 0;
};

block::BlockSystem build_scene(const FleetJob& j) {
    switch (j.kind) {
        case Kind::Slope: {
            models::SlopeParams p;
            p.seed = j.scene_seed;
            return models::make_slope_with_blocks(j.size, p);
        }
        case Kind::Rocks: {
            models::FallingRocksParams p;
            p.seed = j.scene_seed;
            return models::make_falling_rocks_with_blocks(j.size, p);
        }
        case Kind::Tunnel: {
            models::TunnelParams p;
            p.seed = j.scene_seed;
            return models::make_tunnel(p);
        }
        case Kind::Column: break;
    }
    return models::make_column(j.size);
}

const char* kind_name(Kind k) {
    switch (k) {
        case Kind::Slope: return "slope";
        case Kind::Rocks: return "rocks";
        case Kind::Tunnel: return "tunnel";
        case Kind::Column: return "column";
    }
    return "?";
}

/// The seeded job list: blocks of 12 jobs, each block holding every scene
/// shape once per engine mode with that shape's step budget, so any prefix
/// of the list asks for nearly the same work whatever the seed. The seed
/// shuffles the order inside each block, picks each job's scene seed and
/// the 3 jobs per block that checkpoint; tenants rotate over 4 names.
std::vector<FleetJob> fleet_jobs(std::uint64_t seed) {
    struct Shape {
        Kind kind;
        int size;
        int steps;
    };
    static constexpr Shape kShapes[] = {{Kind::Slope, 60, 20},  {Kind::Slope, 120, 10},
                                        {Kind::Rocks, 32, 30},  {Kind::Rocks, 64, 20},
                                        {Kind::Tunnel, 0, 15},  {Kind::Column, 8, 25}};
    constexpr int kBlocks = 10;
    std::mt19937_64 rng(mix_seed(seed, 3));
    std::vector<FleetJob> jobs;
    for (int b = 0; b < kBlocks; ++b) {
        std::vector<FleetJob> block;
        for (const Shape& s : kShapes)
            for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
                FleetJob j;
                j.kind = s.kind;
                j.size = s.size;
                j.mode = mode;
                j.steps = s.steps;
                block.push_back(j);
            }
        std::shuffle(block.begin(), block.end(), rng);
        for (std::size_t i = 0; i < block.size(); ++i) {
            block[i].tenant = static_cast<int>(i % 4);
            block[i].checkpoint = i < 3;
        }
        std::shuffle(block.begin(), block.end(), rng);
        jobs.insert(jobs.end(), block.begin(), block.end());
    }
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].scene_seed = static_cast<unsigned>(mix_seed(seed, 100 + i));
    return jobs;
}

constexpr int kCheckpointInterval = 5;
constexpr int kOutstanding = 4;
constexpr std::size_t kVerifySample = 12;
constexpr std::size_t kVerifyPool = 48;
/// Jobs every run completes, whatever the window (8 blocks of the job list):
/// the verification pool, and enough resident-set samples for their median.
constexpr std::size_t kMinJobs = 96;
constexpr int kSessionSetups = 201;

core::SimConfig fleet_config() {
    core::SimConfig cfg;
    cfg.step_threads = 1;
    return cfg;
}

/// Set by the scene factory on the worker thread, read by the engine
/// factory that the same worker calls next: ties both spans to their job.
thread_local std::uint64_t tl_job_op = 0;

struct FleetProbe {
    std::mutex mu;
    std::vector<double> build_ms, ctor_ms;
};

double counter_value(const char* name) {
    return static_cast<double>(metrics::Registry::global().counter(name).value());
}

} // namespace

RunResult run_session_fleet(const Options& o) {
    RunResult r;
    const double probe0 = host_probe_seconds();
    SpanLog spans;
    FleetProbe probe;
    const std::vector<FleetJob> list = fleet_jobs(o.seed);

    const std::filesystem::path ckpt_dir =
        std::filesystem::path(o.work_dir) /
        ("ckpt-" + o.workload + "-" + std::to_string(o.seed) + "-" +
         std::to_string(static_cast<long long>(now_s() * 1e6)));
    std::filesystem::create_directories(ckpt_dir);

    const auto make_job = [&](std::size_t serial) {
        const FleetJob& spec = list[serial % list.size()];
        sched::Job job;
        job.name = "j" + std::to_string(serial) + "-" + kind_name(spec.kind);
        job.config = fleet_config();
        job.mode = spec.mode;
        job.steps = spec.steps;
        job.tenant = "t" + std::to_string(spec.tenant);
        if (spec.checkpoint) {
            job.config.checkpoint_interval = kCheckpointInterval;
            job.checkpoint_path = (ckpt_dir / (job.name + ".ckpt")).string();
        }
        const std::uint64_t op = serial + 1;
        const bool tracing = o.trace;
        job.scene = [spec, op, tracing, &probe, &spans] {
            tl_job_op = op;
            const double t0 = us_now();
            block::BlockSystem sys = build_scene(spec);
            const double t1 = us_now();
            {
                std::lock_guard<std::mutex> lock(probe.mu);
                probe.build_ms.push_back((t1 - t0) * 1e-3);
            }
            if (tracing) spans.add("bench.scene_build", "setup", op, t0, t1);
            return sys;
        };
        return job;
    };
    const bool tracing = o.trace;
    core::EngineFactory factory = [&probe, &spans, tracing](block::BlockSystem& sys,
                                                             const core::SimConfig& cfg,
                                                             core::EngineMode mode) {
        const double t0 = us_now();
        auto engine = std::make_unique<core::DdaEngine>(sys, cfg, mode);
        const double t1 = us_now();
        {
            std::lock_guard<std::mutex> lock(probe.mu);
            probe.ctor_ms.push_back((t1 - t0) * 1e-3);
        }
        if (tracing) spans.add("bench.engine_ctor", "setup", tl_job_op, t0, t1);
        return engine;
    };

    sched::SessionConfig scfg;
    scfg.sched.workers = 2;
    scfg.sched.inner_threads = 1;
    scfg.sched.collect_traces = o.trace;
    scfg.sched.trace = step_trace_config();

    // Set-up: session start-up until it admits its first job. It takes tens
    // of microseconds, so it is sampled more often than a scene set-up:
    // probe sessions cancel their job, and the measured session
    // contributes the last sample.
    std::vector<double> setup_s;
    for (int rep = 0; rep + 1 < kSessionSetups; ++rep) {
        const double t0 = now_s();
        sched::Session s(scfg, factory);
        sched::SessionHandle h = s.submit(make_job(0));
        setup_s.push_back(now_s() - t0);
        h.cancel();
        (void)s.close();
    }
    {
        std::lock_guard<std::mutex> lock(probe.mu);
        probe.build_ms.clear();
        probe.ctor_ms.clear();
    }

    const double ckpt0 = counter_value("gdda_state_checkpoints_written_total");
    const double ckpt_bytes0 = counter_value("gdda_state_checkpoint_bytes_total");

    struct Outstanding {
        std::size_t serial;
        double t_submit;
        sched::SessionHandle handle;
    };
    // The client folds each JobResult into these totals as it arrives and
    // keeps only what the correctness gate needs, so the harness's memory
    // does not grow with the number of jobs a run completes.
    struct Completed {
        std::size_t serial;
        sched::JobState state;
        std::uint64_t state_hash;
    };
    std::vector<Completed> completed;
    std::vector<double> latency_s, step_ms, first_ms, queue_ms, run_ms;
    long long fleet_steps = 0, fleet_failed_solves = 0, rejected = 0;
    double busy_ms = 0.0, done = 0.0;
    core::ModuleTimers timers;
    core::ModuleLedgers ledgers;
    const auto fold = [&](std::size_t serial, const sched::JobResult& res) {
        ++r.attempted;
        const bool ok = res.state == sched::JobState::Done && res.pcg_failed_solves == 0 &&
                        res.last.converged;
        r.failed += ok ? 0 : 1;
        done += res.state == sched::JobState::Done ? 1.0 : 0.0;
        // As on the single-scene workloads, step latency covers the steady
        // steps; each job's cold first step is reported on its own.
        if (!res.step_ms.empty()) {
            first_ms.push_back(res.step_ms.front());
            step_ms.insert(step_ms.end(), res.step_ms.begin() + 1, res.step_ms.end());
        }
        queue_ms.push_back(res.queue_ms);
        run_ms.push_back(res.wall_ms);
        busy_ms += res.wall_ms;
        fleet_steps += res.steps_done;
        fleet_failed_solves += res.pcg_failed_solves;
        timers.merge(res.timers);
        ledgers.merge(res.ledgers);
        if (tracing) spans.import(res.trace_events, serial + 1);
        completed.push_back({serial, res.state, res.state_hash});
    };
    // The fleet's memory figure is the median resident set at job
    // completions. Its high-water mark keeps rising for the whole window,
    // by 10 to 20 MiB whenever two large jobs first overlap, so a peak read
    // at any instant depends on which jobs happened to overlap before it.
    std::vector<double> rss_samples;
    double t_first = 0.0, t_last = 0.0;
    {
        const double t0 = now_s();
        sched::Session session(scfg, factory);
        std::deque<Outstanding> out;
        std::size_t next = 0;
        const auto submit_one = [&] {
            const std::size_t serial = next++;
            const double ts = now_s();
            const double ts_us = us_now();
            try {
                sched::SessionHandle h = session.submit(make_job(serial));
                if (tracing) spans.add("bench.submit", "client", serial + 1, ts_us, us_now());
                out.push_back({serial, ts, std::move(h)});
            } catch (const sched::SessionRejected&) {
                // A rejected submission is a failed operation.
                ++rejected;
                ++r.attempted;
                ++r.failed;
            }
            return ts;
        };
        t_first = submit_one();
        setup_s.push_back(now_s() - t0);
        const double deadline = t_first + o.seconds;
        for (int i = 1; i < kOutstanding; ++i) submit_one();
        while (!out.empty()) {
            Outstanding cur = std::move(out.front());
            out.pop_front();
            const double w_us = us_now();
            const sched::JobResult& res = cur.handle.result();
            t_last = now_s();
            if (tracing) spans.add("bench.result", "client", cur.serial + 1, w_us, us_now());
            latency_s.push_back(t_last - cur.t_submit);
            if (t_last < deadline || next < kMinJobs) submit_one();
            fold(cur.serial, res);
            rss_samples.push_back(rss_mib());
        }
        (void)session.close();
    }
    if (completed.empty()) throw std::runtime_error("session_fleet: no job completed");
    const double loop_s = t_last - t_first;
    const double checkpoints = counter_value("gdda_state_checkpoints_written_total") - ckpt0;
    const double checkpoint_bytes = counter_value("gdda_state_checkpoint_bytes_total") - ckpt_bytes0;

    // Correctness gate: a seeded sample of the completed jobs re-run solo
    // through a plain DdaEngine loop must hash identically. In a traced
    // run each sampled job is also re-run traced, giving the trace overhead.
    // The sample is fixed by the seed alone: job 0 (always completed) plus
    // 11 of jobs 1..47, which every run completes, so the verified.* counts
    // repeat bit for bit whatever the host speed.
    std::vector<std::size_t> picks(kVerifyPool);
    for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i;
    std::mt19937_64 rng(mix_seed(o.seed, 4));
    std::shuffle(picks.begin() + 1, picks.end(), rng);
    picks.resize(kVerifySample);
    std::vector<std::size_t> sample; // indices into completed
    for (std::size_t i = 0; i < completed.size(); ++i)
        if (std::find(picks.begin(), picks.end(), completed[i].serial) != picks.end())
            sample.push_back(i);
    int mismatches = 0;
    double solo_s = 0.0, solo_traced_s = 0.0;
    Tally verified;
    contact::PairCacheStats cache{};
    core::SolveWorkspaceStats ws{};
    const double v0 = us_now();
    for (std::size_t i : sample) {
        const Completed& res = completed[i];
        if (res.state != sched::JobState::Done) continue;
        const FleetJob& spec = list[res.serial % list.size()];
        const core::SimConfig cfg = fleet_config();
        for (int traced = 0; traced <= (o.trace ? 1 : 0); ++traced) {
            block::BlockSystem sys = build_scene(spec);
            core::DdaEngine eng(sys, cfg, spec.mode);
            std::shared_ptr<trace::Tracer> tracer;
            if (traced) {
                tracer = std::make_shared<trace::Tracer>(step_trace_config());
                eng.attach_tracer(tracer);
            }
            const double s0 = now_s();
            for (int s = 0; s < spec.steps; ++s) {
                const core::StepStats st = eng.step();
                if (!traced) verified.add(st, eng.classification().candidates);
            }
            (traced ? solo_traced_s : solo_s) += now_s() - s0;
            if (traced) {
                eng.attach_tracer(nullptr);
                continue;
            }
            const contact::PairCacheStats c = eng.pair_cache().stats();
            cache.rebuilds += c.rebuilds;
            cache.reuses += c.reuses;
            const core::SolveWorkspaceStats w = eng.solve_workspace().stats();
            ws.cold_structure_builds += w.cold_structure_builds;
            ws.warm_numeric_refills += w.warm_numeric_refills;
            const std::uint64_t fp = o.inject_mismatch ? res.state_hash ^ 1ULL : res.state_hash;
            if (block::state_fingerprint(sys) != fp) {
                ++mismatches;
                // A job that fails its fingerprint check is a failed job.
                r.failed += 1;
            }
        }
    }
    const double v1 = us_now();
    if (tracing) spans.add("bench.verify", "verify", 0, v0, v1);
    r.correct = mismatches == 0 && rejected == 0 && done == static_cast<double>(completed.size());
    std::filesystem::remove_all(ckpt_dir);

    r.note("jobs_submitted", static_cast<double>(completed.size() + rejected));
    r.note("jobs_done", done);
    r.note("verify_jobs", static_cast<double>(sample.size()));
    r.note("verify_mismatches", mismatches);
    r.note("verify_s", (v1 - v0) * 1e-6);
    r.note("loop_s", loop_s);
    r.note("peak_rss_end_mib", peak_rss_mib());

    r.count("fleet.jobs", static_cast<double>(completed.size()));
    r.count("fleet.steps", static_cast<double>(fleet_steps));
    r.count("fleet.pcg_failed_solves", static_cast<double>(fleet_failed_solves));
    verified.count_into(r, "verified.");
    r.count("verified.pair_cache_rebuilds", static_cast<double>(cache.rebuilds));
    r.count("verified.pair_cache_reuses", static_cast<double>(cache.reuses));
    r.count("verified.cold_structure_builds", static_cast<double>(ws.cold_structure_builds));
    r.count("verified.warm_numeric_refills", static_cast<double>(ws.warm_numeric_refills));
    r.count("fleet.checkpoints", checkpoints);
    r.count("fleet.checkpoint_bytes", checkpoint_bytes);
    const simt::KernelCost k = ledgers.merged_total();
    r.count("fleet.simt_flops", k.flops);
    r.count("fleet.simt_bytes", k.bytes_coalesced + k.bytes_texture + k.bytes_random);

    EndToEnd e;
    const double steps = static_cast<double>(fleet_steps);
    e.setup_s = median(setup_s);
    e.steps_per_s = steps / loop_s;
    e.step_ms_p50 = median(step_ms);
    double p = 0;
    e.step_ms_tail = tail(step_ms, &p);
    r.note("step_samples", static_cast<double>(step_ms.size()));
    r.note("step_ms_tail_percentile", p);
    e.jobs_per_s = done / loop_s;
    e.job_latency_s_p50 = median(latency_s);
    e.job_latency_s_tail = tail(latency_s, &p);
    r.note("job_samples", static_cast<double>(latency_s.size()));
    r.note("job_latency_tail_percentile", p);
    e.peak_rss_mb = median(rss_samples);

    Layers l;
    l.scene_build_ms = median(probe.build_ms);
    l.engine_ctor_ms = median(probe.ctor_ms);
    l.first_step_ms = median(first_ms);
    const double sn = std::max(steps, 1.0);
    const auto per_step_ms = [&](Module m) { return timers.seconds(m) * 1e3 / sn; };
    l.interpen_ms = per_step_ms(Module::InterpenetrationCheck);
    l.update_ms = per_step_ms(Module::DataUpdate);
    l.contact_ms = per_step_ms(Module::ContactDetection);
    l.diag_ms = per_step_ms(Module::DiagBuild);
    l.nondiag_ms = per_step_ms(Module::NondiagBuild);
    l.solver_ms = per_step_ms(Module::EquationSolving);
    const double vn = std::max(static_cast<double>(verified.steps), 1.0);
    l.retries = static_cast<double>(verified.retries) / vn;
    l.open_close = static_cast<double>(verified.open_close) / vn;
    l.candidate_pairs = static_cast<double>(verified.candidates) / vn;
    l.contacts = static_cast<double>(verified.contacts) / vn;
    l.active_ratio = ratio(static_cast<double>(verified.active),
                           static_cast<double>(verified.contacts));
    l.pair_cache_hit_ratio = ratio(static_cast<double>(cache.reuses),
                                   static_cast<double>(cache.reuses + cache.rebuilds));
    l.structure_reuse_ratio =
        ratio(static_cast<double>(ws.warm_numeric_refills),
              static_cast<double>(ws.warm_numeric_refills + ws.cold_structure_builds));
    l.pcg_iters_per_solve = ratio(static_cast<double>(verified.pcg_iters),
                                  static_cast<double>(verified.solves));
    l.solves_per_step = static_cast<double>(verified.solves) / vn;
    l.failed_solves = static_cast<double>(fleet_failed_solves);
    l.flops = k.flops / sn;
    l.bytes = (k.bytes_coalesced + k.bytes_texture + k.bytes_random) / sn;
    l.k40_ms = ledgers.total_modeled_ms(simt::tesla_k40()) / sn;
    l.queue_ms_p50 = median(queue_ms);
    l.run_ms_p50 = median(run_ms);
    l.worker_utilization = ratio(busy_ms, scfg.sched.workers * loop_s * 1e3);
    l.rejected = static_cast<double>(rejected);
    l.checkpoints = checkpoints;
    l.checkpoint_bytes = checkpoint_bytes;
    if (o.trace) {
        l.overhead_frac = ratio(solo_traced_s, solo_s) - 1.0;
        // Engine spans of every job, per completed step.
        for (const auto& [layer, ms] : spans.self_ms_by_layer()) l.self_ms[layer] = ms / sn;
    }
    emit(r, e, l);
    finish_run(r, o, spans, probe0);
    return r;
}

} // namespace perfbench
