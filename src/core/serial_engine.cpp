// Shared implementation of the DDA pipeline engine (both modes). The
// GPU-mode-only cost plumbing lives in gpu_engine.cpp.

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/energy.hpp"
#include "core/engine.hpp"
#include "core/gpu_support.hpp"
#include "par/deterministic_reduce.hpp"
#include "par/thread_budget.hpp"
#include "solver/preconditioner.hpp"

namespace gdda::core {

using block::BlockSystem;
using sparse::BlockVec;

namespace {

// Range checks that reject NaN and infinities: every comparison with a NaN is
// false, so a bare `x < lo || x > hi` test lets one through.
bool finite_in(double x, double lo, double hi) {
    return std::isfinite(x) && x >= lo && x <= hi;
}
bool finite_at_least(double x, double lo) { return std::isfinite(x) && x >= lo; }
bool finite_positive(double x) { return std::isfinite(x) && x > 0.0; }

} // namespace

void SimConfig::validate() const {
    if (!finite_positive(dt)) throw std::invalid_argument("SimConfig: dt must be positive");
    if (!finite_positive(dt_min) || !finite_positive(dt_max) || dt_min > dt_max)
        throw std::invalid_argument("SimConfig: dt_min must be positive and <= dt_max");
    if (dt < dt_min || dt > dt_max)
        throw std::invalid_argument("SimConfig: dt must lie within [dt_min, dt_max]");
    if (!finite_in(velocity_carry, 0.0, 1.0))
        throw std::invalid_argument("SimConfig: velocity_carry must be in [0, 1]");
    if (!finite_positive(max_disp_ratio) || max_disp_ratio > 0.5)
        throw std::invalid_argument("SimConfig: max_disp_ratio must be in (0, 0.5]");
    if (!finite_at_least(search_factor, 1.0))
        throw std::invalid_argument("SimConfig: search_factor must be >= 1");
    if (!finite_positive(penalty_scale) || !finite_positive(shear_penalty_ratio) ||
        !finite_positive(fixed_penalty_ratio))
        throw std::invalid_argument(
            "SimConfig: penalty_scale and the penalty ratios must be positive");
    if (max_open_close_iters < 1 || max_step_retries < 1)
        throw std::invalid_argument("SimConfig: iteration limits must be >= 1");
    if (!finite_positive(dt_shrink) || dt_shrink >= 1.0)
        throw std::invalid_argument("SimConfig: dt_shrink must be in (0, 1)");
    if (!finite_at_least(dt_grow, 1.0))
        throw std::invalid_argument("SimConfig: dt_grow must be >= 1");
    if (pcg.max_iters < 1 || !finite_positive(pcg.rel_tol) ||
        !finite_at_least(pcg.abs_tol, 0.0))
        throw std::invalid_argument("SimConfig: pcg options invalid");
    if (step_threads < 0)
        throw std::invalid_argument("SimConfig: step_threads must be >= 0");
    if (checkpoint_interval < 0)
        throw std::invalid_argument("SimConfig: checkpoint_interval must be >= 0");
    if (static_cast<unsigned>(precond) > static_cast<unsigned>(PrecondKind::Ilu0))
        throw std::invalid_argument("SimConfig: precond out of range");
    if (metrics.enabled && metrics.flight_recorder_capacity < 1)
        throw std::invalid_argument("SimConfig: metrics.flight_recorder_capacity must be >= 1");
}

namespace {

/// Compact SimConfig summary embedded in post-mortem bundles: the knobs a
/// reader needs to reproduce or triage the run, not the whole struct.
obs::JsonValue config_to_json(const SimConfig& cfg) {
    obs::JsonValue j = obs::JsonValue::object();
    j.set("dt", obs::JsonValue::number(cfg.dt));
    j.set("dt_min", obs::JsonValue::number(cfg.dt_min));
    j.set("dt_max", obs::JsonValue::number(cfg.dt_max));
    j.set("velocity_carry", obs::JsonValue::number(cfg.velocity_carry));
    j.set("max_disp_ratio", obs::JsonValue::number(cfg.max_disp_ratio));
    j.set("penalty_scale", obs::JsonValue::number(cfg.penalty_scale));
    j.set("max_open_close_iters", obs::JsonValue::integer(cfg.max_open_close_iters));
    j.set("max_step_retries", obs::JsonValue::integer(cfg.max_step_retries));
    j.set("step_threads", obs::JsonValue::integer(cfg.step_threads));
    j.set("precond", obs::JsonValue::string(precond_name(cfg.precond)));
    j.set("exact_rotation", obs::JsonValue::boolean(cfg.exact_rotation));
    j.set("pcg_max_iters", obs::JsonValue::integer(cfg.pcg.max_iters));
    j.set("pcg_rel_tol", obs::JsonValue::number(cfg.pcg.rel_tol));
    return j;
}

} // namespace

DdaEngine::DdaEngine(BlockSystem& sys, SimConfig cfg, EngineMode mode)
    : sys_(&sys), cfg_(cfg), mode_(mode), dt_(cfg.dt) {
    cfg_.validate();
    recorder_ = obs::Recorder::from_config(cfg_.telemetry);
    attach_tracer(trace::Tracer::from_config(cfg_.trace));
    metrics_ = metrics::EngineObserver::from_config(
        cfg_.metrics, mode == EngineMode::Gpu ? "gpu" : "serial");
    if (metrics_) metrics_->set_config_json(config_to_json(cfg_));
    sys_->update_all_geometry();
    attachments_ = assembly::index_attachments(*sys_);
    geom::Aabb box;
    for (const block::Block& b : sys_->blocks)
        for (geom::Vec2 p : b.verts) box.expand(p);
    w0_ = std::max(box.extent().y * 0.5, 1e-6);
    double mobile_area = 0.0;
    std::size_t mobile = 0;
    for (const block::Block& b : sys_->blocks)
        if (!b.fixed) {
            mobile_area += std::sqrt(std::abs(b.area));
            ++mobile;
        }
    mobile_size_ = mobile > 0 ? mobile_area / static_cast<double>(mobile) : w0_;
    warm_start_.assign(sys_->size(), sparse::Vec6{});
}

void DdaEngine::attach_tracer(std::shared_ptr<trace::Tracer> tracer) {
    if (tracer_ && tracer_ != tracer) tracer_->uninstall_kernel_hook();
    tracer_ = std::move(tracer);
    // The engine's tracer owns the CALLING THREAD's kernel hook; step()
    // re-installs it so the hook follows the thread actually stepping even
    // when the engine was constructed elsewhere (sched workers rely on the
    // per-thread slot for isolation between concurrent engines).
    if (tracer_) tracer_->install_kernel_hook();
}

contact::BroadPhaseBackend DdaEngine::broad_phase_backend() const {
    return sys_->size() >= contact::kAutoHashMinBlocks
               ? contact::BroadPhaseBackend::Hash
               : contact::BroadPhaseBackend::AllPairs;
}

void DdaEngine::detect_contacts() {
    ScopedTimer t(timers_, Module::ContactDetection, tracer_.get(), &par_timers_);
    const double allowed = cfg_.max_disp_ratio * w0_;
    const double rho = cfg_.search_factor * allowed;

    simt::KernelCost* sink = nullptr;
    simt::KernelCost cost = simt::KernelCost::accumulator();
    if (mode_ == EngineMode::Gpu) sink = &cost;

    // Broad phase: the backend the scene size picks, behind the persistent
    // pair cache. A warm cache skips the backend entirely and re-filters its
    // superset to the exact set the backend would return (pair_cache.hpp).
    // Both modes run the same enumeration; the sink prices it. The cache's
    // motion margin is one search distance, and the hash cell auto-sizes.
    const std::span<const contact::BlockPair> pairs =
        pair_cache_.pairs(*sys_, rho, rho, broad_phase_backend(), 0.0, sink);

    // Divergence-aware classification buckets candidates by work class so
    // narrow-phase warps run uniform trip counts. It is a pure permutation
    // and the narrow phase's output is canonical, so only the modeled GPU
    // schedule needs it: Gpu mode prices it from counts (kept by the narrow
    // memo while the pair list is unchanged), and the CPU narrow phase
    // keeps the broad-phase order.
    contact::narrow_phase(*sys_, pairs, rho, np_ws_, detected_, sink, sink != nullptr,
                          /*emit_steady=*/false);
    sched_stats_ = sink ? np_ws_.schedule : contact::PairScheduleStats{};
    class_stats_ = detected_.stats;
    const int n = static_cast<int>(sys_->size());
    // A steady call serves the canonical list contacts_ already holds,
    // identity for identity (docs/CONTACTS.md): it is not emitted, and the
    // transfer runs in place. Either transfer writes the entry states a
    // retry restores.
    if (detected_.steady) {
        entry_.reset(contacts_.size());
        contact::transfer_steady(*sys_, np_ws_.canon, contacts_, entry_.span(), sink);
    } else {
        entry_.reset(detected_.contacts.size());
        contact::transfer_contacts(contacts_, detected_.contacts, sink, entry_.span());
        // The retired list keeps its capacity for the next detection.
        contacts_.swap(detected_.contacts);
    }
    // The solve passes of this step key their structure caches on the
    // contact identities, which no pass changes. A steady step kept the
    // identities the last fingerprint hashed.
    if (!detected_.steady || contacts_fp_.n != n)
        contacts_fp_ = assembly::contact_fingerprint(n, contacts_);

    if (sink) ledgers_.add(Module::ContactDetection, cost);
}

contact::OpenCloseResult DdaEngine::solve_pass(BlockVec& d, StepStats& stats,
                                               bool fresh_pass) {
    trace::Span oc_span(tracer_.get(), trace::Category::OpenClose, "open_close");
    assembly::StepParams sp;
    sp.dt = dt_;
    sp.velocity_carry = cfg_.velocity_carry;
    const double e = sys_->max_young();
    sp.contact.penalty = cfg_.penalty_scale * e;
    sp.contact.shear_penalty = sp.contact.penalty * cfg_.shear_penalty_ratio;
    sp.contact.max_closing_depth = 0.2 * mobile_size_;
    sp.contact.open_tol = 1e-9 * w0_;
    sp.contact.max_push = std::max(10.0 * dt_, 40e-9 * w0_);
    sp.fixed_penalty = sp.contact.penalty * cfg_.fixed_penalty_ratio;

    // Matrix building, one timed scope per Table II/III row. The workspace
    // decides cold (structure rebuild) vs warm (numeric refill) from the
    // contact fingerprint.
    {
        ScopedTimer t(timers_, Module::DiagBuild, tracer_.get(), &par_timers_);
        simt::KernelCost cost = simt::KernelCost::accumulator();
        simt::KernelCost* sink = mode_ == EngineMode::Gpu ? &cost : nullptr;
        ws_.assemble_diagonal(*sys_, attachments_, sp, values_epoch_, sink);
        if (sink) ledgers_.add(Module::DiagBuild, cost);
    }
    {
        ScopedTimer t(timers_, Module::NondiagBuild, tracer_.get(), &par_timers_);
        simt::KernelCost cost = simt::KernelCost::accumulator();
        simt::KernelCost* sink = mode_ == EngineMode::Gpu ? &cost : nullptr;
        ws_.assemble_contacts(*sys_, contacts_, geo_.span(), sp, sink, &contacts_fp_);
        if (sink) ledgers_.add(Module::NondiagBuild, cost);
    }

    // Equation solving.
    solver::PcgResult r;
    std::vector<double> residuals;
    {
        ScopedTimer t(timers_, Module::EquationSolving, tracer_.get(), &par_timers_);
        simt::KernelCost cost = simt::KernelCost::accumulator();
        simt::KernelCost* sink = mode_ == EngineMode::Gpu ? &cost : nullptr;
        ws_.prepare_solve(cfg_.precond, sink);

        // First pass of an attempt starts PCG from the last committed
        // step's solution; later open-close passes continue from the
        // previous pass's solution, which is closer.
        if (fresh_pass) d = warm_start_;
        solver::PcgOptions popts = cfg_.pcg;
        if (recorder_ && recorder_->record_pcg_residuals) popts.residual_log = &residuals;
        if (tracer_ && cfg_.trace.pcg_iteration_spans) popts.tracer = tracer_.get();
        trace::Span solve_span(tracer_.get(), trace::Category::Solve, "pcg_solve");
        r = solver::pcg(ws_.matrix(), ws_.rhs(), d, ws_.precond(), popts, sink,
                        &ws_.pcg_workspace());
        solve_span.close();
        stats.pcg_iterations += r.iterations;
        ++stats.pcg_solves;
        if (!r.converged) ++stats.pcg_failed_solves;
        stats.converged = stats.converged && r.converged;
        if (sink) ledgers_.add(Module::EquationSolving, *sink);
    }

    // Interpenetration checking: evaluate contact states under d. A
    // contact that closes writes its geometry record into geo_. The blocks'
    // motions under d let open contacts that cannot close skip their
    // evaluation; the kernel is still priced for every contact.
    ScopedTimer t(timers_, Module::InterpenetrationCheck, tracer_.get(), &par_timers_);
    simt::KernelCost cost = simt::KernelCost::accumulator();
    simt::KernelCost* sink = mode_ == EngineMode::Gpu ? &cost : nullptr;
    motion_.reset(sys_->size());
    const contact::OpenCloseResult oc = contact::update_contact_states(
        *sys_, geo_.span(), contacts_, d, motion_.span(), sp.contact, sink);
    stats.max_penetration = std::max(stats.max_penetration, oc.max_penetration);
    if (sink) ledgers_.add(Module::InterpenetrationCheck, cost);
    if (recorder_ || metrics_) {
        obs::PcgSolveRecord& rec = step_solves_.emplace_back();
        rec.iterations = r.iterations;
        rec.final_residual = r.final_residual;
        rec.converged = r.converged;
        rec.residuals = std::move(residuals);
        rec.state_changes = oc.state_changes;
        int pair = 0;
        for (int from = 0; from < 3; ++from)
            for (int to = 0; to < 3; ++to)
                if (from != to) rec.transitions[pair++] = oc.transitions[from][to];
        rec.max_penetration = oc.max_penetration;
    }
    return oc;
}

double DdaEngine::max_vertex_displacement(const BlockVec& d) const {
    // A max fold from +0 over norms: exact in any grouping.
    return par::exact_reduce<double>(
        sys_->blocks.size(),
        [&](std::size_t begin, std::size_t end) {
            double m = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                const block::Block& b = sys_->blocks[i];
                for (geom::Vec2 p : b.verts) m = std::max(m, b.displacement_at(p, d[i]).norm());
            }
            return m;
        },
        [](double x, double y) { return std::max(x, y); });
}

void DdaEngine::commit_step(const BlockVec& d, double maxd, StepStats& stats) {
    ScopedTimer t(timers_, Module::DataUpdate, tracer_.get(), &par_timers_);
    simt::KernelCost cost = simt::KernelCost::accumulator();
    simt::KernelCost* sink = mode_ == EngineMode::Gpu ? &cost : nullptr;

    contact::commit_contact_springs(geo_.span(), contacts_, d);

    // Per block: velocity update v = 2 d / dt - v0 (damped to zero in
    // static mode), then move vertices, accumulate stresses and refresh
    // geometry. Each index touches only its own block.
    par::parallel_for(sys_->blocks.size(), 64, [&](std::size_t i) {
        block::Block& b = sys_->blocks[i];
        sparse::Vec6 v;
        for (int k = 0; k < 6; ++k) v[k] = 2.0 * d[i][k] / dt_ - b.velocity[k];
        b.velocity = v * cfg_.velocity_carry;
        if (b.fixed) {
            b.velocity = sparse::Vec6{};
            return;
        }
        b.apply_increment(d[i], sys_->material_of(b), cfg_.exact_rotation);
    });
    // Fixed points ride along with their material point; anchors stay.
    for (block::FixedPoint& fp : sys_->fixed_points) {
        const block::Block& b = sys_->blocks[fp.block];
        if (b.fixed) continue;
        fp.point += b.displacement_at(fp.point, d[fp.block]);
    }

    stats.max_displacement = maxd;
    last_max_velocity_ = stats.max_displacement / dt_;
    warm_start_ = d;
    time_ += dt_;

    if (sink) {
        simt::record_kernel(sink, data_update_cost(*sys_, contacts_.size()));
        ledgers_.add(Module::DataUpdate, *sink);
    }
}

EngineCheckpoint DdaEngine::capture() const {
    EngineCheckpoint snap;
    snap.sys = *sys_;
    snap.time = time_;
    snap.dt = dt_;
    snap.w0 = w0_;
    snap.mobile_size = mobile_size_;
    snap.last_max_velocity = last_max_velocity_;
    snap.values_epoch = values_epoch_;
    snap.step_index = step_index_;
    snap.contacts = contacts_;
    snap.warm_start = warm_start_;
    return snap;
}

void DdaEngine::restore(const EngineCheckpoint& snap) {
    *sys_ = snap.sys;
    sys_->update_all_geometry();
    attachments_ = assembly::index_attachments(*sys_);
    time_ = snap.time;
    dt_ = snap.dt; // exact bits — a clamp here would break bitwise resume
    w0_ = snap.w0;
    mobile_size_ = snap.mobile_size;
    last_max_velocity_ = snap.last_max_velocity;
    values_epoch_ = snap.values_epoch;
    step_index_ = snap.step_index;
    contacts_ = snap.contacts;
    warm_start_ = snap.warm_start;
    if (warm_start_.size() != sys_->size())
        warm_start_.assign(sys_->size(), sparse::Vec6{});
    ws_.invalidate();
    pair_cache_.invalidate();
    np_ws_.drop_memo();
}

StepStats DdaEngine::step_impl() {
    StepStats stats;
    detect_contacts();

    const double allowed = cfg_.max_disp_ratio * w0_;
    // Pre-existing stored penetration (carried by closed contacts from
    // previous steps): the step may not worsen it, but it is not a reason
    // to reject — the rate-limited recovery needs time steps to push it
    // out. Attempt 0's initialization measures it; retries restore the
    // same contacts over the same positions.
    double entry_pen = 0.0;

    for (int attempt = 0; attempt < cfg_.max_step_retries; ++attempt) {
        trace::Span pass_span(tracer_.get(), trace::Category::Pass, "displacement_pass");
        stats.retries = attempt;
        stats.converged = true;
        // The step reports, and pen_ok judges, this attempt's penetration.
        stats.max_penetration = 0.0;
        const int solves_before = stats.pcg_solves;
        const int iterations_before = stats.pcg_iterations;
        // Block state or dt changed since the last attempt: the cached
        // diagonal physics is stale (the contact structure may still hold).
        ++values_epoch_;

        {
            // Block positions and contact identities are those of attempt
            // 0, and the geometry reads nothing else: a retry keeps geo_
            // (records of contacts closed at entry, and of those a failed
            // attempt closed) and is priced as the initialization it
            // stands for.
            ScopedTimer t(timers_, Module::ContactDetection, tracer_.get(), &par_timers_);
            simt::KernelCost cost = simt::KernelCost::accumulator();
            simt::KernelCost* sink = mode_ == EngineMode::Gpu ? &cost : nullptr;
            if (attempt == 0) {
                geo_.reset(contacts_.size());
                entry_pen = contact::init_all_contacts(*sys_, contacts_, geo_.span(), sink);
            } else if (sink) {
                simt::record_kernel(sink, contact::contact_init_cost(contacts_.size()));
            }
            if (sink) ledgers_.add(Module::ContactDetection, cost);
        }

        BlockVec d(sys_->size());
        int oc_iters = 0;
        bool oc_converged = false;
        contact::OpenCloseResult last;
        for (; oc_iters < cfg_.max_open_close_iters; ++oc_iters) {
            last = solve_pass(d, stats, oc_iters == 0);
            if (!stats.converged) break; // PCG exhausted: shrink dt
            if (last.state_changes == 0) {
                oc_converged = true;
                ++oc_iters;
                break;
            }
        }
        // A handful of contacts oscillating at machine-precision gaps must
        // not collapse dt: accept the pass when the residual penetration is
        // physically negligible (standard DDA caps open-close iterations).
        if (!oc_converged && stats.converged && last.state_changes <= 4 &&
            stats.max_penetration < 1e-7 * w0_) {
            oc_converged = true;
        }
        stats.open_close_iters = oc_iters;

        const double maxd = max_vertex_displacement(d);
        const bool disp_ok = maxd <= 2.0 * allowed;
        // Interpenetration control: resolving a deep overlap in one implicit
        // step would eject blocks at 2*depth/dt; redo the step with a
        // smaller dt so springs engage while the overlap is still shallow.
        const double pen_tol = std::max(0.05 * mobile_size_, 1e-6 * w0_);
        // Reject only *new* deep penetration; carried overlap is recovered
        // at the rate-limited pace. At dt_min there is nothing left to
        // shrink, so accept the best available state.
        const bool pen_ok = stats.max_penetration <= std::max(pen_tol, 1.05 * entry_pen) ||
                            dt_ <= cfg_.dt_min * 1.01;

        if (oc_converged && stats.converged && disp_ok && pen_ok) {
            stats.dt_used = dt_;
            stats.contacts = contacts_.size();
            stats.active_contacts = last.closed;
            commit_step(d, maxd, stats);
            // Reward easy steps with a larger dt (bounded).
            if (oc_iters <= 3 && attempt == 0) dt_ = std::min(dt_ * cfg_.dt_grow, cfg_.dt_max);
            return stats;
        }

        if (recorder_ || metrics_)
            step_attempts_.push_back({dt_, oc_converged, stats.converged, disp_ok, pen_ok, maxd,
                                      stats.max_penetration});
        // Failure: the attempt's work is thrown away. Shrink the physical
        // time and retry the whole step.
        stats.rejected_pcg_solves += stats.pcg_solves - solves_before;
        stats.rejected_pcg_iterations += stats.pcg_iterations - iterations_before;
        stats.rejected_open_close_iters += oc_iters;
        dt_ = std::max(dt_ * cfg_.dt_shrink, cfg_.dt_min);
        contact::restore_entry_states(entry_.span(), contacts_);
        if (dt_ <= cfg_.dt_min) {
            stats.hit_dt_min = true;
            break;
        }
    }

    // Last resort: accept the step at dt_min to keep the simulation moving;
    // flag non-convergence for the caller.
    stats.converged = false;
    stats.dt_used = dt_;
    trace::Span pass_span(tracer_.get(), trace::Category::Pass, "displacement_pass_last_resort");
    // geo_ still describes the entry positions and contact identities.
    BlockVec d(sys_->size());
    ++values_epoch_;
    stats.max_penetration = 0.0;
    solve_pass(d, stats, true);
    commit_step(d, max_vertex_displacement(d), stats);
    return stats;
}

namespace {

static_assert(kModuleCount == obs::kModuleCount,
              "core::Module rows and obs module keys must stay in sync");

/// Per-step module deltas: cumulative timers/ledgers sampled before and
/// after the step, differenced into the record's plain-number form.
obs::ModuleRecord module_delta(double seconds_before, double seconds_after,
                               const simt::KernelCost& before,
                               const simt::KernelCost& after) {
    obs::ModuleRecord m;
    m.seconds = seconds_after - seconds_before;
    m.flops = after.flops - before.flops;
    m.bytes_coalesced = after.bytes_coalesced - before.bytes_coalesced;
    m.bytes_texture = after.bytes_texture - before.bytes_texture;
    m.bytes_random = after.bytes_random - before.bytes_random;
    m.depth = after.depth - before.depth;
    m.branch_slots = after.branch_slots - before.branch_slots;
    m.divergent_slots = after.divergent_slots - before.divergent_slots;
    m.launches = after.launches - before.launches;
    return m;
}

} // namespace

StepStats DdaEngine::step() {
    // The SIMT kernel hook is per-thread: make sure this thread's slot points
    // at OUR tracer before any kernel cost is recorded, so concurrent engines
    // on other threads never capture this engine's launches (and vice versa).
    if (tracer_ && simt::kernel_trace_hook() != tracer_.get())
        tracer_->install_kernel_hook();
    // Install this engine's step-wide team for the duration of the step:
    // every parallel stage (broad/narrow phase, pair-cache revalidation,
    // assembly refill, SpMV stages, BLAS-1, fused PCG passes) sizes its
    // teams from the thread budget, and the budget is thread-local so
    // concurrent engines on scheduler workers never see each other's knobs.
    par::ScopedTeamSize step_team(cfg_.step_threads);
    trace::Span step_span(tracer_.get(), trace::Category::Step, "step");
    if (!recorder_ && !metrics_) {
        ++step_index_;
        return step_impl();
    }

    step_solves_.clear();
    step_attempts_.clear();
    const ModuleTimers timers_before = timers_;
    const ModuleTimers par_timers_before = par_timers_;
    std::array<simt::KernelCost, kModuleCount> ledgers_before;
    for (int m = 0; m < kModuleCount; ++m)
        ledgers_before[m] = ledgers_.ledger(static_cast<Module>(m)).total();
    const contact::NarrowMemoStats memo_before = np_ws_.memo_stats;

    const StepStats stats = step_impl();

    obs::StepRecord rec;
    rec.mode = mode_ == EngineMode::Gpu ? "gpu" : "serial";
    rec.step = step_index_++;
    rec.time = time_;
    rec.dt = stats.dt_used;
    rec.retries = stats.retries;
    rec.open_close_iters = stats.open_close_iters;
    rec.pcg_solves = stats.pcg_solves;
    rec.pcg_iterations = stats.pcg_iterations;
    rec.pcg_failed_solves = stats.pcg_failed_solves;
    rec.rejected_pcg_solves = stats.rejected_pcg_solves;
    rec.rejected_pcg_iterations = stats.rejected_pcg_iterations;
    rec.rejected_open_close_iters = stats.rejected_open_close_iters;
    rec.hit_dt_min = stats.hit_dt_min;
    rec.contacts = contacts_.size();
    rec.active_contacts = stats.active_contacts;
    rec.max_displacement = stats.max_displacement;
    rec.max_penetration = stats.max_penetration;
    rec.converged = stats.converged;
    rec.cls_candidates = class_stats_.candidates;
    rec.cls_ve = class_stats_.ve;
    rec.cls_vv1 = class_stats_.vv1;
    rec.cls_vv2 = class_stats_.vv2;
    rec.cls_abandoned = class_stats_.abandoned;
    for (int m = 0; m < kModuleCount; ++m) {
        const Module mod = static_cast<Module>(m);
        rec.modules[m] = module_delta(timers_before.seconds(mod), timers_.seconds(mod),
                                      ledgers_before[m], ledgers_.ledger(mod).total());
    }
    rec.trace_span = step_span.id();
    rec.solves = std::move(step_solves_);
    rec.attempts = std::move(step_attempts_);
    step_solves_.clear();
    step_attempts_.clear();
    if (recorder_) recorder_->on_step(rec);
    if (metrics_) {
        metrics::StepContext mctx;
        mctx.sys = sys_;
        mctx.length_scale = w0_;
        mctx.open_close_cap = cfg_.max_open_close_iters;
        mctx.pair_cache_hit = pair_cache_.warm();
        mctx.narrow_pairs_reused = np_ws_.memo_stats.pairs_reused - memo_before.pairs_reused;
        mctx.narrow_pairs_rebuilt = np_ws_.memo_stats.pairs_rebuilt - memo_before.pairs_rebuilt;
        mctx.step_seconds = timers_.total() - timers_before.total();
        mctx.parallel_seconds = par_timers_.total() - par_timers_before.total();
        // Read-only O(n) scan for the energy-growth rule, never fed back.
        mctx.energy_total = measure_energy(*sys_).total();
        metrics_->on_step(rec, mctx);
    }
    return stats;
}

StepStats DdaEngine::run(int n) {
    StepStats last;
    for (int i = 0; i < n; ++i) last = step();
    return last;
}

} // namespace gdda::core
