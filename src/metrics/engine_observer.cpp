#include "metrics/engine_observer.hpp"

#include "block/block_system.hpp"
#include "metrics/registry.hpp"

namespace gdda::metrics {

EngineObserver::EngineObserver(MetricsConfig cfg, std::string mode, Registry* reg)
    : cfg_(std::move(cfg)),
      mode_(std::move(mode)),
      reg_(reg ? reg : &Registry::global()),
      flight_(cfg_.flight_recorder_capacity) {
    Registry& r = *reg_;
    const Labels ml = {{"mode", mode_}};
    steps_total_ = &r.counter("gdda_engine_steps_total", "Completed DDA time steps", ml);
    unconverged_steps_total_ = &r.counter("gdda_engine_unconverged_steps_total",
                                          "Steps whose open-close loop gave up", ml);
    retries_total_ = &r.counter("gdda_engine_retries_total",
                                "Step retries (displacement control re-runs)", ml);
    open_close_iters_total_ =
        &r.counter("gdda_engine_open_close_iters_total", "Open-close (loop-3) iterations", ml);
    oc_cap_hits_total_ = &r.counter("gdda_engine_oc_cap_hits_total",
                                    "Steps that hit the open-close iteration cap", ml);
    pcg_solves_ok_total_ = &r.counter("gdda_pcg_solves_total", "PCG solves by outcome",
                                      {{"mode", mode_}, {"converged", "true"}});
    pcg_solves_failed_total_ = &r.counter("gdda_pcg_solves_total", "PCG solves by outcome",
                                          {{"mode", mode_}, {"converged", "false"}});
    pcg_iterations_total_ =
        &r.counter("gdda_pcg_iterations_total", "PCG iterations summed over solves", ml);
    pair_cache_hits_total_ = &r.counter("gdda_pair_cache_hits_total",
                                        "Broad-phase candidate cache reuses", ml);
    pair_cache_misses_total_ = &r.counter("gdda_pair_cache_misses_total",
                                          "Broad-phase candidate cache rebuilds", ml);
    narrow_cache_hits_total_ = &r.counter("gdda_narrow_cache_hits_total",
                                          "Narrow-phase pairs served from the memo", ml);
    narrow_cache_misses_total_ = &r.counter("gdda_narrow_cache_misses_total",
                                            "Narrow-phase pairs run through the judgments", ml);
    for (int m = 0; m < obs::kModuleCount; ++m)
        kernel_launches_total_[m] =
            &r.counter("gdda_kernel_launches_total", "SIMT kernel launches per pipeline module",
                       {{"mode", mode_}, {"module", std::string(obs::kModuleKeys[m])}});
    health_events_warn_total_ = &r.counter("gdda_engine_health_events_total",
                                           "Health watchdog verdicts by grade",
                                           {{"mode", mode_}, {"grade", "warn"}});
    health_events_critical_total_ = &r.counter("gdda_engine_health_events_total",
                                               "Health watchdog verdicts by grade",
                                               {{"mode", mode_}, {"grade", "critical"}});
    contacts_ = &r.gauge("gdda_engine_contacts", "Contacts after the last step", ml);
    active_contacts_ =
        &r.gauge("gdda_engine_active_contacts", "Non-open contacts after the last step", ml);
    max_penetration_ =
        &r.gauge("gdda_engine_max_penetration_m", "Worst residual interpenetration (m)", ml);
    pcg_final_residual_ =
        &r.gauge("gdda_pcg_final_residual", "Relative residual of the last PCG solve", ml);
    energy_joules_ =
        &r.gauge("gdda_engine_energy_joules", "Total mechanical energy after the last step", ml);
    health_grade_ =
        &r.gauge("gdda_engine_health_grade", "Current health grade (0 ok, 1 warn, 2 critical)",
                 ml);
    parallel_coverage_ = &r.gauge(
        "gdda_engine_parallel_coverage",
        "Fraction of the last step spent in dispatch-eligible parallel regions", ml);
    parallel_seconds_ = &r.gauge(
        "gdda_engine_parallel_seconds",
        "Seconds of the last step spent in dispatch-eligible parallel regions", ml);
    step_seconds_ = &r.histogram("gdda_engine_step_seconds", default_latency_buckets(),
                                 "Wall-clock step latency (s)", ml);
}

std::shared_ptr<EngineObserver> EngineObserver::from_config(const MetricsConfig& cfg,
                                                            std::string mode) {
    if (!cfg.enabled) return nullptr;
    return std::make_shared<EngineObserver>(cfg, std::move(mode));
}

void EngineObserver::on_step(const obs::StepRecord& rec, const StepContext& ctx) {
    steps_total_->inc();
    if (!rec.converged) unconverged_steps_total_->inc();
    retries_total_->inc(static_cast<std::uint64_t>(rec.retries));
    open_close_iters_total_->inc(static_cast<std::uint64_t>(rec.open_close_iters));
    if (ctx.open_close_cap > 0 && rec.open_close_iters >= ctx.open_close_cap)
        oc_cap_hits_total_->inc();
    const int failed = rec.pcg_failed_solves;
    const int ok = rec.pcg_solves - failed;
    if (ok > 0) pcg_solves_ok_total_->inc(static_cast<std::uint64_t>(ok));
    if (failed > 0) pcg_solves_failed_total_->inc(static_cast<std::uint64_t>(failed));
    pcg_iterations_total_->inc(static_cast<std::uint64_t>(rec.pcg_iterations));
    if (ctx.pair_cache_hit)
        pair_cache_hits_total_->inc();
    else
        pair_cache_misses_total_->inc();
    if (ctx.narrow_pairs_reused > 0) narrow_cache_hits_total_->inc(ctx.narrow_pairs_reused);
    if (ctx.narrow_pairs_rebuilt > 0) narrow_cache_misses_total_->inc(ctx.narrow_pairs_rebuilt);
    for (int m = 0; m < obs::kModuleCount; ++m)
        if (rec.modules[m].launches > 0)
            kernel_launches_total_[m]->inc(static_cast<std::uint64_t>(rec.modules[m].launches));
    contacts_->set(static_cast<double>(rec.contacts));
    active_contacts_->set(static_cast<double>(rec.active_contacts));
    max_penetration_->set(rec.max_penetration);
    if (!rec.solves.empty()) pcg_final_residual_->set(rec.solves.back().final_residual);
    energy_joules_->set(ctx.energy_total);
    if (ctx.step_seconds > 0.0) {
        const double cov = ctx.parallel_seconds / ctx.step_seconds;
        parallel_coverage_->set(cov < 0.0 ? 0.0 : (cov > 1.0 ? 1.0 : cov));
        parallel_seconds_->set(ctx.parallel_seconds < 0.0 ? 0.0 : ctx.parallel_seconds);
    }
    step_seconds_->observe(rec.seconds_total());

    flight_.push(rec);
    ledger_.on_step(rec);

    HealthSample s;
    s.step = rec.step;
    s.latency_s = rec.seconds_total();
    s.pcg_failed_solves = rec.pcg_failed_solves;
    s.step_converged = rec.converged;
    s.open_close_iters = rec.open_close_iters;
    s.open_close_cap = ctx.open_close_cap;
    s.max_penetration = rec.max_penetration;
    s.length_scale = ctx.length_scale;
    s.has_energy = true;
    s.energy_total = ctx.energy_total;
    const HealthVerdict v = health_.evaluate(s);
    health_grade_->set(static_cast<double>(static_cast<int>(v.grade)));
    if (v.grade == HealthGrade::Warn) health_events_warn_total_->inc();
    if (v.grade == HealthGrade::Critical) {
        health_events_critical_total_->inc();
        // First Critical verdict dumps a bundle (once per engine): this
        // is the "job is dying" artifact even when nothing throws.
        if (!critical_dumped_ && !cfg_.postmortem_dir.empty()) {
            critical_dumped_ = true;
            dump_postmortem("health_critical", v.rule + ": " + v.detail,
                            ctx.sys ? block::state_fingerprint(*ctx.sys) : 0);
        }
    }
}

bool EngineObserver::dump_postmortem(const std::string& reason, const std::string& error,
                                     std::uint64_t fingerprint, std::string* path_out,
                                     std::string* err) {
    if (cfg_.postmortem_dir.empty()) {
        if (err) *err = "no postmortem_dir configured";
        return false;
    }
    PostmortemContext ctx;
    ctx.job = job_;
    ctx.mode = mode_;
    ctx.reason = reason;
    ctx.error = error;
    ctx.device = device_;
    ctx.state_fingerprint = fingerprint;
    ctx.checkpoint_path = checkpoint_path_;
    ctx.checkpoint_step = checkpoint_step_;
    ctx.config = config_json_;
    ctx.recorder = &flight_;
    ctx.health = &health_;
    ctx.ledger = &ledger_;
    ctx.registry = reg_;
    std::string path;
    if (!write_postmortem(ctx, cfg_.postmortem_dir, &path, err)) return false;
    postmortem_path_ = path;
    reg_->counter("gdda_postmortems_total", "Post-mortem bundles written",
                  {{"reason", reason}})
        .inc();
    if (path_out) *path_out = path;
    return true;
}

} // namespace gdda::metrics
