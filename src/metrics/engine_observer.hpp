#pragma once
// The per-engine metrics observer: DdaEngine::step() hands it each finished
// obs::StepRecord (plus a read-only context) and it fans out to the live
// registry, the health watchdog, and the flight-recorder ring. Mirrors the
// obs::Recorder attachment idiom — the engine owns a shared_ptr and the
// scheduler can reach through to label/dump it.
//
// Observer-only contract: on_step reads the record and the context, writes
// atomics, and never touches simulation state. Bitwise trajectory identity
// with the observer attached vs absent is enforced by tests and
// bench_metrics_overhead.

#include <cstdint>
#include <memory>
#include <string>

#include "metrics/config.hpp"
#include "metrics/flight_recorder.hpp"
#include "metrics/health.hpp"
#include "obs/aggregator.hpp"
#include "obs/record.hpp"

namespace gdda::block {
class BlockSystem;
}

namespace gdda::metrics {

class Registry;
class Counter;
class Gauge;
class Histogram;

/// Read-only context the engine supplies next to each step record —
/// pipeline facts that are not part of the record schema.
struct StepContext {
    const block::BlockSystem* sys = nullptr; ///< for the dump-time fingerprint
    double length_scale = 1.0;               ///< w0 (penetration health ratio)
    int open_close_cap = 0;                  ///< SimConfig::max_open_close_iters
    bool pair_cache_hit = false; ///< the pair cache reused its set (else rebuilt)
    /// Narrow-phase memo this step: pairs whose cached result was emitted
    /// (hits) and pairs run through the judgments (misses).
    std::uint64_t narrow_pairs_reused = 0;
    std::uint64_t narrow_pairs_rebuilt = 0;
    double energy_total = 0.0; ///< total mechanical energy (J)
    /// Amdahl picture of the step: wall seconds of the whole step and the
    /// slice spent inside dispatch-eligible par:: regions (see
    /// par::parallel_region_seconds()). Coverage = parallel/step, clamped.
    double step_seconds = 0.0;
    double parallel_seconds = 0.0;
};

class EngineObserver {
public:
    /// `mode` labels every instrument ("serial" | "gpu"); `reg` defaults to
    /// Registry::global(). Instrument handles are resolved once here.
    EngineObserver(MetricsConfig cfg, std::string mode, Registry* reg = nullptr);

    /// nullptr when the config has metrics disabled (the engine then skips
    /// the observer entirely, like Recorder::from_config).
    static std::shared_ptr<EngineObserver> from_config(const MetricsConfig& cfg,
                                                       std::string mode);

    void on_step(const obs::StepRecord& rec, const StepContext& ctx);

    /// Identity stamped into bundles; the scheduler sets the job name on
    /// the worker thread before the first step.
    void set_job(std::string job) { job_ = std::move(job); }
    void set_device(std::string device) { device_ = std::move(device); }
    /// Engine-serialized SimConfig summary embedded in every bundle.
    void set_config_json(obs::JsonValue config) { config_json_ = std::move(config); }
    /// Most recent checkpoint of the observed job; the scheduler updates it
    /// after every snapshot write so post-mortem bundles name the exact
    /// resume point (docs/STATE.md).
    void set_checkpoint(std::string path, int step) {
        checkpoint_path_ = std::move(path);
        checkpoint_step_ = step;
    }
    [[nodiscard]] const std::string& checkpoint_path() const { return checkpoint_path_; }
    [[nodiscard]] int checkpoint_step() const { return checkpoint_step_; }

    [[nodiscard]] const MetricsConfig& config() const { return cfg_; }
    [[nodiscard]] const HealthMonitor& health() const { return health_; }
    [[nodiscard]] const FlightRecorder& flight_recorder() const { return flight_; }
    [[nodiscard]] const obs::Aggregator& ledger() const { return ledger_; }

    /// Write a post-mortem bundle into cfg.postmortem_dir (no-op returning
    /// false when the dir is empty). `fingerprint` 0 = state unavailable.
    bool dump_postmortem(const std::string& reason, const std::string& error,
                         std::uint64_t fingerprint, std::string* path_out = nullptr,
                         std::string* err = nullptr);

    [[nodiscard]] bool postmortem_written() const { return !postmortem_path_.empty(); }
    [[nodiscard]] const std::string& postmortem_path() const { return postmortem_path_; }

private:
    MetricsConfig cfg_;
    std::string mode_;
    std::string job_;
    std::string device_ = "k40";
    obs::JsonValue config_json_ = obs::JsonValue::object();
    Registry* reg_;
    HealthMonitor health_;
    FlightRecorder flight_;
    obs::Aggregator ledger_; ///< cumulative module/kernel totals for bundles
    bool critical_dumped_ = false;
    std::string postmortem_path_;
    std::string checkpoint_path_;
    int checkpoint_step_ = 0;

    // Cached instrument handles (resolved once in the constructor).
    Counter* steps_total_;
    Counter* unconverged_steps_total_;
    Counter* retries_total_;
    Counter* open_close_iters_total_;
    Counter* oc_cap_hits_total_;
    Counter* pcg_solves_ok_total_;
    Counter* pcg_solves_failed_total_;
    Counter* pcg_iterations_total_;
    Counter* pair_cache_hits_total_;
    Counter* pair_cache_misses_total_;
    Counter* narrow_cache_hits_total_;
    Counter* narrow_cache_misses_total_;
    Counter* kernel_launches_total_[obs::kModuleCount];
    Counter* health_events_warn_total_;
    Counter* health_events_critical_total_;
    Gauge* contacts_;
    Gauge* active_contacts_;
    Gauge* max_penetration_;
    Gauge* pcg_final_residual_;
    Gauge* energy_joules_;
    Gauge* health_grade_;
    Gauge* parallel_coverage_;
    Gauge* parallel_seconds_;
    Histogram* step_seconds_;
};

} // namespace gdda::metrics
