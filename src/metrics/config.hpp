#pragma once
// Live-metrics opt-in carried inside core::SimConfig (the third observability
// layer next to obs::TelemetryConfig and trace::TraceConfig). Kept
// dependency-free so the core config header does not pull the registry
// machinery into every TU. See docs/OBSERVABILITY.md for how the three
// layers relate.

#include <cstddef>
#include <string>

namespace gdda::metrics {

/// Thresholds of the simulation health watchdog (HealthMonitor). Streak
/// rules fire only after N consecutive offending steps so one-off hiccups
/// (a single hard solve, a transient latency spike) never page anyone;
/// physical-limit rules (interpenetration) fire immediately.
struct HealthConfig {
    int pcg_fail_warn_streak = 2;      ///< consecutive steps with a failed solve
    int pcg_fail_critical_streak = 5;
    int oc_cap_warn_streak = 3;        ///< consecutive open-close cap hits
    int oc_cap_critical_streak = 8;
    /// Relative total-energy growth per step that counts as anomalous
    /// (implicit DDA with frictional contacts must dissipate, never gain).
    double energy_growth_tol = 0.05;
    int energy_growth_warn_streak = 3;
    int energy_growth_critical_streak = 8;
    /// Interpenetration spike thresholds as a fraction of the model's
    /// half vertical extent w0 (immediate, no streak).
    double penetration_warn_ratio = 0.01;
    double penetration_critical_ratio = 0.05;
    /// Step-latency outlier: a step slower than factor x the running median
    /// of the last `latency_window` steps (once `min_latency_samples` have
    /// been seen) grades Warn.
    double latency_outlier_factor = 8.0;
    int latency_window = 32;
    int min_latency_samples = 8;
};

struct MetricsConfig {
    /// Feed the live registry, the health watchdog (every rule of
    /// HealthConfig, including the energy-growth rule and its O(n)
    /// read-only energy scan per step) and the flight recorder.
    bool enabled = false;
    HealthConfig rules;
    /// Flight recorder depth: the last N step records retained for the
    /// post-mortem bundle.
    std::size_t flight_recorder_capacity = 32;
    /// When non-empty, a post-mortem bundle is written into this directory
    /// when health goes Critical (once per engine) and when a scheduled job
    /// ends Failed/DeadlineExceeded. Empty keeps the flight recorder purely
    /// in-memory.
    std::string postmortem_dir;
};

} // namespace gdda::metrics
