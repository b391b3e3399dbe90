#pragma once
// Live-metrics opt-in carried inside core::SimConfig (the third observability
// layer next to obs::TelemetryConfig and trace::TraceConfig). Kept
// dependency-free so the core config header does not pull the registry
// machinery into every TU. See docs/OBSERVABILITY.md for how the three
// layers relate.

#include <cstddef>
#include <string>

namespace gdda::metrics {

struct MetricsConfig {
    /// Feed the live registry, the health watchdog (every rule of
    /// HealthMonitor, including the energy-growth rule and its O(n)
    /// read-only energy scan per step) and the flight recorder.
    bool enabled = false;
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
