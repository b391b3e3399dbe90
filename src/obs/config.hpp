#pragma once
// Telemetry opt-in carried inside core::SimConfig. Kept dependency-free so
// the core config header does not pull the sink machinery into every TU.

#include <string>

namespace gdda::obs {

struct TelemetryConfig {
    /// Emit one record per step to the sinks below and to an in-memory
    /// aggregator (per-module totals, table rendering).
    bool enabled = false;
    /// When non-empty, append one JSON record per step to this file.
    std::string jsonl_path;
    /// When non-empty, append one CSV row per step to this file.
    std::string csv_path;
    /// Record the full per-iteration PCG residual curve of every linear
    /// solve (grows records; off by default).
    bool pcg_residuals = false;
};

} // namespace gdda::obs
