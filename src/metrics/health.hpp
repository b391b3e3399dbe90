#pragma once
// Per-engine simulation health watchdog: grades every step Ok/Warn/Critical
// from rules over the live step telemetry. Pure observer — it only reads
// the sample the engine hands it and never feeds anything back into the
// pipeline, so grading cannot perturb the trajectory.

#include <string>
#include <string_view>
#include <vector>

namespace gdda::metrics {

enum class HealthGrade : int { Ok = 0, Warn = 1, Critical = 2 };
[[nodiscard]] std::string_view health_grade_name(HealthGrade g);

/// What the watchdog sees of one completed step. Everything here is already
/// computed by the engine (or cheap to read); the watchdog adds no
/// simulation work of its own.
struct HealthSample {
    int step = 0;
    double latency_s = 0.0;       ///< wall time of the step (sum of modules)
    int pcg_failed_solves = 0;    ///< non-converged PCG solves in this step
    bool step_converged = true;   ///< the step's overall convergence flag
    int open_close_iters = 0;
    int open_close_cap = 0;       ///< SimConfig::max_open_close_iters
    double max_penetration = 0.0; ///< worst residual interpenetration (m)
    double length_scale = 1.0;    ///< reference length (w0) for the ratio
    bool has_energy = false;
    double energy_total = 0.0;    ///< total mechanical energy (J)
};

/// One graded observation. `rule` names the worst rule that fired ("" for
/// Ok); `detail` is a human-readable explanation for the post-mortem.
struct HealthVerdict {
    int step = -1;
    HealthGrade grade = HealthGrade::Ok;
    std::string rule;
    std::string detail;
};

/// The rules' thresholds are fixed (metrics/health.cpp, listed in
/// docs/OBSERVABILITY.md).
class HealthMonitor {
public:
    HealthMonitor();

    /// Grade one step. Returns the overall verdict (worst rule wins) and
    /// records every non-Ok rule that fired into recent().
    HealthVerdict evaluate(const HealthSample& s);

    /// Grade of the most recent step (Ok before any sample).
    [[nodiscard]] HealthGrade grade() const { return grade_; }
    /// Worst grade seen over the monitor's lifetime.
    [[nodiscard]] HealthGrade worst() const { return worst_; }
    /// Bounded tail of non-Ok verdicts (oldest first, last 64 kept).
    [[nodiscard]] const std::vector<HealthVerdict>& recent() const { return recent_; }

private:
    void remember(HealthVerdict v);

    HealthGrade grade_ = HealthGrade::Ok;
    HealthGrade worst_ = HealthGrade::Ok;
    std::vector<HealthVerdict> recent_;

    int pcg_fail_streak_ = 0;
    int oc_cap_streak_ = 0;
    int energy_growth_streak_ = 0;
    bool have_prev_energy_ = false;
    double prev_energy_ = 0.0;
    std::vector<double> latency_window_; ///< ring of recent step latencies
    std::size_t latency_next_ = 0;
    std::size_t latency_count_ = 0;
};

} // namespace gdda::metrics
