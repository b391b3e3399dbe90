#include "metrics/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace gdda::metrics {

namespace {

constexpr std::size_t kRecentVerdictCap = 64;

// Rule thresholds (docs/OBSERVABILITY.md). Streak rules fire after N
// consecutive offending steps, so one-off hiccups never page anyone; the
// interpenetration rule fires at once, on penetration as a fraction of w0.
constexpr int kPcgFailWarnStreak = 2, kPcgFailCriticalStreak = 5;
constexpr int kOcCapWarnStreak = 3, kOcCapCriticalStreak = 8;
constexpr double kEnergyGrowthTol = 0.05; ///< relative growth per step
constexpr int kEnergyGrowthWarnStreak = 3, kEnergyGrowthCriticalStreak = 8;
constexpr double kPenetrationWarnRatio = 0.01, kPenetrationCriticalRatio = 0.05;
/// A step slower than this factor times the running median of the last
/// kLatencyWindow steps (once kMinLatencySamples were seen) grades Warn.
constexpr double kLatencyOutlierFactor = 8.0;
constexpr std::size_t kLatencyWindow = 32, kMinLatencySamples = 8;

std::string fmt(const char* pattern, double a, double b) {
    char buf[160];
    std::snprintf(buf, sizeof buf, pattern, a, b);
    return buf;
}

} // namespace

std::string_view health_grade_name(HealthGrade g) {
    switch (g) {
    case HealthGrade::Ok: return "ok";
    case HealthGrade::Warn: return "warn";
    case HealthGrade::Critical: return "critical";
    }
    return "ok";
}

HealthMonitor::HealthMonitor() : latency_window_(kLatencyWindow, 0.0) {}

void HealthMonitor::remember(HealthVerdict v) {
    if (recent_.size() >= kRecentVerdictCap)
        recent_.erase(recent_.begin());
    recent_.push_back(std::move(v));
}

HealthVerdict HealthMonitor::evaluate(const HealthSample& s) {
    HealthVerdict overall;
    overall.step = s.step;

    auto fire = [&](HealthGrade grade, std::string rule, std::string detail) {
        HealthVerdict v;
        v.step = s.step;
        v.grade = grade;
        v.rule = std::move(rule);
        v.detail = std::move(detail);
        if (static_cast<int>(grade) > static_cast<int>(overall.grade)) {
            overall.grade = grade;
            overall.rule = v.rule;
            overall.detail = v.detail;
        }
        remember(std::move(v));
    };

    // Rule 1: PCG non-convergence streak. A single hard solve is routine
    // (the retry path shrinks dt); a run of them means the system left the
    // solver's comfort zone.
    if (s.pcg_failed_solves > 0 || !s.step_converged)
        ++pcg_fail_streak_;
    else
        pcg_fail_streak_ = 0;
    if (pcg_fail_streak_ >= kPcgFailCriticalStreak)
        fire(HealthGrade::Critical, "pcg_nonconverged_streak",
             fmt("%.0f consecutive steps with failed solves (critical at %.0f)",
                 pcg_fail_streak_, kPcgFailCriticalStreak));
    else if (pcg_fail_streak_ >= kPcgFailWarnStreak)
        fire(HealthGrade::Warn, "pcg_nonconverged_streak",
             fmt("%.0f consecutive steps with failed solves (warn at %.0f)", pcg_fail_streak_,
                 kPcgFailWarnStreak));

    // Rule 2: open-close iteration cap hits. The inner loop giving up on a
    // consistent contact-state set step after step means the penalty/contact
    // configuration is oscillating.
    if (s.open_close_cap > 0 && s.open_close_iters >= s.open_close_cap)
        ++oc_cap_streak_;
    else
        oc_cap_streak_ = 0;
    if (oc_cap_streak_ >= kOcCapCriticalStreak)
        fire(HealthGrade::Critical, "open_close_cap_streak",
             fmt("open-close cap hit %.0f steps in a row (critical at %.0f)", oc_cap_streak_,
                 kOcCapCriticalStreak));
    else if (oc_cap_streak_ >= kOcCapWarnStreak)
        fire(HealthGrade::Warn, "open_close_cap_streak",
             fmt("open-close cap hit %.0f steps in a row (warn at %.0f)", oc_cap_streak_,
                 kOcCapWarnStreak));

    // Rule 3: energy growth. Implicit DDA with frictional contact dissipates;
    // sustained relative growth of total mechanical energy means the
    // integration is feeding the system (penalty blow-up, dt too large).
    if (s.has_energy) {
        if (have_prev_energy_) {
            const double scale =
                std::max({std::fabs(prev_energy_), std::fabs(s.energy_total), 1e-12});
            const double rel = (s.energy_total - prev_energy_) / scale;
            if (rel > kEnergyGrowthTol)
                ++energy_growth_streak_;
            else
                energy_growth_streak_ = 0;
            if (energy_growth_streak_ >= kEnergyGrowthCriticalStreak)
                fire(HealthGrade::Critical, "energy_growth",
                     fmt("energy grew >%.2f%% for %.0f consecutive steps",
                         100.0 * kEnergyGrowthTol, energy_growth_streak_));
            else if (energy_growth_streak_ >= kEnergyGrowthWarnStreak)
                fire(HealthGrade::Warn, "energy_growth",
                     fmt("energy grew >%.2f%% for %.0f consecutive steps",
                         100.0 * kEnergyGrowthTol, energy_growth_streak_));
        }
        prev_energy_ = s.energy_total;
        have_prev_energy_ = true;
    }

    // Rule 4: interpenetration spike, immediate. Residual penetration beyond
    // a few percent of the reference length is a physically meaningless
    // state no streak should be allowed to ride through.
    const double len = std::max(s.length_scale, 1e-12);
    const double pen_ratio = s.max_penetration / len;
    if (pen_ratio >= kPenetrationCriticalRatio)
        fire(HealthGrade::Critical, "interpenetration_spike",
             fmt("max penetration %.3g x reference length (critical at %.3g)", pen_ratio,
                 kPenetrationCriticalRatio));
    else if (pen_ratio >= kPenetrationWarnRatio)
        fire(HealthGrade::Warn, "interpenetration_spike",
             fmt("max penetration %.3g x reference length (warn at %.3g)", pen_ratio,
                 kPenetrationWarnRatio));

    // Rule 5: step-latency outlier vs the running median of the recent
    // window. Wall time is noisy on shared hosts, so this is Warn-only and
    // needs a minimum sample count before it can fire.
    if (latency_count_ >= kMinLatencySamples) {
        std::vector<double> sorted(latency_window_.begin(),
                                   latency_window_.begin() +
                                       static_cast<std::ptrdiff_t>(std::min(
                                           latency_count_, latency_window_.size())));
        std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
        const double median = sorted[sorted.size() / 2];
        if (median > 0.0 && s.latency_s > kLatencyOutlierFactor * median)
            fire(HealthGrade::Warn, "step_latency_outlier",
                 fmt("step took %.3gx the running median latency", s.latency_s / median, 0.0));
    }
    latency_window_[latency_next_] = s.latency_s;
    latency_next_ = (latency_next_ + 1) % latency_window_.size();
    ++latency_count_;

    grade_ = overall.grade;
    if (static_cast<int>(grade_) > static_cast<int>(worst_)) worst_ = grade_;
    return overall;
}

} // namespace gdda::metrics
