#pragma once
// In-memory aggregation sink: per-module totals across a run, convertible
// back into the paper's Table II/III module breakdown on demand — either
// live (attached to an engine's Recorder) or offline by replaying a .jsonl
// telemetry file.

#include <iosfwd>
#include <optional>
#include <span>

#include "obs/sink.hpp"
#include "simt/cost_model.hpp"

namespace gdda::obs {

class Aggregator final : public Sink {
public:
    void on_step(const StepRecord& rec) override;

    [[nodiscard]] int steps() const { return steps_; }
    [[nodiscard]] long long pcg_iterations() const { return pcg_iterations_; }
    [[nodiscard]] long long pcg_solves() const { return pcg_solves_; }
    [[nodiscard]] long long pcg_failed_solves() const { return pcg_failed_solves_; }
    [[nodiscard]] long long open_close_iters() const { return open_close_iters_; }
    [[nodiscard]] long long retries() const { return retries_; }
    [[nodiscard]] int unconverged_steps() const { return unconverged_steps_; }
    [[nodiscard]] double simulated_time() const { return last_time_; }
    [[nodiscard]] const std::string& mode() const { return mode_; }

    /// Per-module totals summed over all recorded steps.
    [[nodiscard]] const ModuleRecord& module(int m) const { return modules_[m]; }
    [[nodiscard]] double module_seconds(int m) const { return modules_[m].seconds; }
    /// Measured wall time summed over modules and steps; matches
    /// core::ModuleTimers::total() of the producing engine.
    [[nodiscard]] double total_seconds() const;

    /// The module's accumulated analytic GPU cost (zero in serial mode).
    [[nodiscard]] simt::KernelCost module_cost(int m) const;
    [[nodiscard]] double modeled_ms(int m, const simt::DeviceProfile& dev) const {
        return simt::modeled_ms(module_cost(m), dev);
    }
    [[nodiscard]] double total_modeled_ms(const simt::DeviceProfile& dev) const;

    /// Measured per-module breakdown (module, seconds, share) as text.
    [[nodiscard]] std::string render_measured_table(std::string_view title) const;

    /// Rebuild an aggregator from a JSON-lines telemetry file. Returns
    /// std::nullopt and fills `err` on the first malformed line (unparseable
    /// JSON — e.g. a truncated final line — or a schema-invalid record).
    /// Whitespace-only lines are skipped. Step records carrying a *newer*
    /// schema version than this build knows are skipped and counted in
    /// replay_skipped() instead of aborting the replay, so old tooling can
    /// still total a file written by a newer engine.
    static std::optional<Aggregator> replay(std::istream& in, std::string* err = nullptr);

    /// Newer-version records skipped by the replay that built this
    /// aggregator (0 for live aggregation).
    [[nodiscard]] int replay_skipped() const { return replay_skipped_; }

private:
    int steps_ = 0;
    int replay_skipped_ = 0;
    long long pcg_iterations_ = 0;
    long long pcg_solves_ = 0;
    long long pcg_failed_solves_ = 0;
    long long open_close_iters_ = 0;
    long long retries_ = 0;
    int unconverged_steps_ = 0;
    double last_time_ = 0.0;
    std::string mode_;
    std::array<ModuleRecord, kModuleCount> modules_{};
};

/// Render the paper's Table II/III layout from two aggregators of the same
/// scenario: measured serial seconds next to SIMT-modeled device times and
/// speed-up rates. `devices` supplies the modeled columns (e.g. K20, K40).
std::string render_case_table(std::string_view title, const Aggregator& serial,
                              const Aggregator& gpu,
                              std::span<const simt::DeviceProfile* const> devices);

} // namespace gdda::obs
