#pragma once
// Fleet-level aggregation of a batch of JobResults: terminal-state counts,
// throughput (jobs/s, steps/s), step-latency distribution (p50/p95), worker
// occupancy, and a device-utilization estimate derived from the SIMT cost
// model (modeled device-milliseconds accumulated by all jobs per wall
// millisecond of the batch). Also merges every job's module timers/ledgers
// into one fleet view (explicit merge — accumulation during the run stays
// strictly per-engine) and can export all collected per-worker trace events
// as one Chrome trace with one lane (tid) per worker.

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "sched/job.hpp"
#include "simt/device_profile.hpp"

namespace gdda::sched {

struct BatchReport {
    std::vector<JobResult> jobs;
    int workers = 0;
    double wall_ms = 0.0; ///< batch makespan (first submit -> last finish)

    // Terminal-state census.
    int done = 0;
    int failed = 0;
    int cancelled = 0;
    int deadline_exceeded = 0;

    // Throughput / latency.
    /// UNIQUE completed steps across the batch: each job contributes its
    /// final progress once, never the steps a failed attempt recomputed.
    /// steps_per_s is derived from this, so retries can only lower the
    /// reported throughput, not inflate it.
    long long steps_total = 0;
    /// Engine steps actually executed, including recomputation by retries
    /// (>= steps_total; equal when no retry ever recomputed).
    long long steps_computed = 0;
    /// Executed-but-not-unique steps: the recompute waste retries paid.
    /// Checkpointed jobs resume instead of recomputing, driving this to ~0.
    long long steps_recomputed = 0;
    /// Silent solver failures surfaced: total PCG solves across the batch
    /// that ended without converging (summed over every job's steps).
    long long pcg_failed_solves = 0;
    /// Jobs with at least one non-converged solve.
    int jobs_with_failed_solves = 0;
    /// Last-resort (non-converged) steps and shrunken-dt step retries,
    /// summed over every job's completed steps.
    long long nonconverged_steps = 0;
    long long step_retries = 0;
    /// Work thrown away by those retries (JobResult::rejected_*) and the
    /// steps that hit dt_min, summed over every job.
    long long rejected_pcg_solves = 0;
    long long rejected_pcg_iterations = 0;
    long long rejected_open_close_iters = 0;
    long long dt_min_steps = 0;
    double jobs_per_s = 0.0;  ///< finished-ok jobs per wall second
    double steps_per_s = 0.0; ///< completed steps per wall second (all jobs)
    double p50_step_ms = 0.0;
    double p95_step_ms = 0.0;
    double max_step_ms = 0.0;

    // Occupancy estimates.
    double busy_ms = 0.0;             ///< sum of per-job run wall time
    double worker_utilization = 0.0;  ///< busy_ms / (workers * wall_ms)
    /// SIMT-modeled device milliseconds accumulated by the whole batch
    /// (merged ledgers of every job, modeled on `device`).
    double modeled_device_ms = 0.0;
    /// Modeled device-ms per batch wall-ms: the cost-model's estimate of how
    /// busy ONE device would be serving this batch. > 1 means the batch
    /// over-subscribes a single device and would need sharding to keep up.
    double device_utilization = 0.0;

    core::ModuleTimers timers;   ///< merged over all jobs
    core::ModuleLedgers ledgers; ///< merged over all jobs

    [[nodiscard]] bool all_done() const { return done == static_cast<int>(jobs.size()); }

    /// Aggregate a finished batch. `wall_ms` is the caller-measured makespan.
    [[nodiscard]] static BatchReport from(std::vector<JobResult> jobs, int workers,
                                          double wall_ms,
                                          const simt::DeviceProfile& dev);

    /// Fixed-width human-readable summary (per-job table + fleet stats).
    [[nodiscard]] std::string summary() const;
    /// Machine-readable document (schema "gdda.sched.batch" v5; v2 added
    /// pcg_failed_solves fleet-wide and per job, plus per-job
    /// postmortem_path when a flight-recorder bundle was written; v3 adds
    /// the unique-vs-computed step accounting — steps_computed and
    /// steps_recomputed fleet-wide, steps_computed / steps_recomputed /
    /// resumed_from_step per job; v4 adds nonconverged_steps and
    /// step_retries fleet-wide and per job; v5 adds rejected_pcg_solves,
    /// rejected_pcg_iterations, rejected_open_close_iters and dt_min_steps
    /// fleet-wide and per job). Every field of v4 keeps its name and
    /// meaning, so a v4 reader reads v5 by ignoring the new keys.
    [[nodiscard]] obs::JsonValue to_json() const;
};

inline constexpr std::string_view kBatchSchemaName = "gdda.sched.batch";
inline constexpr int kBatchSchemaVersion = 5;

/// Write every job's collected trace events (SchedulerConfig::collect_traces)
/// as one Chrome trace file: one pid, one tid lane per worker, span ids
/// remapped to stay unique across jobs. Returns false and fills `err` when
/// nothing was collected or the file cannot be written.
bool write_batch_trace(const std::string& path, const BatchReport& report,
                       const std::string& device = "k40", std::string* err = nullptr);

} // namespace gdda::sched
