#pragma once
// gdda::sched job model. A Job is one self-contained DDA simulation request:
// a scene factory (fresh BlockSystem per attempt, so retries and re-runs are
// bit-reproducible), a SimConfig, an engine mode, a step budget, an optional
// wall-clock deadline, and a retry-on-failure policy. A JobResult carries the
// terminal state plus everything the batch report aggregates: per-step
// latencies, merged module timers/ledgers, and a bitwise fingerprint of the
// final block state (the determinism contract: the same job run through any
// scheduler configuration hashes identically to a direct engine loop).

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "block/block_system.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/timing.hpp"
#include "trace/tracer.hpp"

namespace gdda::sched {

/// Builds the job's scene. Called once per attempt on the worker thread;
/// must be pure (same blocks every call) for retries and determinism checks
/// to be meaningful, and thread-safe (no shared mutable state).
using SceneFactory = std::function<block::BlockSystem()>;

enum class JobState : int {
    Queued = 0,
    Running,
    Done,
    Failed,           ///< scene factory or engine threw (after all retries)
    Cancelled,        ///< cancel requested; stops within one time step
    DeadlineExceeded, ///< wall-clock budget hit; partial progress reported
};
[[nodiscard]] std::string_view job_state_name(JobState s);

struct Job {
    std::string name;
    SceneFactory scene;
    core::SimConfig config;
    core::EngineMode mode = core::EngineMode::Serial;
    int steps = 10;           ///< step budget (loop-1 iterations to run)
    double deadline_ms = 0.0; ///< wall-clock budget; 0 = none
    int max_retries = 0;      ///< re-run a FAILED job this many extra times
    /// Fault injection: throw after this many completed steps (0 = never).
    /// Exists so tests and the CI post-mortem drill can force a
    /// deterministic Failed job with real step records in the flight
    /// recorder; manifest key `fail_after=<n>`. The fault fires only on
    /// attempts that start from scratch — a checkpoint-resumed attempt (or
    /// a `resume` job) skips it, which is what lets the CI crash-recovery
    /// drill rerun the *same* manifest under `gdda-serve --resume`.
    int fail_after = 0;

    /// Checkpoint file for this job ("" = checkpointing off). When set and
    /// SimConfig::checkpoint_interval > 0, the worker snapshots the engine
    /// every N completed steps plus once at the end (gdda::state binary
    /// format, atomic rename). Retries of a failed attempt resume from this
    /// file instead of recomputing from step 0 (retry-without-recompute);
    /// manifest key `checkpoint=<path>`.
    std::string checkpoint_path;

    /// Resume this job from `checkpoint_path` on its FIRST attempt (crash
    /// recovery: `gdda-serve --resume`). A missing file falls back to a
    /// fresh run; a malformed one is a typed rejection counted in
    /// gdda_state_recovery_rejected_total, also falling back to fresh.
    bool resume = false;

    /// Tenant for session admission control and fair queueing ("" = the
    /// default tenant). Jobs of different tenants are dispatched round-robin
    /// regardless of submission burst order; manifest key `tenant=<name>`.
    std::string tenant;

    /// Session hook: called on the worker thread with the live engine right
    /// after construction (and after a checkpoint restore, if any), before
    /// the first step of every attempt. The in-situ analysis path attaches
    /// observer-only sinks here; the hook must not mutate physics state.
    std::function<void(core::DdaEngine&)> on_engine;
};

struct JobResult {
    std::string name;
    JobState state = JobState::Queued;
    int steps_requested = 0;
    int steps_done = 0;  ///< unique completed steps (partial on cancel/deadline)
    int attempts = 0;    ///< 1 + retries actually consumed
    /// Step index the final attempt started from (> 0 iff it restored a
    /// checkpoint; crash recovery and retry-without-recompute land here).
    int resumed_from_step = 0;
    /// Engine steps actually EXECUTED across all attempts, including any
    /// recomputed after a failed attempt. steps_computed >= steps_done;
    /// the gap is the recompute waste that checkpointing eliminates.
    /// BatchReport throughput uses steps_done (unique), never this.
    int steps_computed = 0;
    /// Of steps_computed, how many re-executed a step index some earlier
    /// attempt of this run had already executed (exact, high-water-mark
    /// accounting: steps preserved via a checkpoint are NOT recomputation).
    int steps_recomputed = 0;
    int worker = -1;     ///< worker lane that ran the job
    std::string error;   ///< what() of the terminal failure, empty otherwise
    double wall_ms = 0.0;         ///< run time of the final attempt
    double queue_ms = 0.0;        ///< submit -> first attempt start
    double sim_time = 0.0;        ///< simulated seconds reached
    double last_max_velocity = 0.0;
    std::vector<double> step_ms;  ///< per-step latency samples (final attempt)
    core::StepStats last;         ///< stats of the last completed step
    /// Non-converged PCG solves summed over the job's completed steps
    /// (silent solver failures surfaced by `gdda-serve --verify`).
    long long pcg_failed_solves = 0;
    /// Completed steps that did not converge: the engine accepted them at
    /// dt_min as a last resort (StepStats::converged false). `last`
    /// alone hides every such step but the final one.
    long long nonconverged_steps = 0;
    /// Shrunken-dt step retries (StepStats::retries) summed over the job's
    /// completed steps.
    long long step_retries = 0;
    /// Work the retries threw away, summed over the job's completed steps:
    /// PCG solves, PCG iterations and open-close passes of rejected
    /// attempts (StepStats::rejected_*), and the steps whose retries shrank
    /// dt to dt_min (StepStats::hit_dt_min).
    long long rejected_pcg_solves = 0;
    long long rejected_pcg_iterations = 0;
    long long rejected_open_close_iters = 0;
    long long dt_min_steps = 0;
    /// Post-mortem bundle written for this job ("" when none was dumped).
    std::string postmortem_path;
    core::ModuleTimers timers;    ///< merged per-module wall seconds
    core::ModuleLedgers ledgers;  ///< merged per-module SIMT cost ledgers
    /// FNV-1a over the final block state (0 until >= 1 step completed).
    std::uint64_t state_hash = 0;
    /// Per-job span/kernel events captured by the worker's own tracer when
    /// SchedulerConfig::collect_traces is on (empty otherwise). Merged into
    /// one multi-lane Chrome trace by sched::write_batch_trace.
    std::vector<trace::Event> trace_events;
    std::uint64_t trace_dropped = 0;

    [[nodiscard]] bool terminal_ok() const { return state == JobState::Done; }
};

/// Bitwise fingerprint of a block system's dynamic state: vertex positions,
/// velocities and stresses of every block, hashed over their raw double bits
/// (FNV-1a). Two runs agree on this iff their trajectories are bit-identical,
/// which is exactly the scheduler's determinism contract. The canonical
/// implementation lives at the block layer so observers (gdda::metrics
/// post-mortems) can fingerprint without linking sched; re-exported here to
/// keep the historical sched::state_fingerprint spelling working.
using block::state_fingerprint;

} // namespace gdda::sched
