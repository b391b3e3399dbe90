#pragma once
// The DDA pipeline engine: executes one time step (loop 1 iteration) with
// the maximum-displacement control (loop 2) and open-close iteration
// (loop 3) inside. Both modes execute the same code path; the mode only
// decides whether the SIMT cost model is charged:
//
//   Serial  the CPU pipeline of Fig. 1, uncharged — this is what gets
//           *measured* for the E5620 column of Tables II/III;
//   Gpu     the same computation priced as the data-classified pipeline of
//           Fig. 2 (balanced broad phase, divergence-classified narrow
//           phase, sort/scan segmented assembly, HSBCSR SpMV): every
//           kernel's analytic cost is accounted into per-module ledgers
//           that the SIMT model converts into K20/K40 modeled times.
//
// Both modes therefore produce bitwise-identical trajectories (enforced by
// integration tests), which is the paper's own correctness criterion for
// the GPU port.

#include <memory>
#include <vector>

#include "contact/narrow_phase.hpp"
#include "contact/open_close.hpp"
#include "contact/pair_cache.hpp"
#include "contact/pair_classes.hpp"
#include "contact/transfer.hpp"
#include "core/config.hpp"
#include "core/solve_workspace.hpp"
#include "core/timing.hpp"
#include "metrics/engine_observer.hpp"
#include "obs/recorder.hpp"
#include "par/scratch_array.hpp"
#include "solver/ilu0.hpp"

namespace gdda::core {

enum class EngineMode { Serial, Gpu };

/// Complete mid-run engine state: everything DdaEngine::step() reads that is
/// not derivable from the SimConfig, captured so a restored engine continues
/// bitwise-identically to one that never paused. This includes the
/// construction-time scalars (w0, mobile_size) — they are derived from the
/// *initial* model, so an engine rebuilt on a moved system would otherwise
/// compute different displacement limits and diverge. gdda::state serializes
/// this struct into the versioned binary checkpoint format (docs/STATE.md).
struct EngineCheckpoint {
    block::BlockSystem sys; ///< deep copy of the block system's dynamic state
    double time = 0.0;
    double dt = 0.0;
    double w0 = 0.0;          ///< half vertical extent of the INITIAL model
    double mobile_size = 0.0; ///< mean sqrt(area) of the initial mobile blocks
    double last_max_velocity = 0.0;
    std::uint64_t values_epoch = 0;
    int step_index = 0; ///< completed step() calls since construction
    std::vector<contact::Contact> contacts; ///< live set incl. spring memory
    sparse::BlockVec warm_start;
};

class DdaEngine {
public:
    DdaEngine(block::BlockSystem& sys, SimConfig cfg, EngineMode mode);

    /// Advance one time step; returns its statistics.
    StepStats step();

    /// Run `n` steps; returns the last step's stats.
    StepStats run(int n);

    [[nodiscard]] const ModuleTimers& timers() const { return timers_; }
    /// Per-module wall time spent inside dispatch-eligible parallel_for
    /// regions (the parallelizable slice of timers(); eligibility-based, so
    /// meaningful even on a 1-core host). Feeds the serial-fraction
    /// breakdown in bench_step_scaling and the parallel-coverage gauge.
    [[nodiscard]] const ModuleTimers& parallel_timers() const { return par_timers_; }
    [[nodiscard]] const ModuleLedgers& ledgers() const { return ledgers_; }
    [[nodiscard]] const block::BlockSystem& system() const { return *sys_; }
    [[nodiscard]] block::BlockSystem& system() { return *sys_; }
    [[nodiscard]] double time() const { return time_; }
    [[nodiscard]] double dt() const { return dt_; }
    [[nodiscard]] const std::vector<contact::Contact>& contacts() const { return contacts_; }
    [[nodiscard]] const contact::ClassificationStats& classification() const { return class_stats_; }
    [[nodiscard]] const SimConfig& config() const { return cfg_; }
    [[nodiscard]] EngineMode mode() const { return mode_; }

    /// Completed step() calls since construction (or since the last
    /// checkpoint restore, which carries the counter forward).
    [[nodiscard]] int step_index() const { return step_index_; }

    /// Kinetic-energy style movement metric: max block displacement of the
    /// last step divided by dt (used by examples to detect a static state).
    [[nodiscard]] double last_max_velocity() const { return last_max_velocity_; }

    /// PCG warm-start vector (the previous step's solution).
    [[nodiscard]] const sparse::BlockVec& warm_start() const { return warm_start_; }

    /// The structure-caching solve path state (cold/warm counters, caches).
    [[nodiscard]] const SolveWorkspace& solve_workspace() const { return ws_; }

    /// Broad-phase backend this engine runs behind its pair cache: the
    /// spatial hash at or above contact::kAutoHashMinBlocks blocks, the
    /// all-pairs enumeration below (docs/CONTACTS.md).
    [[nodiscard]] contact::BroadPhaseBackend broad_phase_backend() const;

    /// Narrow-phase memo counters: pairs reused and rebuilt, and the steady
    /// steps whose whole contact list came from the memo (docs/CONTACTS.md).
    [[nodiscard]] const contact::NarrowMemoStats& narrow_memo() const {
        return np_ws_.memo_stats;
    }

    /// Persistent candidate-pair cache state (rebuild/reuse counters).
    [[nodiscard]] const contact::BroadPhasePairCache& pair_cache() const {
        return pair_cache_;
    }

    /// Divergence-aware pair schedule of the last contact detection
    /// (warp-efficiency model of the classified narrow phase). Gpu mode
    /// only; all zeros in Serial mode.
    [[nodiscard]] const contact::PairScheduleStats& pair_schedule() const {
        return sched_stats_;
    }

    /// Telemetry recorder: constructed from SimConfig::telemetry when
    /// enabled, or attached explicitly (replacing any config-built one).
    /// Null when telemetry is off. One structured record per step() call is
    /// fanned out to the recorder's sinks.
    [[nodiscard]] const std::shared_ptr<obs::Recorder>& recorder() const { return recorder_; }
    void attach_recorder(std::shared_ptr<obs::Recorder> rec) { recorder_ = std::move(rec); }

    /// Span tracer: constructed from SimConfig::trace when enabled, or
    /// attached explicitly (replacing any config-built one). Null when
    /// tracing is off. Attaching also installs the tracer as the process-wide
    /// SIMT kernel hook so it sees every kernel launch this engine issues.
    [[nodiscard]] const std::shared_ptr<trace::Tracer>& tracer() const { return tracer_; }
    void attach_tracer(std::shared_ptr<trace::Tracer> tracer);

    /// Live-metrics observer (registry + health watchdog + flight
    /// recorder): constructed from SimConfig::metrics when enabled, or
    /// attached explicitly (replacing any config-built one). Null when
    /// metrics are off. Strictly observer-only — the trajectory is bitwise
    /// identical with or without it.
    [[nodiscard]] const std::shared_ptr<metrics::EngineObserver>& metrics() const {
        return metrics_;
    }
    void attach_metrics(std::shared_ptr<metrics::EngineObserver> obs) {
        metrics_ = std::move(obs);
    }

    /// Deep-copy the complete mid-run state. The capture is observer-only:
    /// stepping after capture() is bitwise-identical to never capturing.
    [[nodiscard]] EngineCheckpoint capture() const;

    /// Restore a capture()d state exactly: block system bits, time/dt (exact
    /// bits, no clamping), the initial-model scalars, contact springs, the
    /// warm start, and the step/epoch counters. The solve workspace and
    /// broad-phase pair cache are invalidated and the narrow-phase memo is
    /// dropped — warm is bitwise-identical to cold for all three (see
    /// docs/PERFORMANCE.md and docs/CONTACTS.md), so stepping after
    /// restore() is bitwise-identical to never having paused.
    void restore(const EngineCheckpoint& snap);

private:
    StepStats step_impl();
    void detect_contacts();
    /// One assemble+solve+update pass over geo_; returns the open-close
    /// update's result (state changes, closed count, penetration).
    /// `fresh_pass` marks the first pass of a displacement attempt: it
    /// resets the PCG start vector to the last committed step's solution,
    /// later open-close passes iterate from the previous pass's.
    contact::OpenCloseResult solve_pass(sparse::BlockVec& d, StepStats& stats,
                                        bool fresh_pass);
    double max_vertex_displacement(const sparse::BlockVec& d) const;
    /// Apply the accepted increment `d`; `maxd` is its largest vertex
    /// displacement (max_vertex_displacement(d) at the step's start).
    void commit_step(const sparse::BlockVec& d, double maxd, StepStats& stats);

    block::BlockSystem* sys_;
    SimConfig cfg_;
    EngineMode mode_;

    double time_ = 0.0;
    double dt_;
    double w0_; ///< half vertical extent of the initial model
    double mobile_size_ = 1.0; ///< mean sqrt(area) of the non-fixed blocks
    assembly::BlockAttachments attachments_;

    std::vector<contact::Contact> contacts_;
    contact::NarrowPhaseWorkspace np_ws_;   ///< narrow-phase scratch, reused per step
    contact::NarrowPhaseResult detected_;   ///< narrow-phase output buffer
    assembly::ContactFingerprint contacts_fp_; ///< structure of contacts_, once per step
    /// Per contact, the fields an attempt can change, as they stood at
    /// step entry (retries restore them); written by the transfer.
    par::ScratchArray<contact::EntryState> entry_;
    /// Geometry records of the step: valid for every contact closed at
    /// step entry or closed since (docs/CONTACTS.md); never initialized
    /// for contacts that stay open.
    par::ScratchArray<contact::ContactGeometry> geo_;
    /// Scratch for the open-close update: per block, the current pass's
    /// translation and rotation/strain bound (contact::block_motion).
    par::ScratchArray<contact::BlockMotion> motion_;
    contact::BroadPhasePairCache pair_cache_; ///< persistent candidate cache
    contact::PairScheduleStats sched_stats_;  ///< last step's pair schedule
    SolveWorkspace ws_; ///< structure-caching solve path (both modes)
    std::uint64_t values_epoch_ = 0; ///< bumped per attempt: diag physics inputs changed
    contact::ClassificationStats class_stats_;
    sparse::BlockVec warm_start_;
    double last_max_velocity_ = 0.0;

    ModuleTimers timers_;
    ModuleTimers par_timers_;
    ModuleLedgers ledgers_;

    std::shared_ptr<obs::Recorder> recorder_;
    std::shared_ptr<trace::Tracer> tracer_;
    std::shared_ptr<metrics::EngineObserver> metrics_;
    int step_index_ = 0;
    /// The step's per-pass and rejected-attempt entries of its obs record;
    /// filled only while a recorder or metrics observer is attached.
    std::vector<obs::PcgSolveRecord> step_solves_;
    std::vector<obs::AttemptRecord> step_attempts_;
};

} // namespace gdda::core
