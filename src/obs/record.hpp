#pragma once
// The structured per-step telemetry record — the unit every sink consumes.
// One record is produced by DdaEngine::step() per completed step (including
// its retries) and captures exactly what the paper's Tables II/III account:
// per-module wall time for the engine that ran, plus (GPU mode) the analytic
// kernel-cost totals the SIMT model turns into modeled device times.
//
// The JSON encoding is versioned: `schema` names the record type and
// `version` its layout revision. validate.hpp rejects drifted documents,
// and docs/TELEMETRY.md documents every field. Bump kSchemaVersion on any
// breaking change to the encoding.

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace gdda::obs {

inline constexpr std::string_view kStepSchemaName = "gdda.obs.step";
/// v2 added `trace_span` (the gdda::trace Step span id; 0 = untraced run).
/// v3 added `pcg_failed_solves` (non-converged PCG solves in the step —
/// previously dropped on the floor). v4 added three mixed-precision solver
/// counters; v5 removed them with the mixed-precision solver. Older
/// documents still decode — missing fields default to 0, and fields this
/// build no longer knows (the v4 counters) are ignored. v6 added the
/// rejected-attempt counts (`rejected_pcg_solves`,
/// `rejected_pcg_iterations`, `rejected_open_close_iters`) and
/// `hit_dt_min`. v7 added each pass's open-close outcome to `solves`
/// (`state_changes`, `transitions`, `max_penetration`) and one `attempts`
/// entry per rejected attempt.
inline constexpr int kSchemaVersion = 7;

/// Pipeline modules in the paper's Table II/III row order. Must stay in sync
/// with core::Module (static_asserted where the engine builds records).
inline constexpr int kModuleCount = 6;
inline constexpr std::array<std::string_view, kModuleCount> kModuleKeys = {
    "contact_detection", "diag_build",            "nondiag_build",
    "equation_solving",  "interpenetration_check", "data_update",
};
inline constexpr std::array<std::string_view, kModuleCount> kModuleTitles = {
    "Contact Detection",       "Diagonal Matrix Building", "Non-diagonal Matrix Building",
    "Equation Solving",        "Interpenetration Checking", "Data Updating",
};

/// Per-module share of one step. `seconds` is measured wall time on the host
/// (whichever engine ran). The remaining fields are the GPU pipeline's
/// analytic kernel-cost deltas for this step; all zero in Serial mode.
struct ModuleRecord {
    double seconds = 0.0;         ///< measured wall time (s)
    double flops = 0.0;           ///< double-precision operations
    double bytes_coalesced = 0.0; ///< coalesced global-memory traffic (bytes)
    double bytes_texture = 0.0;   ///< texture-cache gather traffic (bytes)
    double bytes_random = 0.0;    ///< scattered global-memory traffic (bytes)
    double depth = 0.0;           ///< dependent memory round-trips
    double branch_slots = 0.0;    ///< warp-branch evaluations
    double divergent_slots = 0.0; ///< of which divergent
    long long launches = 0;       ///< kernel launches
};

/// The (from, to) contact-state pairs of an open-close pass's switches.
inline constexpr int kTransitionCount = 6;
inline constexpr std::array<std::string_view, kTransitionCount> kTransitionKeys = {
    "open_to_slide", "open_to_lock", "slide_to_open",
    "slide_to_lock", "lock_to_open", "lock_to_slide",
};

/// One linear solve inside the step (one open-close pass) and the
/// open-close update that followed it.
struct PcgSolveRecord {
    int iterations = 0;
    double final_residual = 0.0; ///< |r| / |b| at exit
    bool converged = false;
    /// Per-iteration |r|/|b| curve; filled only when
    /// TelemetryConfig::pcg_residuals is set.
    std::vector<double> residuals;
    /// The pass's open-close update (v7+; 0 when decoded from older):
    /// contacts that switched state, the same split per kTransitionKeys
    /// pair, and the deepest penetration on its closed contacts (m).
    int state_changes = 0;
    std::array<int, kTransitionCount> transitions{};
    double max_penetration = 0.0;
};

/// One rejected displacement attempt of the step (v7+): its dt (s), which
/// of the four acceptance tests it passed (at least one failed), and its
/// max displacement and penetration (m).
struct AttemptRecord {
    double dt = 0.0;
    bool open_close_ok = false, pcg_ok = false, displacement_ok = false, penetration_ok = false;
    double max_displacement = 0.0;
    double max_penetration = 0.0;
};

struct StepRecord {
    std::string mode;     ///< "serial" | "gpu"
    int step = 0;         ///< 0-based step index within the run
    double time = 0.0;    ///< simulated time after the step (s)
    double dt = 0.0;      ///< physical time step used (s)
    int retries = 0;
    int open_close_iters = 0;
    int pcg_solves = 0;
    int pcg_iterations = 0; ///< summed over open-close passes
    /// Of pcg_solves, how many exited without reaching tolerance (silent
    /// solver failures — surfaced in metrics and `gdda-serve --verify`).
    int pcg_failed_solves = 0;
    /// Work of the step's rejected attempts (v6+; 0 when decoded from an
    /// older record): solves and PCG iterations, which pcg_solves and
    /// pcg_iterations include, and open-close passes.
    int rejected_pcg_solves = 0;
    int rejected_pcg_iterations = 0;
    int rejected_open_close_iters = 0;
    /// A retry shrank dt to dt_min (v6+; false when decoded from older).
    bool hit_dt_min = false;
    std::size_t contacts = 0;
    std::size_t active_contacts = 0;
    double max_displacement = 0.0;
    double max_penetration = 0.0;
    bool converged = true;

    /// Narrow-phase classification counts (paper Fig. 2 C1..C5).
    std::size_t cls_candidates = 0;
    std::size_t cls_ve = 0;
    std::size_t cls_vv1 = 0;
    std::size_t cls_vv2 = 0;
    std::size_t cls_abandoned = 0;

    /// gdda::trace span id of this step's Step span; 0 when the run is
    /// untraced. Joins telemetry records to the exported Chrome trace.
    std::size_t trace_span = 0;

    std::array<ModuleRecord, kModuleCount> modules{};
    std::vector<PcgSolveRecord> solves;
    /// The step's rejected attempts in order: as many as retries, one more
    /// when the step ended in the last-resort pass (v7+).
    std::vector<AttemptRecord> attempts;

    /// Sum of the per-module measured seconds of this step.
    [[nodiscard]] double seconds_total() const {
        double t = 0.0;
        for (const ModuleRecord& m : modules) t += m.seconds;
        return t;
    }
};

/// Encode as a schema-versioned JSON document (one line when dumped).
[[nodiscard]] JsonValue to_json(const StepRecord& rec);

/// Decode a parsed document back into a record. Strict: returns false and
/// fills `err` when a required field is missing or mistyped. Shares its
/// field checks with validate(), so decode success == schema validity.
bool from_json(const JsonValue& doc, StepRecord& rec, std::string* err = nullptr);

} // namespace gdda::obs
