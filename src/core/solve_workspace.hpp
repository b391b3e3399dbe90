#pragma once
// SolveWorkspace: the structure-caching solve path across the open-close
// loop. One solve pass runs assembly -> HSBCSR conversion -> preconditioner
// setup -> PCG; everything in that chain that depends only on the contact
// *structure* (which block pairs touch, not how hard) is invariant across
// the open-close iterations of a step and across retries, because every
// contact — open or closed — claims its sparsity slot.
//
// The workspace keys its caches on a cheap contact-set fingerprint
// (assembly::contact_fingerprint). While the fingerprint is unchanged, warm
// passes reuse:
//   * the assembly plan (sparsity structure + per-contact slot map),
//   * the per-block diagonal physics (constant within one dt attempt,
//     tracked by a caller-supplied values epoch),
//   * the HSBCSR index arrays (numeric refill of the slice data only),
//   * the preconditioner's allocations and symbolic pattern (refactor()),
//   * the PCG scratch vectors and SpMV workspace.
// Warm passes are bitwise identical to cold ones (tests enforce it); any
// fingerprint change falls back to the cold path for that pass.
//
// Engine mode does not reach this class: both modes run the same plan. A
// Gpu-mode caller passes cost sinks, and the analytic trace then prices the
// pass as the paper's Fig. 4 pipeline and records the skipped structural
// kernels as zero-cost "[cached]" events, so gdda-prof shows warm passes
// explicitly (docs/PERFORMANCE.md).

#include <cstdint>
#include <memory>
#include <span>

#include "assembly/assembler.hpp"
#include "core/config.hpp"
#include "solver/pcg.hpp"
#include "sparse/hsbcsr.hpp"

namespace gdda::core {

/// Counters proving (or disproving) structural reuse; monotonically
/// increasing over the workspace lifetime.
struct SolveWorkspaceStats {
    std::uint64_t cold_structure_builds = 0;   ///< assembly plans (re)built
    std::uint64_t warm_numeric_refills = 0;    ///< passes served from cache
    std::uint64_t structural_kernels_skipped = 0; ///< slot map, hsbcsr index, precond symbolic
    std::uint64_t diag_physics_reuses = 0;     ///< diagonal physics copied, not recomputed
    std::uint64_t precond_refactors = 0;       ///< preconditioner numeric-only rebuilds
    std::uint64_t ilu_pattern_rebuilds = 0;    ///< ILU(0) scalar-pattern fallbacks
    friend bool operator==(const SolveWorkspaceStats&, const SolveWorkspaceStats&) = default;
};

class SolveWorkspace {
public:
    /// Assemble K and F for the current contact state into the persistent
    /// AssembledSystem in two calls per pass, one per Table-II
    /// matrix-building row. GPU callers pass `sink` to have each phase
    /// priced; serial callers pass nullptr.
    ///
    /// assemble_diagonal: the per-block physics, or its cached copy.
    /// `values_epoch` tracks when its inputs (block state, dt) last
    /// changed — bump it per displacement attempt.
    void assemble_diagonal(const block::BlockSystem& sys, const assembly::BlockAttachments& att,
                           const assembly::StepParams& sp, std::uint64_t values_epoch,
                           simt::KernelCost* sink);
    /// assemble_contacts, after assemble_diagonal: decides cold vs warm
    /// from the contact fingerprint and sums the contact springs in.
    /// `fingerprint`, when given, is contact_fingerprint(n, contacts) as
    /// the caller already knows it.
    void assemble_contacts(const block::BlockSystem& sys,
                           std::span<const contact::Contact> contacts,
                           std::span<const contact::ContactGeometry> geo,
                           const assembly::StepParams& sp, simt::KernelCost* sink,
                           const assembly::ContactFingerprint* fingerprint = nullptr);

    /// HSBCSR conversion + preconditioner setup for the system assembled by
    /// the last assembly pass. Warm passes refill slice data and refactor
    /// the cached preconditioner; `sink` (GPU mode only) receives the
    /// numeric kernel costs and the "[cached]" skip markers.
    void prepare_solve(PrecondKind kind, simt::KernelCost* sink);

    [[nodiscard]] const sparse::HsbcsrMatrix& matrix() const { return h_; }
    [[nodiscard]] const sparse::BlockVec& rhs() const { return as_.f; }
    [[nodiscard]] const assembly::AssembledSystem& assembled() const { return as_; }
    [[nodiscard]] const solver::Preconditioner& precond() const { return *pre_; }
    [[nodiscard]] solver::PcgWorkspace& pcg_workspace() { return pcg_ws_; }
    [[nodiscard]] const SolveWorkspaceStats& stats() const { return stats_; }
    /// True when the last assemble_contacts() reused the cached structure.
    [[nodiscard]] bool warm() const { return warm_; }

    /// Drop every cache (checkpoint restore, external mutation of the block
    /// system). The next pass runs fully cold.
    void invalidate();

private:
    assembly::ContactFingerprint fp_;
    bool have_structure_ = false;
    assembly::AssemblyPlan plan_;
    assembly::DiagPhysicsCache diag_cache_;
    std::uint64_t diag_epoch_ = 0;

    assembly::AssembledSystem as_; ///< persistent: outlives the pass (SSOR-AI aliases k)
    sparse::HsbcsrMatrix h_;
    bool have_h_ = false;
    bool as_offdiag_zero_ = false; ///< as_.k's off-diagonal values are all +0
    std::unique_ptr<solver::Preconditioner> pre_;
    PrecondKind pre_kind_ = PrecondKind::BlockJacobi;
    bool have_pre_ = false;
    solver::PcgWorkspace pcg_ws_;

    SolveWorkspaceStats stats_;
    bool warm_ = false;
};

} // namespace gdda::core
