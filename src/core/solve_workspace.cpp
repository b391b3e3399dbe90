#include "core/solve_workspace.hpp"

#include "core/gpu_support.hpp"

namespace gdda::core {

void SolveWorkspace::assemble_diagonal(const block::BlockSystem& sys,
                                       const assembly::BlockAttachments& att,
                                       const assembly::StepParams& sp,
                                       std::uint64_t values_epoch, simt::KernelCost* sink) {
    if (values_epoch != diag_epoch_) {
        // Block state / dt changed: both the diagonal physics and the
        // per-contact contribution memo were computed from stale inputs.
        diag_cache_.valid = false;
        diag_cache_.memo_valid = false;
        diag_epoch_ = values_epoch;
    }
    const bool diag_hit = diag_cache_.valid;
    assembly::assemble_diagonal(as_, sys, att, sp, &diag_cache_);
    if (sink) assembly::record_diag_costs(sink, static_cast<int>(sys.size()), diag_hit);
    if (diag_hit) {
        ++stats_.diag_physics_reuses;
        ++stats_.structural_kernels_skipped;
    }
}

void SolveWorkspace::assemble_contacts(const block::BlockSystem& sys,
                                       std::span<const contact::Contact> contacts,
                                       std::span<const contact::ContactGeometry> geo,
                                       const assembly::StepParams& sp, simt::KernelCost* sink,
                                       const assembly::ContactFingerprint* fingerprint) {
    const int n = static_cast<int>(sys.size());
    const assembly::ContactFingerprint fp =
        fingerprint ? *fingerprint : assembly::contact_fingerprint(n, contacts);
    warm_ = have_structure_ && fp == fp_;
    if (!warm_) {
        fp_ = fp;
        plan_ = assembly::AssemblyPlan(n, contacts);
        have_structure_ = true;
        // Downstream structure (HSBCSR indices, preconditioner pattern) is
        // keyed on the same fingerprint: force their cold paths too.
        have_h_ = false;
        have_pre_ = false;
        diag_cache_.memo_valid = false; // per-contact memo indexes the old list
        ++stats_.cold_structure_builds;
    } else {
        ++stats_.warm_numeric_refills;
        ++stats_.structural_kernels_skipped; // the plan's slot map
    }

    const bool placed =
        plan_.assemble_contacts(as_, sys, contacts, geo, sp, &diag_cache_, as_offdiag_zero_);
    as_offdiag_zero_ = !placed;
    if (sink) assembly::record_nondiag_costs(sink, n, contacts.size(), warm_);
}

void SolveWorkspace::prepare_solve(PrecondKind kind, simt::KernelCost* sink) {
    if (warm_ && have_h_) {
        // Off-diagonal slices that hold +0 and would be refilled with +0
        // (nothing was placed off the diagonal, before or now) stay as
        // they are; the kernel is priced whole either way.
        sparse::hsbcsr_refill(h_, as_.k, !(h_.upper_dead() && as_offdiag_zero_));
        ++stats_.structural_kernels_skipped;
        if (sink) {
            simt::record_kernel(sink, hsbcsr_refill_cost(h_));
            simt::record_skipped_kernel(sink, "hsbcsr_layout");
        }
    } else {
        h_ = sparse::hsbcsr_from_bsr(as_.k);
        have_h_ = true;
        if (sink) simt::record_kernel(sink, hsbcsr_conversion_cost(h_));
    }

    if (warm_ && have_pre_ && kind == pre_kind_) {
        const bool pattern_reused = pre_->refactor(as_.k);
        ++stats_.precond_refactors;
        if (pattern_reused) {
            ++stats_.structural_kernels_skipped;
            if (sink) simt::record_skipped_kernel(sink, pre_->name() + "_symbolic");
        } else {
            // ILU(0)'s scalar pattern shifted (an exact zero appeared or
            // vanished inside a block): it rebuilt symbolically on its own.
            ++stats_.ilu_pattern_rebuilds;
        }
        if (sink) simt::record_kernel(sink, pre_->construction_cost());
    } else {
        pre_ = make_preconditioner(kind, as_.k);
        pre_kind_ = kind;
        have_pre_ = true;
        if (sink) simt::record_kernel(sink, pre_->construction_cost());
    }
}

void SolveWorkspace::invalidate() {
    have_structure_ = false;
    have_h_ = false;
    have_pre_ = false;
    diag_cache_.valid = false;
    diag_cache_.memo_valid = false;
    warm_ = false;
}

} // namespace gdda::core
