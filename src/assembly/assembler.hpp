#pragma once
// Global stiffness matrix assembly. assemble_serial is the CPU reference
// (Fig. 1 pipeline); AssemblyPlan is the one assembly path both engine modes
// run, bit-identical to it (tests enforce this). The paper's Fig. 4
// sort-and-scan segmented assembly is a GPU schedule of the same sums: it is
// not executed here, only priced from counts by record_diag_costs and
// record_nondiag_costs.

#include <bit>
#include <cstdint>
#include <span>

#include "assembly/submatrices.hpp"
#include "par/scratch_array.hpp"
#include "simt/cost_model.hpp"
#include "sparse/bsr.hpp"

namespace gdda::assembly {

struct AssembledSystem {
    sparse::BsrMatrix k;
    sparse::BlockVec f;
};

/// Cheap structural identity of a contact set: block count plus an FNV-1a
/// hash over the (bi, bj, kind) *sequence*. Order matters — the assemblers
/// sum contributions in contact-list order, so a permuted set must read as a
/// different structure for warm passes to stay bit-identical to cold ones.
/// Two equal fingerprints mean every cached sort permutation, slot map, and
/// sparsity pattern keyed on them may be reused verbatim.
struct ContactFingerprint {
    int n = -1;
    std::size_t count = 0;
    std::uint64_t hash = 0;
    friend bool operator==(const ContactFingerprint&, const ContactFingerprint&) = default;
};
ContactFingerprint contact_fingerprint(int n, std::span<const Contact> contacts);

/// Cached per-block diagonal physics (stiffness + load from block_diagonal).
/// Within one displacement attempt the block geometry, velocities, and dt
/// are all frozen, so the diagonal physics is constant across the open-close
/// iterations; copying the cached doubles is bitwise identical to
/// recomputing them. The owner invalidates on every new attempt.
///
/// The cache also memoizes per-contact contributions: within one attempt a
/// contact's springs only change when the open-close machine flips its state
/// or updates its spring bookkeeping, so most contacts re-emit the exact
/// same sub-matrices pass after pass. Entry c is reusable when every input
/// contact_contribution reads — the contact's solver-visible fields and its
/// geometry — is bit-identical to the snapshot, which makes the copied
/// output bit-identical to recomputation.
struct DiagPhysicsCache {
    std::vector<Mat6> k;
    sparse::BlockVec f;
    bool valid = false;

    struct ContactMemo {
        std::int32_t bi = -1, bj = -1; ///< joint-material lookup inputs
        contact::ContactState state = contact::ContactState::Open;
        double shear_disp = 0.0, slide_sign = 0.0, last_gap = 0.0;
        ContactGeometry geo;
        ContactContribution cc;
    };
    /// Entry c is stored only by contact c, and only while it is closed;
    /// the storage starts uninitialized, so entries of contacts that stay
    /// open never become resident.
    par::ScratchArray<ContactMemo> memo;
    /// Generation each memo entry was stored in; entries of any other
    /// generation are dead. Dropping the whole memo is one increment, so a
    /// contact that never stores (an open one) never touches its entry.
    std::vector<std::uint64_t> memo_gen;
    std::uint64_t gen = 0;
    bool memo_valid = false;

    /// Open a pass over `count` contacts: an invalidated memo, or one sized
    /// for another contact list, starts a new generation.
    void begin_memo_pass(std::size_t count) {
        if (memo_valid && memo.size() == count) return;
        memo.reset(count);
        memo_gen.resize(count, 0);
        ++gen;
        memo_valid = true;
    }
    /// Entry c's contribution when it is live and every contact_contribution
    /// input is bit-identical to its snapshot; otherwise nullptr.
    [[nodiscard]] const ContactContribution* recall(std::size_t c, const Contact& ct,
                                                    const ContactGeometry& g) const;
    void store(std::size_t c, const Contact& ct, const ContactGeometry& g,
               const ContactContribution& cc) {
        memo[c] = {ct.bi, ct.bj, ct.state, ct.shear_disp, ct.slide_sign, ct.last_gap, g, cc};
        memo_gen[c] = gen;
    }
};

/// Per-category contact counts for the paper's C1..C5 classification
/// (section III.A, third classification): VE/VV1 split by the state-switch
/// indicators p1/p2 into C1..C3, VV2 into C4..C5.
struct CategoryStats {
    std::size_t c1 = 0, c2 = 0, c3 = 0, c4 = 0, c5 = 0, abandoned = 0;
};
CategoryStats classify_categories(std::span<const Contact> contacts);

/// Price one assembly pass as the paper's Fig. 4 GPU pipeline runs it, one
/// call per Table-II row, from counts alone: contributions into array D, a
/// radix sort of D by (row, col) key, a scan of segment heads, segmented
/// sums. The diagonal phase is diag_build, or diag_copy when the physics
/// came from the cache (`diag_hit`); the contact phase is nondiag_build,
/// or nondiag_refill with the skipped sort/scan as a zero-cost "[cached]"
/// event when the structure was cached (`warm`). Records accumulate into
/// `sink` and reach the trace hook under the caller's module scope.
void record_diag_costs(simt::KernelCost* sink, int n, bool diag_hit);
void record_nondiag_costs(simt::KernelCost* sink, int n, std::size_t contacts, bool warm);

inline bool bits_equal(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
inline bool bits_equal(const Vec6& a, const Vec6& b) {
    for (int k = 0; k < 6; ++k)
        if (!bits_equal(a[k], b[k])) return false;
    return true;
}
/// True when the memo snapshot matches every input contact_contribution
/// reads for the contact's state. Both closed states read the four
/// gradients and gap0. Lock adds shear_disp. Slide adds the joint material
/// of (bi, bj), last_gap, slide_sign and length. No state reads ratio, and
/// the open-close update rewrites a Lock contact's last_gap every pass, so
/// comparing it would turn every such pass into a miss.
inline bool memo_hit(const DiagPhysicsCache::ContactMemo& m, const Contact& c,
                     const ContactGeometry& g) {
    if (m.state != c.state || !bits_equal(m.geo.en_i, g.en_i) ||
        !bits_equal(m.geo.gn_j, g.gn_j) || !bits_equal(m.geo.es_i, g.es_i) ||
        !bits_equal(m.geo.gs_j, g.gs_j) || !bits_equal(m.geo.gap0, g.gap0))
        return false;
    if (c.state == contact::ContactState::Lock) return bits_equal(m.shear_disp, c.shear_disp);
    return m.bi == c.bi && m.bj == c.bj && bits_equal(m.last_gap, c.last_gap) &&
           bits_equal(m.slide_sign, c.slide_sign) && bits_equal(m.geo.length, g.length);
}

inline const ContactContribution* DiagPhysicsCache::recall(std::size_t c, const Contact& ct,
                                                           const ContactGeometry& g) const {
    return memo_gen[c] == gen && memo_hit(memo[c], ct, g) ? &memo[c].cc : nullptr;
}

/// Serial reference assembly: diagonal physics plus contact springs.
/// All contacts (including open ones) claim a sparsity slot so the matrix
/// structure is invariant across the open-close iterations of one step.
AssembledSystem assemble_serial(const BlockSystem& sys, const BlockAttachments& att,
                                std::span<const Contact> contacts,
                                std::span<const ContactGeometry> geo,
                                const StepParams& sp);

/// Diagonal phase of one assembly pass (the Table-II "Diagonal Matrix
/// Building" row): resets `out.f` and writes every diagonal block and load
/// from the per-block physics, or copies them from a valid `diag_cache`
/// (bitwise the same); a cache that is not valid is filled. The contact
/// phase, AssemblyPlan::assemble_contacts, must follow in the same pass.
void assemble_diagonal(AssembledSystem& out, const BlockSystem& sys,
                       const BlockAttachments& att, const StepParams& sp,
                       DiagPhysicsCache* diag_cache = nullptr);

/// Symbolic assembly plan: the sparsity structure and per-contact slot map
/// computed once per contact structure (the contact set is fixed across the
/// open-close iterations), so each numeric pass is a direct indexed fill —
/// how a production serial DDA assembles. Both engine modes run it; it
/// produces bit-identical results to assemble_serial (same summation order).
class AssemblyPlan {
public:
    AssemblyPlan() = default;
    AssemblyPlan(int n, std::span<const Contact> contacts);

    /// Both phases into a fresh system.
    [[nodiscard]] AssembledSystem assemble(const BlockSystem& sys,
                                           const BlockAttachments& att,
                                           std::span<const Contact> contacts,
                                           std::span<const ContactGeometry> geo,
                                           const StepParams& sp) const;

    /// Contact phase of one assembly pass (the "Non-diagonal Matrix
    /// Building" row), after assemble_diagonal: copies the structure into
    /// `out.k` (reusing its allocations) and sums the closed contacts'
    /// springs in. `diag_cache`, when given, memoizes per-contact
    /// contributions, bitwise identically. `offdiag_vals_zero` asserts that
    /// every off-diagonal value of `out.k` is already +0, which spares the
    /// zero fill. Returns whether this pass placed anything off the
    /// diagonal.
    bool assemble_contacts(AssembledSystem& out, const BlockSystem& sys,
                           std::span<const Contact> contacts,
                           std::span<const ContactGeometry> geo, const StepParams& sp,
                           DiagPhysicsCache* diag_cache = nullptr,
                           bool offdiag_vals_zero = false) const;

private:
    int n_ = 0;
    std::vector<int> row_ptr_;
    std::vector<int> col_idx_;
    /// Index into the vals array of the (min, max) off-diagonal slot of each
    /// contact; negative when bi > bj (store the transpose).
    std::vector<int> offdiag_slot_;
    std::vector<bool> transpose_;
    /// Per-contact contributions of the last pass: only closed contacts'
    /// slots are written, and read.
    mutable par::ScratchArray<ContactContribution> ccs_;
};

} // namespace gdda::assembly
