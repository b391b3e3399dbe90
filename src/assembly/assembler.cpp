#include "assembly/assembler.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

#include "par/parallel_for.hpp"

namespace gdda::assembly {

ContactFingerprint contact_fingerprint(int n, std::span<const Contact> contacts) {
    ContactFingerprint fp;
    fp.n = n;
    fp.count = contacts.size();
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull; // FNV prime
    };
    for (const Contact& c : contacts) {
        mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.bi)) << 32) |
            static_cast<std::uint32_t>(c.bj));
        mix(static_cast<std::uint64_t>(c.kind));
    }
    fp.hash = h;
    return fp;
}

CategoryStats classify_categories(std::span<const Contact> contacts) {
    CategoryStats s;
    for (const Contact& c : contacts) {
        const bool vv2 = c.kind == contact::ContactKind::VV2;
        if (!vv2) {
            if (c.p1 != 0)
                ++s.c1;
            else if (c.p2 != 0)
                ++s.c2;
            else if (c.state != contact::ContactState::Open)
                ++s.c3;
            else
                ++s.abandoned;
        } else {
            if (c.p1 != 0)
                ++s.c4;
            else if (c.p2 != 0 || c.state != contact::ContactState::Open)
                ++s.c5;
            else
                ++s.abandoned;
        }
    }
    return s;
}

void record_diag_costs(simt::KernelCost* sink, int n, bool diag_hit) {
    const double nn = n;
    if (diag_hit) {
        // The physics kernel is replaced by a straight copy of the cached
        // blocks and loads.
        simt::KernelCost kc;
        kc.name = "diag_copy";
        kc.bytes_coalesced = 2.0 * nn * (36 + 6) * sizeof(double);
        kc.depth = 2;
        kc.launches = 1;
        simt::record_kernel(sink, kc);
        simt::record_skipped_kernel(sink, "diag_build");
    } else {
        simt::KernelCost kc;
        kc.name = "diag_build";
        // Mass moments, elasticity, fixed springs: one uniform kernel.
        kc.flops = nn * 700.0;
        kc.bytes_coalesced = nn * (36 + 6 + 16) * sizeof(double);
        kc.bytes_texture = nn * 8.0 * sizeof(double); // vertex walks
        kc.depth = 10;
        kc.branch_slots = nn / 4.0;
        kc.divergent_slots = 0.06 * kc.branch_slots;
        kc.launches = 2;
        simt::record_kernel(sink, kc);
    }
}

void record_nondiag_costs(simt::KernelCost* sink, int n, std::size_t contacts, bool warm) {
    const double nn = n;
    const double m = static_cast<double>(contacts);
    const double e = 3.0 * m + nn; // emitted entries: a diagonal per block, 3 per contact
    if (warm) {
        simt::KernelCost kc;
        kc.name = "nondiag_refill";
        // Contribution kernel + segmented gather-sum through the cached
        // permutation; the 8 radix passes and the scan are structural and
        // were skipped.
        kc.flops = m * 500.0 + e * 36.0;
        kc.bytes_coalesced = e * 36 * sizeof(double); // write D
        kc.bytes_random = e * 36 * sizeof(double);    // gather via perm
        kc.depth = 14;
        kc.branch_slots = e;
        kc.divergent_slots = 0.22 * e; // ragged segments
        kc.launches = 2;
        simt::record_kernel(sink, kc);
        simt::record_skipped_kernel(sink, "nondiag_sort_scan");
    } else {
        simt::KernelCost kc;
        kc.name = "nondiag_build";
        // Contribution kernel (4 outer products) + 8 radix passes on the
        // keys + scan + segmented gather-sum moving each Mat6 twice.
        kc.flops = m * 500.0 + e * 40.0;
        kc.bytes_coalesced = e * (sizeof(std::uint64_t) + 4) * 8.0 /* sort passes */ +
                             e * sizeof(std::uint32_t) * 4.0 /* scan/ends */ +
                             e * 36 * sizeof(double) /* write D */;
        // Final assembly gathers sub-matrices through the permutation.
        kc.bytes_random = e * 36 * sizeof(double);
        kc.depth = 8.0 * 14.0; // sort passes each have scan depth
        kc.branch_slots = e;
        kc.divergent_slots = 0.22 * e; // ragged segments
        kc.launches = 30;
        simt::record_kernel(sink, kc);
    }
}

AssembledSystem assemble_serial(const BlockSystem& sys, const BlockAttachments& att,
                                std::span<const Contact> contacts,
                                std::span<const ContactGeometry> geo,
                                const StepParams& sp) {
    assert(contacts.size() == geo.size());
    const int n = static_cast<int>(sys.size());

    std::vector<int> rows;
    std::vector<int> cols;
    std::vector<Mat6> blocks;
    rows.reserve(n + contacts.size() * 3);
    cols.reserve(rows.capacity());
    blocks.reserve(rows.capacity());

    AssembledSystem out;
    out.f.assign(n, Vec6{});

    for (int i = 0; i < n; ++i) {
        Mat6 k;
        Vec6 f;
        block_diagonal(sys, att, i, sp, k, f);
        rows.push_back(i);
        cols.push_back(i);
        blocks.push_back(k);
        out.f[i] += f;
    }

    for (std::size_t c = 0; c < contacts.size(); ++c) {
        const Contact& ct = contacts[c];
        const ContactContribution cc = contact_contribution(sys, ct, geo[c], sp.contact);
        // Claim the slots even when inactive (zero blocks keep structure).
        rows.push_back(ct.bi);
        cols.push_back(ct.bi);
        blocks.push_back(cc.kii);
        rows.push_back(ct.bj);
        cols.push_back(ct.bj);
        blocks.push_back(cc.kjj);
        if (ct.bi < ct.bj) {
            rows.push_back(ct.bi);
            cols.push_back(ct.bj);
            blocks.push_back(cc.kij);
        } else {
            rows.push_back(ct.bj);
            cols.push_back(ct.bi);
            blocks.push_back(cc.kij.transposed());
        }
        if (cc.active) {
            out.f[ct.bi] += cc.fi;
            out.f[ct.bj] += cc.fj;
        }
    }

    out.k = sparse::bsr_from_coo(n, rows, cols, blocks);
    return out;
}

AssemblyPlan::AssemblyPlan(int n, std::span<const Contact> contacts) : n_(n) {
    // Unique sorted (row, col) pairs of the off-diagonal slots.
    std::vector<std::uint64_t> keys;
    keys.reserve(contacts.size());
    for (const Contact& c : contacts) {
        const int r = std::min(c.bi, c.bj);
        const int cc = std::max(c.bi, c.bj);
        if (r != cc)
            keys.push_back((static_cast<std::uint64_t>(r) << 32) |
                           static_cast<std::uint32_t>(cc));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    row_ptr_.assign(n + 1, 0);
    col_idx_.resize(keys.size());
    for (std::size_t p = 0; p < keys.size(); ++p) {
        ++row_ptr_[(keys[p] >> 32) + 1];
        col_idx_[p] = static_cast<int>(keys[p] & 0xffffffffu);
    }
    for (int i = 0; i < n; ++i) row_ptr_[i + 1] += row_ptr_[i];

    offdiag_slot_.reserve(contacts.size());
    transpose_.reserve(contacts.size());
    for (const Contact& c : contacts) {
        const int r = std::min(c.bi, c.bj);
        const int cc = std::max(c.bi, c.bj);
        if (r == cc) {
            offdiag_slot_.push_back(-1);
            transpose_.push_back(false);
            continue;
        }
        const std::uint64_t key =
            (static_cast<std::uint64_t>(r) << 32) | static_cast<std::uint32_t>(cc);
        const auto it = std::lower_bound(keys.begin(), keys.end(), key);
        offdiag_slot_.push_back(static_cast<int>(it - keys.begin()));
        transpose_.push_back(c.bi > c.bj);
    }
}

void assemble_diagonal(AssembledSystem& out, const BlockSystem& sys,
                       const BlockAttachments& att, const StepParams& sp,
                       DiagPhysicsCache* diag_cache) {
    const std::size_t n = sys.size();
    // block_diagonal and the cache copy below assign every diagonal block.
    out.k.diag.resize(n);
    out.f.assign(n, Vec6{});
    // Every index writes only its own diag/f rows, so the loop runs under
    // parallel_for with no ordering concern.
    if (diag_cache && diag_cache->valid) {
        par::parallel_for(n, par::kDefaultGrain, [&](std::size_t i) {
            out.k.diag[i] = diag_cache->k[i];
            out.f[i] = diag_cache->f[i];
        });
        return;
    }
    par::parallel_for(n, 64, [&](std::size_t i) {
        Vec6 f;
        block_diagonal(sys, att, static_cast<int>(i), sp, out.k.diag[i], f);
        out.f[i] += f;
    });
    if (diag_cache) {
        diag_cache->k.assign(out.k.diag.begin(), out.k.diag.end());
        diag_cache->f = out.f;
        diag_cache->valid = true;
    }
}

AssembledSystem AssemblyPlan::assemble(const BlockSystem& sys, const BlockAttachments& att,
                                       std::span<const Contact> contacts,
                                       std::span<const ContactGeometry> geo,
                                       const StepParams& sp) const {
    AssembledSystem out;
    assemble_diagonal(out, sys, att, sp);
    assemble_contacts(out, sys, contacts, geo, sp);
    return out;
}

bool AssemblyPlan::assemble_contacts(AssembledSystem& out, const BlockSystem& sys,
                                     std::span<const Contact> contacts,
                                     std::span<const ContactGeometry> geo, const StepParams& sp,
                                     DiagPhysicsCache* diag_cache, bool offdiag_vals_zero) const {
    assert(static_cast<int>(sys.size()) == n_ && contacts.size() == offdiag_slot_.size());
    assert(out.k.diag.size() == static_cast<std::size_t>(n_) && out.f.size() == out.k.diag.size());
    out.k.n = n_;
    out.k.row_ptr = row_ptr_;
    out.k.col_idx = col_idx_;
    // Only the off-diagonal values (summed into) need a zero fill, and not
    // even that when the caller knows they are all +0 already.
    if (!offdiag_vals_zero || out.k.vals.size() != col_idx_.size())
        out.k.vals.assign(col_idx_.size(), Mat6{});

    // Per-contact submatrices (the expensive physics) in parallel into a
    // scratch array — each index owns its memo entry and its slot of the
    // array. Open contacts contribute nothing, so they compute, store and
    // recall nothing either. The SCATTER stays serial and in contact order:
    // the += sums below are order-sensitive floating-point, and running
    // them in the fixed serial order is what keeps the result bitwise
    // identical for any team size.
    if (diag_cache) diag_cache->begin_memo_pass(contacts.size());
    ccs_.reset(contacts.size());
    // Whether any contact is closed at all: an all-open list has nothing
    // to scatter.
    std::atomic<bool> any_closed{false};
    par::parallel_for(contacts.size(), 64, [&](std::size_t c) {
        const Contact& ct = contacts[c];
        if (ct.state == contact::ContactState::Open) return;
        if (!any_closed.load()) any_closed.store(true);
        ContactContribution& cc = ccs_[c];
        if (diag_cache) {
            if (const ContactContribution* hit = diag_cache->recall(c, ct, geo[c])) {
                cc = *hit;
                return;
            }
        }
        cc = contact_contribution(sys, ct, geo[c], sp.contact);
        if (diag_cache) diag_cache->store(c, ct, geo[c], cc);
    });
    bool placed = false;
    const std::size_t scattered = any_closed.load() ? contacts.size() : 0;
    for (std::size_t c = 0; c < scattered; ++c) {
        const Contact& ct = contacts[c];
        if (ct.state == contact::ContactState::Open) continue;
        const ContactContribution& cc = ccs_[c];
        out.k.diag[ct.bi] += cc.kii;
        out.k.diag[ct.bj] += cc.kjj;
        const int slot = offdiag_slot_[c];
        if (slot >= 0) {
            placed = true;
            if (transpose_[c]) {
                out.k.vals[slot] += cc.kij.transposed();
            } else {
                out.k.vals[slot] += cc.kij;
            }
        }
        out.f[ct.bi] += cc.fi;
        out.f[ct.bj] += cc.fj;
    }
    return placed;
}

} // namespace gdda::assembly
