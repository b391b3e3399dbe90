#include "sparse/ell.hpp"

#include <algorithm>
#include <cassert>

#include "par/parallel_for.hpp"

namespace gdda::sparse {

EllMatrix ell_from_csr(const CsrMatrix& a) {
    EllMatrix e;
    e.rows = a.rows;
    for (std::size_t r = 0; r < a.rows; ++r)
        e.width = std::max<std::size_t>(e.width, a.row_ptr[r + 1] - a.row_ptr[r]);
    e.cols.assign(e.rows * e.width, 0);
    e.vals.assign(e.rows * e.width, 0.0);
    for (std::size_t r = 0; r < a.rows; ++r) {
        std::size_t k = 0;
        for (std::uint32_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p, ++k) {
            e.cols[k * e.rows + r] = a.cols[p];
            e.vals[k * e.rows + r] = a.vals[p];
        }
        // Pad with the row's own index so gathers stay in-bounds.
        for (; k < e.width; ++k) e.cols[k * e.rows + r] = static_cast<std::uint32_t>(r);
    }
    return e;
}

SlicedEllMatrix sliced_ell_from_csr(const CsrMatrix& a, std::size_t slice_height) {
    SlicedEllMatrix s;
    s.rows = a.rows;
    s.slice_height = slice_height;
    const std::size_t slices = (a.rows + slice_height - 1) / slice_height;
    s.slice_width.resize(slices);
    s.slice_ptr.resize(slices + 1, 0);
    for (std::size_t sl = 0; sl < slices; ++sl) {
        std::size_t w = 0;
        const std::size_t r0 = sl * slice_height;
        const std::size_t r1 = std::min(r0 + slice_height, a.rows);
        for (std::size_t r = r0; r < r1; ++r)
            w = std::max<std::size_t>(w, a.row_ptr[r + 1] - a.row_ptr[r]);
        s.slice_width[sl] = w;
        s.slice_ptr[sl + 1] = s.slice_ptr[sl] + w * slice_height;
    }
    s.cols.assign(s.slice_ptr.back(), 0);
    s.vals.assign(s.slice_ptr.back(), 0.0);
    for (std::size_t sl = 0; sl < slices; ++sl) {
        const std::size_t r0 = sl * slice_height;
        const std::size_t r1 = std::min(r0 + slice_height, a.rows);
        const std::size_t base = s.slice_ptr[sl];
        for (std::size_t r = r0; r < r1; ++r) {
            const std::size_t lane = r - r0;
            std::size_t k = 0;
            for (std::uint32_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p, ++k) {
                s.cols[base + k * slice_height + lane] = a.cols[p];
                s.vals[base + k * slice_height + lane] = a.vals[p];
            }
            for (; k < s.slice_width[sl]; ++k)
                s.cols[base + k * slice_height + lane] = static_cast<std::uint32_t>(r);
        }
    }
    return s;
}

SortedSellMatrix sorted_sell_from_csr(const CsrMatrix& a, std::size_t slice_height) {
    SortedSellMatrix s;
    s.rows = a.rows;
    s.slice_height = slice_height;

    // Stable descending-length sort: ties keep original row order, so the
    // permutation is a pure function of the row-length profile — rebuilding
    // from a structurally identical matrix reproduces it bit-for-bit.
    s.perm.resize(a.rows);
    for (std::size_t r = 0; r < a.rows; ++r) s.perm[r] = static_cast<std::uint32_t>(r);
    std::stable_sort(s.perm.begin(), s.perm.end(), [&](std::uint32_t x, std::uint32_t y) {
        return a.row_ptr[x + 1] - a.row_ptr[x] > a.row_ptr[y + 1] - a.row_ptr[y];
    });
    s.inv_perm.resize(a.rows);
    for (std::size_t p = 0; p < a.rows; ++p) s.inv_perm[s.perm[p]] = static_cast<std::uint32_t>(p);

    const std::size_t slices = a.rows ? (a.rows + slice_height - 1) / slice_height : 0;
    s.slice_width.resize(slices);
    s.slice_ptr.resize(slices + 1, 0);
    for (std::size_t sl = 0; sl < slices; ++sl) {
        // Descending order: the first row of the slice is the widest.
        const std::size_t head = s.perm[sl * slice_height];
        s.slice_width[sl] = a.row_ptr[head + 1] - a.row_ptr[head];
        s.slice_ptr[sl + 1] = s.slice_ptr[sl] + s.slice_width[sl] * slice_height;
    }
    s.cols.assign(s.slice_ptr.empty() ? 0 : s.slice_ptr.back(), 0);
    s.vals.assign(s.cols.size(), 0.0);
    for (std::size_t sl = 0; sl < slices; ++sl) {
        const std::size_t r0 = sl * slice_height;
        const std::size_t r1 = std::min(r0 + slice_height, a.rows);
        const std::size_t base = s.slice_ptr[sl];
        for (std::size_t rs = r0; rs < r1; ++rs) {
            const std::size_t lane = rs - r0;
            const std::size_t orig = s.perm[rs];
            std::size_t k = 0;
            for (std::uint32_t p = a.row_ptr[orig]; p < a.row_ptr[orig + 1]; ++p, ++k) {
                s.cols[base + k * slice_height + lane] = a.cols[p];
                s.vals[base + k * slice_height + lane] = a.vals[p];
            }
            // Padded lanes: value stays exact +0.0, gather the row's own
            // original index so x reads stay in-bounds.
            for (; k < s.slice_width[sl]; ++k)
                s.cols[base + k * slice_height + lane] = static_cast<std::uint32_t>(orig);
        }
    }
    return s;
}

void spmv_ell(const EllMatrix& a, const std::vector<double>& x, std::vector<double>& y,
              simt::KernelCost* cost) {
    assert(x.size() == a.rows && y.size() == a.rows);
    for (std::size_t r = 0; r < a.rows; ++r) {
        double acc = 0.0;
        for (std::size_t k = 0; k < a.width; ++k)
            acc += a.vals[k * a.rows + r] * x[a.cols[k * a.rows + r]];
        y[r] = acc;
    }
    if (cost) {
        const double pnnz = static_cast<double>(a.padded_nnz());
        simt::KernelCost kc;
        kc.name = "spmv_ell";
        kc.flops = 2.0 * pnnz; // zero-fill is computed too
        kc.bytes_coalesced = pnnz * (sizeof(double) + sizeof(std::uint32_t)) +
                             a.rows * sizeof(double);
        kc.bytes_texture = pnnz * sizeof(double) * 2.0; // scalar gathers
        kc.depth = 10;
        // Column-major walk: lanes exit together only if widths agree, but
        // classic ELL runs the full width everywhere -> no divergence, just
        // wasted flops/bandwidth.
        kc.branch_slots = a.rows / 32.0;
        kc.divergent_slots = 0.0;
        simt::record_kernel(cost, kc);
    }
}

void spmv_sliced_ell(const SlicedEllMatrix& a, const std::vector<double>& x,
                     std::vector<double>& y, simt::KernelCost* cost) {
    assert(x.size() == a.rows && y.size() == a.rows);
    const std::size_t slices = a.slice_width.size();
    for (std::size_t sl = 0; sl < slices; ++sl) {
        const std::size_t r0 = sl * a.slice_height;
        const std::size_t r1 = std::min(r0 + a.slice_height, a.rows);
        const std::size_t base = a.slice_ptr[sl];
        for (std::size_t r = r0; r < r1; ++r) {
            const std::size_t lane = r - r0;
            double acc = 0.0;
            for (std::size_t k = 0; k < a.slice_width[sl]; ++k)
                acc += a.vals[base + k * a.slice_height + lane] *
                       x[a.cols[base + k * a.slice_height + lane]];
            y[r] = acc;
        }
    }
    if (cost) {
        const double pnnz = static_cast<double>(a.padded_nnz());
        simt::KernelCost kc;
        kc.name = "spmv_sliced_ell";
        kc.flops = 2.0 * pnnz;
        kc.bytes_coalesced = pnnz * (sizeof(double) + sizeof(std::uint32_t)) +
                             a.rows * sizeof(double) +
                             a.slice_width.size() * 2 * sizeof(std::uint64_t);
        kc.bytes_texture = pnnz * sizeof(double) * 2.0;
        kc.depth = 10;
        kc.branch_slots = a.rows / 32.0;
        kc.divergent_slots = 0.0;
        simt::record_kernel(cost, kc);
    }
}

void spmv_sorted_sell(const SortedSellMatrix& a, const std::vector<double>& x,
                      std::vector<double>& y, simt::KernelCost* cost) {
    assert(x.size() == a.rows && y.size() == a.rows);
    const std::size_t slices = a.slice_width.size();
    // One parallel item per slice (a warp's worth of rows). Every original
    // row appears in exactly one slice, so writes are disjoint, and each
    // row's accumulation order is its fixed CSR order — any team size
    // produces identical bits.
    par::parallel_for(slices, /*grain=*/4, [&](std::size_t sl) {
        const std::size_t r0 = sl * a.slice_height;
        const std::size_t r1 = std::min(r0 + a.slice_height, a.rows);
        const std::size_t base = a.slice_ptr[sl];
        for (std::size_t rs = r0; rs < r1; ++rs) {
            const std::size_t lane = rs - r0;
            double acc = 0.0;
            for (std::size_t k = 0; k < a.slice_width[sl]; ++k)
                acc += a.vals[base + k * a.slice_height + lane] *
                       x[a.cols[base + k * a.slice_height + lane]];
            y[a.perm[rs]] = acc;
        }
    });
    if (cost) {
        const double pnnz = static_cast<double>(a.padded_nnz());
        simt::KernelCost kc;
        kc.name = "spmv_sell_sorted";
        kc.flops = 2.0 * pnnz;
        // Sorted slices: vals/cols stream coalesced, slice headers amortized;
        // the result scatter goes back through perm (one uncoalesced store
        // per row), which is the price of hiding the permutation.
        kc.bytes_coalesced = pnnz * (sizeof(double) + sizeof(std::uint32_t)) +
                             a.rows * sizeof(std::uint32_t) +
                             a.slice_width.size() * 2 * sizeof(std::uint64_t);
        kc.bytes_random = a.rows * sizeof(double);
        kc.bytes_texture = pnnz * sizeof(double) * 2.0;
        kc.depth = 10;
        // Near-uniform row lengths inside a slice: lanes exit together except
        // in the ragged tail, so divergence is marginal by construction.
        kc.branch_slots = a.rows / 32.0;
        kc.divergent_slots = 0.01 * kc.branch_slots;
        simt::record_kernel(cost, kc);
    }
}

} // namespace gdda::sparse
