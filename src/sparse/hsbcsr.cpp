#include "sparse/hsbcsr.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "par/deterministic_reduce.hpp"
#include "par/parallel_for.hpp"

namespace gdda::sparse {

namespace {
int pad32(int x) { return (x + 31) / 32 * 32; }
} // namespace

HsbcsrMatrix hsbcsr_structure(const BsrMatrix& a) {
    HsbcsrMatrix h;
    h.n = a.n;
    h.m = a.nnz_blocks_upper();
    h.padded_n = pad32(std::max(h.n, 1));
    h.padded_m = pad32(std::max(h.m, 1));

    // Slice data allocated and zeroed; hsbcsr_refill writes the values.
    h.d_data.assign(static_cast<std::size_t>(h.padded_n) * 36, 0.0);
    h.nd_data_up.assign(static_cast<std::size_t>(h.padded_m) * 36, 0.0);
    h.upper_zero = true;

    // Upper non-diagonal blocks are already (row, col)-sorted in BSR order.
    h.rc.resize(h.m);
    h.row_up_i.assign(h.n, 0);
    {
        std::size_t p = 0;
        for (int i = 0; i < a.n; ++i) {
            for (int q = a.row_ptr[i]; q < a.row_ptr[i + 1]; ++q, ++p) {
                const int j = a.col_idx[q];
                h.rc[p] = (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint32_t>(j);
            }
            h.row_up_i[i] = static_cast<std::uint32_t>(p);
        }
        assert(static_cast<int>(p) == h.m);
    }

    // Lower-triangle ordering: upper entries (i, j) viewed as lower entries
    // (j, i), sorted by (j, i). Because the upper list is (i, j)-sorted, a
    // stable sort by j alone yields (j, i) order.
    std::vector<std::uint32_t> lower(h.m);
    std::iota(lower.begin(), lower.end(), 0u);
    std::stable_sort(lower.begin(), lower.end(), [&](std::uint32_t x, std::uint32_t y) {
        return h.col_of(x) < h.col_of(y);
    });
    h.row_low_p = lower;
    h.row_low_i.assign(h.n, 0);
    {
        std::size_t k = 0;
        for (int i = 0; i < h.n; ++i) {
            while (k < lower.size() && h.col_of(lower[k]) == static_cast<std::uint32_t>(i)) ++k;
            h.row_low_i[i] = static_cast<std::uint32_t>(k);
        }
    }
    return h;
}

void hsbcsr_refill(HsbcsrMatrix& h, const BsrMatrix& a, bool offdiag) {
    if (h.n != a.n || h.m != a.nnz_blocks_upper())
        throw std::invalid_argument("hsbcsr_refill: structure mismatch");

    // Every block is written to its own slice positions, so both loops run
    // in parallel with a result independent of the team size.
    const std::size_t dstride = static_cast<std::size_t>(h.padded_n) * 6;
    par::parallel_for(static_cast<std::size_t>(h.n), par::kDefaultGrain, [&](std::size_t b) {
        for (int r = 0; r < 6; ++r)
            for (int c = 0; c < 6; ++c) h.d_data[r * dstride + b * 6 + c] = a.diag[b](r, c);
    });

    // The structure build numbers the upper blocks in BSR order, so slice
    // position p is BSR value q = p; the index arrays are not touched.
    if (!offdiag) return;
    // The OR of every written bit pattern is 0 exactly when all are +0; OR
    // does not depend on the grouping.
    const std::size_t ndstride = static_cast<std::size_t>(h.padded_m) * 6;
    const std::uint64_t bits = par::exact_reduce<std::uint64_t>(
        static_cast<std::size_t>(h.m),
        [&](std::size_t p0, std::size_t p1) {
            std::uint64_t any = 0;
            for (std::size_t p = p0; p < p1; ++p)
                for (int r = 0; r < 6; ++r)
                    for (int c = 0; c < 6; ++c) {
                        const double v = a.vals[p](r, c);
                        h.nd_data_up[r * ndstride + p * 6 + c] = v;
                        any |= std::bit_cast<std::uint64_t>(v);
                    }
            return any;
        },
        [](std::uint64_t x, std::uint64_t y) { return x | y; });
    h.upper_zero = bits == 0;
}

HsbcsrMatrix hsbcsr_from_bsr(const BsrMatrix& a) {
    HsbcsrMatrix h = hsbcsr_structure(a);
    hsbcsr_refill(h, a);
    return h;
}

BsrMatrix bsr_from_hsbcsr(const HsbcsrMatrix& h) {
    BsrMatrix a;
    a.n = h.n;
    a.diag.resize(h.n);
    for (int b = 0; b < h.n; ++b)
        for (int r = 0; r < 6; ++r)
            for (int c = 0; c < 6; ++c) a.diag[b](r, c) = h.d_at(b, r, c);

    a.row_ptr.assign(h.n + 1, 0);
    a.col_idx.resize(h.m);
    a.vals.resize(h.m);
    for (int p = 0; p < h.m; ++p) {
        ++a.row_ptr[h.row_of(p) + 1];
        a.col_idx[p] = static_cast<int>(h.col_of(p));
        for (int r = 0; r < 6; ++r)
            for (int c = 0; c < 6; ++c) a.vals[p](r, c) = h.nd_at(p, r, c);
    }
    for (int i = 0; i < h.n; ++i) a.row_ptr[i + 1] += a.row_ptr[i];
    return a;
}

} // namespace gdda::sparse
