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

// Block rows per parallel grain in the live-list passes: a row holds a
// handful of blocks, so a thread needs a batch of rows.
constexpr std::size_t kRowGrain = 64;
// Marks a dead block in live_q while the live list is being built.
constexpr std::uint32_t kDead = 0xffffffffu;
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
    // Zeroed slices hold no live block. The list buffers are sized for
    // every block once, so refills never allocate.
    h.live_known = true;
    h.live.reserve(h.m);
    h.live_q.assign(h.m, kDead);
    h.live_up_i.assign(h.n, 0);
    h.live_low_q.reserve(h.m);
    h.live_low_i.assign(h.n, 0);

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
    // Pass over the written bits: a block is live when the OR of its 36
    // bit patterns is non-zero, i.e. some value is not +0. live_q holds 0
    // for a live block and kDead for a dead one until its q is known.
    const std::size_t ndstride = static_cast<std::size_t>(h.padded_m) * 6;
    h.live_q.resize(h.m);
    h.live_up_i.resize(h.n);
    h.live_low_i.resize(h.n);
    const std::size_t count = par::exact_reduce<std::size_t>(
        static_cast<std::size_t>(h.m),
        [&](std::size_t p0, std::size_t p1) {
            std::size_t live = 0;
            for (std::size_t p = p0; p < p1; ++p) {
                std::uint64_t any = 0;
                for (int r = 0; r < 6; ++r)
                    for (int c = 0; c < 6; ++c) {
                        const double v = a.vals[p](r, c);
                        h.nd_data_up[r * ndstride + p * 6 + c] = v;
                        any |= std::bit_cast<std::uint64_t>(v);
                    }
                h.live_q[p] = any != 0 ? 0 : kDead;
                live += any != 0;
            }
            return live;
        },
        [](std::size_t x, std::size_t y) { return x + y; });

    h.live_known = true;
    h.live.resize(count);
    // Every block appears once in the lower ordering, so the lower list is
    // as long as the live list.
    h.live_low_q.resize(count);
    // An all-dead refill (an all-open scene's cold pass) skips the row
    // passes below.
    if (count == 0) {
        std::fill(h.live_up_i.begin(), h.live_up_i.end(), 0u);
        std::fill(h.live_low_i.begin(), h.live_low_i.end(), 0u);
        return;
    }
    const std::size_t rows = static_cast<std::size_t>(h.n);
    auto up_begin = [&](std::size_t i) { return i > 0 ? h.row_up_i[i - 1] : 0u; };
    auto low_begin = [&](std::size_t i) { return i > 0 ? h.row_low_i[i - 1] : 0u; };
    // Per-row live counts, scanned into end offsets. Row i owns its upper
    // positions, so the list stays in ascending p, and its lower entries
    // keep their row_low_p order.
    par::parallel_for(rows, kRowGrain, [&](std::size_t i) {
        std::uint32_t up = 0;
        for (std::uint32_t p = up_begin(i); p < h.row_up_i[i]; ++p) up += h.live_q[p] != kDead;
        std::uint32_t low = 0;
        for (std::uint32_t k = low_begin(i); k < h.row_low_i[i]; ++k)
            low += h.live_q[h.row_low_p[k]] != kDead;
        h.live_up_i[i] = up;
        h.live_low_i[i] = low;
    });
    std::partial_sum(h.live_up_i.begin(), h.live_up_i.end(), h.live_up_i.begin());
    std::partial_sum(h.live_low_i.begin(), h.live_low_i.end(), h.live_low_i.begin());
    par::parallel_for(rows, kRowGrain, [&](std::size_t i) {
        std::uint32_t q = i > 0 ? h.live_up_i[i - 1] : 0;
        for (std::uint32_t p = up_begin(i); p < h.row_up_i[i]; ++p) {
            if (h.live_q[p] == kDead) continue;
            h.live[q] = p;
            h.live_q[p] = q++;
        }
    });
    // The lower entries read q of blocks in other rows: a second pass.
    par::parallel_for(rows, kRowGrain, [&](std::size_t i) {
        std::uint32_t t = i > 0 ? h.live_low_i[i - 1] : 0;
        for (std::uint32_t k = low_begin(i); k < h.row_low_i[i]; ++k) {
            const std::uint32_t q = h.live_q[h.row_low_p[k]];
            if (q != kDead) h.live_low_q[t++] = q;
        }
    });
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
