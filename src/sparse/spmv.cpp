#include "sparse/spmv.hpp"

#include <cassert>

#include "par/parallel_for.hpp"

namespace gdda::sparse {

namespace {
constexpr double kVec6Bytes = 6.0 * sizeof(double);
// Texture-cache gathers move 32-byte lines. An 8-byte scalar gather
// (CSR's per-element x access) therefore wastes ~4x raw, ~2x after cache
// reuse; a 48-byte block gather (HSBCSR's whole-Vec6 x access) wastes only
// ~1.15x. This granularity difference is the core of HSBCSR's win.
constexpr double kScalarGatherAmp = 2.0;
constexpr double kBlockGatherAmp = 1.15;

// Block rows per parallel grain: a row is a handful of 6x6 products, so a
// thread needs a batch of them before the dispatch pays off.
constexpr std::size_t kRowGrain = 64;
constexpr std::size_t kBlockGrain = 32;

// Slice-row micro-kernel: one contiguous 6-wide slice row against a Vec6.
// The accumulation order is the scalar loop's (ascending k, acc starts at
// +0.0), spelled out so the compiler keeps the association while still
// register-allocating everything.
inline double slice_row_dot(const double* row, const Vec6& x) {
    double acc = 0.0;
    acc += row[0] * x[0];
    acc += row[1] * x[1];
    acc += row[2] * x[2];
    acc += row[3] * x[3];
    acc += row[4] * x[4];
    acc += row[5] * x[5];
    return acc;
}

// low[k] += row[k] * s: element-wise across k, no carried dependency, so a
// fixed-width simd lowering cannot reorder any addition.
inline void slice_row_axpy(const double* row, double s, Vec6& low) {
#ifdef _OPENMP
#pragma omp simd
#endif
    for (int k = 0; k < 6; ++k) low[k] += row[k] * s;
}
}

void spmv_hsbcsr(const HsbcsrMatrix& a, const BlockVec& x, BlockVec& y,
                 HsbcsrWorkspace& ws, simt::KernelCost* cost) {
    assert(static_cast<int>(x.size()) == a.n && static_cast<int>(y.size()) == a.n);

    // Only live blocks are multiplied (HsbcsrMatrix::live): a dead block
    // adds exactly +0 to its rows for finite x, which leaves a stage-2
    // accumulator's bits unchanged. A matrix without a known list reads as
    // all-live: block p is entry q = p, and the stage-2 lists are the
    // structure's own. The kernel is priced whole either way.
    const bool known = a.live_known;
    const std::size_t blocks = a.live_count();
    const std::uint32_t* live = known ? a.live.data() : nullptr;
    const std::uint32_t* up_end = known ? a.live_up_i.data() : a.row_up_i.data();
    const std::uint32_t* low_q = known ? a.live_low_q.data() : a.row_low_p.data();
    const std::uint32_t* low_end = known ? a.live_low_i.data() : a.row_low_i.data();

    // Stage 1: per live block q at position p = (r, c):
    //   up_res[q]  = B_p   * x[c]   (contribution to block row r)
    //   low_res[q] = B_p^T * x[r]   (contribution to block row c)
    // Block data are read slice-by-slice (coalesced); x through texture.
    // Each q writes only its own workspace slots: data-parallel.
    ws.resize(blocks);
    par::parallel_for(blocks, kBlockGrain, [&](std::size_t q) {
        const std::size_t p = live ? live[q] : q;
        const std::uint32_t r = a.row_of(p);
        const std::uint32_t c = a.col_of(p);
        const Vec6& xu = x[c];
        const Vec6& xl = x[r];
        Vec6 up{};
        Vec6 low{};
        for (int s = 0; s < 6; ++s) {
            const double* row =
                &a.nd_data_up[static_cast<std::size_t>(s) * a.padded_m * 6 + p * 6];
            up[s] = slice_row_dot(row, xu);
            slice_row_axpy(row, xl[s], low); // transpose product in registers
        }
        ws.up_res[q] = up;
        ws.low_res[q] = low;
    });

    // Stage 2: row-wise reduction of up_res (regular/coalesced) and low_res
    // (gathered via the lower list through texture), plus the diagonal
    // product. Each block row writes only y[i] and reads the stage-1
    // results through read-only index arrays, so rows are conflict-free,
    // and the per-row accumulation order is the serial one — any team size
    // produces the same bits.
    par::parallel_for(static_cast<std::size_t>(a.n), kRowGrain, [&](std::size_t i) {
        Vec6 acc{};
        for (int s = 0; s < 6; ++s) {
            const double* drow = &a.d_data[static_cast<std::size_t>(s) * a.padded_n * 6 +
                                           static_cast<std::size_t>(i) * 6];
            acc[s] = slice_row_dot(drow, x[i]);
        }
        for (std::uint32_t q = i > 0 ? up_end[i - 1] : 0; q < up_end[i]; ++q)
            acc += ws.up_res[q];
        for (std::uint32_t t = i > 0 ? low_end[i - 1] : 0; t < low_end[i]; ++t)
            acc += ws.low_res[low_q[t]];
        y[i] = acc;
    });

    if (cost) {
        const double m = a.m;
        const double n = a.n;
        simt::KernelCost kc;
        kc.name = "spmv_hsbcsr";
        kc.flops = m * 144.0 + n * 72.0 + (2.0 * m + n) * 6.0;
        // Stage 1: nd slices + rc coalesced; x[c], x[r] via texture; results out.
        kc.bytes_coalesced = m * 36 * sizeof(double) + m * sizeof(std::uint64_t) +
                             2.0 * m * kVec6Bytes /* write up/low */;
        kc.bytes_texture = 2.0 * m * kVec6Bytes * kBlockGatherAmp;
        // Stage 2: up_res + d_data + x + y coalesced; low_res gather texture;
        // index arrays coalesced.
        kc.bytes_coalesced += m * kVec6Bytes + n * 36 * sizeof(double) + 2.0 * n * kVec6Bytes +
                              2.0 * n * sizeof(std::uint32_t) + m * sizeof(std::uint32_t);
        kc.bytes_texture += m * kVec6Bytes * kBlockGatherAmp;
        kc.depth = 24; // two dependent kernels, shared-memory tree reductions
        kc.branch_slots = (m + n) / 32.0;
        kc.divergent_slots = 0.02 * kc.branch_slots; // tail warps only
        kc.launches = 2;
        simt::record_kernel(cost, kc);
    }
}

void spmv_csr_scalar(const CsrMatrix& a, const std::vector<double>& x, std::vector<double>& y,
                     simt::KernelCost* cost) {
    csr_multiply(a, x, y);
    if (cost) {
        const double nnz = static_cast<double>(a.nnz());
        const double rows = static_cast<double>(a.rows);
        simt::KernelCost kc;
        kc.name = "spmv_csr_scalar";
        kc.flops = 2.0 * nnz;
        // Thread-per-row walks vals/cols with a per-thread stride: uncoalesced.
        kc.bytes_random = nnz * (sizeof(double) + sizeof(std::uint32_t)) + nnz * sizeof(double);
        kc.bytes_coalesced = rows * (2 * sizeof(std::uint32_t) + sizeof(double));
        kc.depth = 12;
        // Row-length imbalance produces divergent loop exits.
        kc.branch_slots = nnz / 32.0 + rows / 32.0;
        kc.divergent_slots = 0.35 * kc.branch_slots;
        simt::record_kernel(cost, kc);
    }
}

void spmv_csr_vector(const CsrMatrix& a, const std::vector<double>& x, std::vector<double>& y,
                     simt::KernelCost* cost) {
    csr_multiply(a, x, y);
    if (cost) {
        const double nnz = static_cast<double>(a.nnz());
        const double rows = static_cast<double>(a.rows);
        simt::KernelCost kc;
        kc.name = "spmv_csr_vector";
        kc.flops = 2.0 * nnz + rows * 5.0 /* warp reduction */;
        // Warp-per-row: vals/cols coalesced, x gathered through texture at
        // scalar (8-byte) granularity.
        kc.bytes_coalesced = nnz * (sizeof(double) + sizeof(std::uint32_t)) +
                             rows * (2 * sizeof(std::uint32_t) + sizeof(double));
        kc.bytes_texture = nnz * sizeof(double) * kScalarGatherAmp;
        kc.depth = 16;
        kc.branch_slots = nnz / 32.0 + rows;
        kc.divergent_slots = 0.10 * kc.branch_slots;
        simt::record_kernel(cost, kc);
    }
}

void spmv_bsr_full(const BsrMatrix& a, const BlockVec& x, BlockVec& y,
                   simt::KernelCost* cost) {
    a.multiply(x, y);
    if (cost) {
        // Conventional BCSR requires the *recovered* full block matrix:
        // every non-diagonal block is stored twice.
        const double blocks_full = a.n + 2.0 * a.nnz_blocks_upper();
        simt::KernelCost kc;
        kc.name = "spmv_bsr_full";
        kc.flops = blocks_full * 72.0 + blocks_full * 6.0;
        kc.bytes_coalesced = blocks_full * 36 * sizeof(double) +
                             blocks_full * sizeof(std::uint32_t) +
                             2.0 * a.n * kVec6Bytes;
        kc.bytes_texture = blocks_full * kVec6Bytes * kBlockGatherAmp;
        kc.depth = 16;
        kc.branch_slots = blocks_full / 32.0;
        kc.divergent_slots = 0.05 * kc.branch_slots;
        simt::record_kernel(cost, kc);
    }
}

} // namespace gdda::sparse
