#pragma once
// SpMV kernels for the DDA equation solver. Each kernel computes y = A x
// exactly (bitwise-deterministic CPU math) and, when a KernelCost sink is
// supplied, also records the analytic GPU trace (arithmetic, memory traffic
// by access class, dependency depth, launches) that the SIMT cost model
// converts into modeled device time. Kernels:
//
//   spmv_hsbcsr      the paper's two-stage half-matrix method (Figs. 8-9)
//   spmv_csr_scalar  thread-per-row scalar CSR (naive baseline)
//   spmv_csr_vector  warp-per-row scalar CSR (the "cuSPARSE-like" baseline
//                    of Fig. 10; x gathered through the texture cache)
//   spmv_bsr_full    block CSR over the *recovered full* matrix (the
//                    conventional approach HSBCSR avoids)

#include "simt/cost_model.hpp"
#include "sparse/csr.hpp"
#include "sparse/hsbcsr.hpp"

namespace gdda::sparse {

/// Scratch buffers for the two-stage HSBCSR kernel, reusable across calls.
struct HsbcsrWorkspace {
    std::vector<Vec6> up_res;
    std::vector<Vec6> low_res;
    void resize(std::size_t m) {
        up_res.resize(m);
        low_res.resize(m);
    }
};

void spmv_hsbcsr(const HsbcsrMatrix& a, const BlockVec& x, BlockVec& y,
                 HsbcsrWorkspace& ws, simt::KernelCost* cost = nullptr);

void spmv_csr_scalar(const CsrMatrix& a, const std::vector<double>& x, std::vector<double>& y,
                     simt::KernelCost* cost = nullptr);

void spmv_csr_vector(const CsrMatrix& a, const std::vector<double>& x, std::vector<double>& y,
                     simt::KernelCost* cost = nullptr);

/// Symmetric-expansion block SpMV over BSR with full-matrix traffic model.
void spmv_bsr_full(const BsrMatrix& a, const BlockVec& x, BlockVec& y,
                   simt::KernelCost* cost = nullptr);

} // namespace gdda::sparse
