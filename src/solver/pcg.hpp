#pragma once
// Preconditioned conjugate gradient solver over the block system K d = F.
// The matrix is consumed in HSBCSR form (the GPU-resident format). An
// iteration is one SpMV, one preconditioner apply that also yields dot(r,z),
// and three BLAS-1 kernels (dot(p,ap) | fused x,r update producing r.r |
// xpay) — about 3 full-vector memory passes where the textbook formulation
// needs ~7. The fusion changes memory traffic only: x, the iteration count
// and the residual curve are bit-identical to the textbook five-kernel loop
// (tests/test_solve_threads.cpp keeps one as the reference). The iteration
// is accounted into the analytic GPU trace on request.
//
// DDA-specific behavior from the paper:
//  * the previous step's solution warm-starts the iteration (section IV.A),
//  * if convergence is not reached within `max_iters` (DDA uses 200), the
//    caller shrinks the physical time step and rebuilds the system.

#include <functional>
#include <vector>

#include "simt/cost_model.hpp"
#include "solver/preconditioner.hpp"
#include "sparse/spmv.hpp"

namespace gdda::trace {
class Tracer;
}

namespace gdda::solver {

struct PcgOptions {
    int max_iters = 200;
    double rel_tol = 1e-10;  ///< on the preconditioned residual norm
    double abs_tol = 1e-300;
    /// When set, the relative residual |r|/|b| is appended once on entry and
    /// once per iteration — the convergence curve telemetry records.
    std::vector<double>* residual_log = nullptr;
    /// When set, each PCG iteration runs inside a trace::Span (category
    /// pcg_iteration). Engines wire this from TraceConfig::pcg_iteration_spans.
    trace::Tracer* tracer = nullptr;
};

struct PcgResult {
    int iterations = 0;
    double final_residual = 0.0; ///< |r| / |b|
    bool converged = false;
};

/// Caller-owned scratch for pcg(): the residual/direction vectors and the
/// two-stage SpMV workspace. Reusing one across calls removes the BlockVec
/// allocations plus the HSBCSR scatter buffers from every solve; contents
/// are fully overwritten, so reuse never changes results.
struct PcgWorkspace {
    sparse::BlockVec r, z, p, ap;
    sparse::HsbcsrWorkspace spmv;
};

/// Solve A x = b; x holds the warm-start on entry and the solution on exit.
/// `ws` optionally provides reusable scratch; when null a local workspace is
/// allocated (bitwise-identical results either way).
PcgResult pcg(const sparse::HsbcsrMatrix& a, const sparse::BlockVec& b, sparse::BlockVec& x,
              const Preconditioner& m, const PcgOptions& opts = {},
              simt::KernelCost* cost = nullptr, PcgWorkspace* ws = nullptr);

/// Plain CG (identity preconditioner), for tests.
PcgResult cg(const sparse::HsbcsrMatrix& a, const sparse::BlockVec& b, sparse::BlockVec& x,
             const PcgOptions& opts = {});

} // namespace gdda::solver
