#include "solver/pcg.hpp"

#include <cmath>

#include "par/deterministic_reduce.hpp"
#include "solver/vector_ops.hpp"
#include "trace/tracer.hpp"

namespace gdda::solver {

using sparse::BlockVec;
using sparse::HsbcsrMatrix;

namespace {

// Warm-start screen: a vector of all (signed) zeros multiplies to an exact
// +0.0 per component (every slice accumulator starts at +0.0 and only adds
// ±0.0 terms), and b[i] - (+0.0) == b[i] bitwise for every double including
// -0.0. So when x == 0 the residual is b itself and the warm-start SpMV can
// be skipped without perturbing a single bit.
bool is_exactly_zero(const BlockVec& v) {
    for (const auto& blk : v)
        for (int k = 0; k < 6; ++k)
            if (blk[k] != 0.0) return false;
    return true;
}

// Fused x/r update: one pass computing x += alpha p, r -= alpha ap, and r.r.
// The element expressions are exactly sparse::axpy's (`x[i] += p[i] * alpha`,
// `r[i] += ap[i] * (-alpha)`) and the reduction uses the shared chunk
// partitioning, so the pass is bit-identical to the two axpys and the
// sparse::norm it stands for — only the memory traffic changes.
double fused_xr_update(double alpha, const BlockVec& p, const BlockVec& ap,
                       BlockVec& x, BlockVec& r) {
    return par::deterministic_reduce(r.size(), [&](std::size_t b, std::size_t e) {
        double s = 0.0;
        for (std::size_t i = b; i < e; ++i) {
            x[i] += p[i] * alpha;
            r[i] += ap[i] * (-alpha);
            s += r[i].dot(r[i]);
        }
        return s;
    });
}

} // namespace

PcgResult pcg(const HsbcsrMatrix& a, const BlockVec& b, BlockVec& x, const Preconditioner& m,
              const PcgOptions& opts, simt::KernelCost* cost, PcgWorkspace* caller_ws) {
    PcgWorkspace local;
    PcgWorkspace& w = caller_ws ? *caller_ws : local;
    const int n = a.n;
    w.r.resize(n);
    w.z.resize(n);
    w.p.resize(n);
    w.ap.resize(n);
    BlockVec& r = w.r;
    BlockVec& z = w.z;
    BlockVec& p = w.p;
    BlockVec& ap = w.ap;

    // r = b - A x (warm start). A cold start (x exactly zero) yields r = b
    // directly; the SpMV is skipped and charges nothing to the ledger.
    if (is_exactly_zero(x)) {
        r = b;
        if (cost) simt::record_skipped_kernel(cost, "spmv_hsbcsr");
    } else {
        sparse::spmv_hsbcsr(a, x, r, w.spmv, cost);
        for (int i = 0; i < n; ++i) r[i] = b[i] - r[i];
    }

    const double bnorm = sparse::norm(b);
    PcgResult res;
    if (bnorm == 0.0) {
        sparse::fill_zero(x);
        res.converged = true;
        if (opts.residual_log) opts.residual_log->push_back(0.0);
        return res;
    }

    double rz = m.apply_dot(r, z, cost);
    p = z;

    double rnorm = sparse::norm(r);
    if (opts.residual_log) opts.residual_log->push_back(rnorm / bnorm);
    for (int it = 0; it < opts.max_iters; ++it) {
        if (rnorm / bnorm < opts.rel_tol || rnorm < opts.abs_tol) {
            res.converged = true;
            break;
        }
        trace::Span iter_span(opts.tracer, trace::Category::PcgIteration, "pcg_iteration");
        sparse::spmv_hsbcsr(a, p, ap, w.spmv, cost);
        const double pap = sparse::dot(p, ap);
        if (pap <= 0.0) break; // matrix lost positive definiteness
        const double alpha = rz / pap;
        rnorm = std::sqrt(fused_xr_update(alpha, p, ap, x, r));
        const double rz_new = m.apply_dot(r, z, cost);
        const double beta = rz_new / rz;
        rz = rz_new;
        sparse::xpay(z, beta, p);
        if (opts.residual_log) opts.residual_log->push_back(rnorm / bnorm);
        ++res.iterations;
        if (cost) simt::record_kernel(cost, blas1_iteration_cost(a.n * 6ull));
    }
    res.final_residual = rnorm / bnorm;
    res.converged = res.converged || rnorm / bnorm < opts.rel_tol;
    return res;
}

PcgResult cg(const HsbcsrMatrix& a, const BlockVec& b, BlockVec& x, const PcgOptions& opts) {
    const auto ident = make_identity(a.n);
    return pcg(a, b, x, *ident, opts, nullptr);
}

} // namespace gdda::solver
