#include "solver/vector_ops.hpp"

#include <cassert>
#include <cmath>

#include "par/deterministic_reduce.hpp"
#include "par/parallel_for.hpp"

namespace gdda::solver {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
    assert(a.size() == b.size());
    return par::deterministic_reduce(a.size(), [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i) s += a[i] * b[i];
        return s;
    });
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
    assert(x.size() == y.size());
    par::parallel_for(x.size(), 4 * par::kDefaultGrain,
                      [&](std::size_t i) { y[i] += alpha * x[i]; });
}

double norm2(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

simt::KernelCost blas1_iteration_cost(std::size_t dim) {
    simt::KernelCost kc;
    const double d = static_cast<double>(dim);
    // Fused layout (solver/pcg.cpp): dot(p,ap) | x,r update + r.r | xpay,
    // with dot(r,z) riding the preconditioner-apply pass for free.
    kc.name = "pcg_blas1_fused";
    kc.flops = 2.0 * d * 5.0; // 3 axpy + 2 dot
    kc.bytes_coalesced = d * sizeof(double) * 8.0; // 2 + (4r/2w overlap) + 3
    kc.depth = 2 * 12; // two tree reductions (p.ap and r.r)
    kc.launches = 3;
    return kc;
}

} // namespace gdda::solver
