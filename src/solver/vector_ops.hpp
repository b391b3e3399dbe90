#pragma once
// Scalar-vector helpers shared by the ILU preconditioner and tests, plus the
// analytic GPU cost of the BLAS-1 kernels inside a PCG iteration.

#include <vector>

#include "simt/cost_model.hpp"

namespace gdda::solver {

double dot(const std::vector<double>& a, const std::vector<double>& b);
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);
double norm2(const std::vector<double>& a);

/// Cost of the BLAS-1 work of one PCG iteration on a system of `dim` scalars:
/// dot(p,ap) | x,r update producing r.r | xpay, with dot(r,z) folded into
/// the preconditioner apply — 3 launches and ~8 dim memory passes.
simt::KernelCost blas1_iteration_cost(std::size_t dim);

} // namespace gdda::solver
