#pragma once
// Scalar ILU(0) factorization and level-scheduled sparse triangular solves
// (TSS) — the cuSPARSE-style preconditioner of the paper's comparison. The
// factorization keeps the CSR sparsity pattern of the full matrix; each
// apply performs L z' = r (unit lower) then U z = z'.
//
// On the GPU, csrsv parallelism is limited to the rows inside one dependency
// level, so modeled time grows with the level count — this is what makes TSS
// ~11x the cost of SpMV in Fig. 10 and disqualifies ILU despite its superior
// convergence rate.

#include <memory>
#include <vector>

#include "simt/cost_model.hpp"
#include "solver/preconditioner.hpp"
#include "sparse/csr.hpp"

namespace gdda::solver {

class Ilu0 {
public:
    /// Factor the full scalar expansion of `a`. Throws on zero pivot.
    explicit Ilu0(const sparse::BsrMatrix& a);

    /// Re-factor against new values of `a`. When the scalar sparsity pattern
    /// (which depends on exact zeros inside the 6x6 blocks) matches the
    /// cached one, only the numeric elimination is redone — the diagonal
    /// positions and level schedule are reused — and true is returned.
    /// Otherwise the full symbolic build runs again and false is returned.
    /// Either way the factors are bitwise identical to constructing fresh.
    bool refactor(const sparse::BsrMatrix& a);

    /// Solve L U z = r (two triangular solves), scalar vectors of size dim().
    void solve(const std::vector<double>& r, std::vector<double>& z) const;

    [[nodiscard]] std::size_t dim() const { return lu_.rows; }
    [[nodiscard]] const sparse::CsrMatrix& factors() const { return lu_; }

    /// Dependency level counts of the lower/upper solves (level scheduling).
    [[nodiscard]] int lower_levels() const { return lower_levels_; }
    [[nodiscard]] int upper_levels() const { return upper_levels_; }

    /// Analytic GPU cost of one L-then-U solve pair.
    [[nodiscard]] simt::KernelCost tss_cost() const;
    /// Analytic GPU cost of the factorization (level-scheduled csrilu0).
    [[nodiscard]] const simt::KernelCost& factor_cost() const { return factor_cost_; }

private:
    void scan_diag();
    void factor_numeric();
    void compute_levels();
    void set_factor_cost();

    sparse::CsrMatrix lu_;             ///< combined factors, unit diagonal of L implicit
    std::vector<std::uint32_t> diag_;  ///< position of the diagonal in each row
    int lower_levels_ = 0;
    int upper_levels_ = 0;
    simt::KernelCost factor_cost_;
    std::vector<std::int64_t> pos_;    ///< per-row column map scratch (reused)
    mutable std::vector<double> tmp_;
};

/// Preconditioner adapter owning an Ilu0.
std::unique_ptr<Preconditioner> make_ilu0_from(std::shared_ptr<Ilu0> ilu);

} // namespace gdda::solver
