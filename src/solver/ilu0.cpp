#include "solver/ilu0.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace gdda::solver {

using sparse::BlockVec;
using sparse::BsrMatrix;
using sparse::CsrMatrix;

Ilu0::Ilu0(const BsrMatrix& a) {
    // Dense 6x6 blocks carry structural zeros; drop exact zeros so the ILU
    // pattern matches the true scalar sparsity.
    lu_ = csr_from_bsr_full(a, 0.0);
    scan_diag();
    factor_numeric();
    compute_levels();
    set_factor_cost();
}

bool Ilu0::refactor(const BsrMatrix& a) {
    CsrMatrix fresh = csr_from_bsr_full(a, 0.0);
    const bool same_pattern =
        fresh.rows == lu_.rows && fresh.row_ptr == lu_.row_ptr && fresh.cols == lu_.cols;
    lu_ = std::move(fresh);
    if (!same_pattern) {
        scan_diag();
        factor_numeric();
        compute_levels();
        set_factor_cost();
        return false;
    }
    // Numeric-only: diagonal positions and the level schedule are pattern
    // properties and stay valid; only the elimination is repeated.
    factor_numeric();
    return true;
}

void Ilu0::scan_diag() {
    const std::size_t n = lu_.rows;
    diag_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        bool found = false;
        for (std::uint32_t p = lu_.row_ptr[i]; p < lu_.row_ptr[i + 1]; ++p) {
            if (lu_.cols[p] == i) {
                diag_[i] = p;
                found = true;
                break;
            }
        }
        if (!found) throw std::runtime_error("Ilu0: structurally zero diagonal");
    }
}

void Ilu0::factor_numeric() {
    const std::size_t n = lu_.rows;
    // IKJ-ordered ILU(0). `pos_[c]` maps a column of the current row to its
    // CSR position (or -1), refreshed per row.
    pos_.assign(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::uint32_t p = lu_.row_ptr[i]; p < lu_.row_ptr[i + 1]; ++p)
            pos_[lu_.cols[p]] = p;
        for (std::uint32_t p = lu_.row_ptr[i]; p < lu_.row_ptr[i + 1]; ++p) {
            const std::uint32_t k = lu_.cols[p];
            if (k >= i) break; // columns are sorted; only the strict lower part
            const double piv = lu_.vals[diag_[k]];
            if (std::abs(piv) < 1e-300) throw std::runtime_error("Ilu0: zero pivot");
            const double lik = lu_.vals[p] / piv;
            lu_.vals[p] = lik;
            // Row update restricted to the existing pattern of row i.
            for (std::uint32_t q = diag_[k] + 1; q < lu_.row_ptr[k + 1]; ++q) {
                const std::int64_t t = pos_[lu_.cols[q]];
                if (t >= 0) lu_.vals[t] -= lik * lu_.vals[q];
            }
        }
        for (std::uint32_t p = lu_.row_ptr[i]; p < lu_.row_ptr[i + 1]; ++p)
            pos_[lu_.cols[p]] = -1;
    }
}

void Ilu0::set_factor_cost() {
    // csrilu0 on the GPU is itself level-scheduled: each level launches a
    // kernel and the nnz of the level's rows are updated.
    factor_cost_ = simt::KernelCost{};
    factor_cost_.name = "ilu0_factor";
    factor_cost_.flops = 2.0 * static_cast<double>(lu_.nnz()) * 8.0;
    factor_cost_.bytes_coalesced = static_cast<double>(lu_.data_bytes());
    factor_cost_.bytes_random = 2.0 * static_cast<double>(lu_.nnz()) * sizeof(double);
    factor_cost_.depth = static_cast<double>(lower_levels_) * 6.0;
    factor_cost_.launches = std::max(1, lower_levels_);
}

void Ilu0::compute_levels() {
    const std::size_t n = lu_.rows;
    std::vector<int> lvl(n, 0);
    int maxl = 0;
    for (std::size_t i = 0; i < n; ++i) {
        int l = 0;
        for (std::uint32_t p = lu_.row_ptr[i]; p < diag_[i]; ++p)
            l = std::max(l, lvl[lu_.cols[p]] + 1);
        lvl[i] = l;
        maxl = std::max(maxl, l);
    }
    lower_levels_ = maxl + 1;

    std::fill(lvl.begin(), lvl.end(), 0);
    maxl = 0;
    for (std::size_t ii = n; ii-- > 0;) {
        int l = 0;
        for (std::uint32_t p = diag_[ii] + 1; p < lu_.row_ptr[ii + 1]; ++p)
            l = std::max(l, lvl[lu_.cols[p]] + 1);
        lvl[ii] = l;
        maxl = std::max(maxl, l);
    }
    upper_levels_ = maxl + 1;
}

void Ilu0::solve(const std::vector<double>& r, std::vector<double>& z) const {
    const std::size_t n = lu_.rows;
    assert(r.size() == n && z.size() == n);
    tmp_.resize(n);
    // L y = r (unit diagonal).
    for (std::size_t i = 0; i < n; ++i) {
        double s = r[i];
        for (std::uint32_t p = lu_.row_ptr[i]; p < diag_[i]; ++p)
            s -= lu_.vals[p] * tmp_[lu_.cols[p]];
        tmp_[i] = s;
    }
    // U z = y.
    for (std::size_t ii = n; ii-- > 0;) {
        double s = tmp_[ii];
        for (std::uint32_t p = diag_[ii] + 1; p < lu_.row_ptr[ii + 1]; ++p)
            s -= lu_.vals[p] * z[lu_.cols[p]];
        z[ii] = s / lu_.vals[diag_[ii]];
    }
}

simt::KernelCost Ilu0::tss_cost() const {
    simt::KernelCost kc;
    kc.name = "tss_lu_solve";
    const double nnz = static_cast<double>(lu_.nnz());
    const double n = static_cast<double>(lu_.rows);
    kc.flops = 2.0 * nnz + n;
    kc.bytes_coalesced = n * 4.0 * sizeof(double);
    // Values/solution gathered per level: poor locality across levels.
    kc.bytes_texture = nnz * (sizeof(double) + sizeof(std::uint32_t));
    kc.bytes_random = nnz * sizeof(double);
    // The defining cost: one dependent memory round-trip per level. The
    // csrsv solve phase is a single kernel per triangle that synchronizes
    // level by level internally (the analysis phase already ran at factor
    // time), so only the latency chain scales with the level count.
    kc.depth = static_cast<double>(lower_levels_ + upper_levels_);
    kc.launches = 2;
    kc.branch_slots = nnz / 32.0;
    kc.divergent_slots = 0.30 * kc.branch_slots; // ragged rows within levels
    return kc;
}

namespace {

class Ilu0Precond final : public Preconditioner {
public:
    explicit Ilu0Precond(std::shared_ptr<Ilu0> ilu) : ilu_(std::move(ilu)) {
        construction_cost_ = ilu_->factor_cost();
    }

    bool refactor(const BsrMatrix& a) override {
        const bool reused = ilu_->refactor(a);
        construction_cost_ = ilu_->factor_cost();
        return reused;
    }

    void apply(const BlockVec& r, BlockVec& z, simt::KernelCost* cost) const override {
        rs_.resize(ilu_->dim());
        zs_.resize(ilu_->dim());
        for (std::size_t i = 0; i < r.size(); ++i)
            for (int k = 0; k < 6; ++k) rs_[i * 6 + k] = r[i][k];
        ilu_->solve(rs_, zs_);
        for (std::size_t i = 0; i < z.size(); ++i)
            for (int k = 0; k < 6; ++k) z[i][k] = zs_[i * 6 + k];
        if (cost) simt::record_kernel(cost, ilu_->tss_cost());
    }

    [[nodiscard]] std::string name() const override { return "ILU"; }

private:
    std::shared_ptr<Ilu0> ilu_;
    mutable std::vector<double> rs_;
    mutable std::vector<double> zs_;
};

} // namespace

std::unique_ptr<Preconditioner> make_ilu0_from(std::shared_ptr<Ilu0> ilu) {
    return std::make_unique<Ilu0Precond>(std::move(ilu));
}

std::unique_ptr<Preconditioner> make_ilu0(const BsrMatrix& a) {
    return make_ilu0_from(std::make_shared<Ilu0>(a));
}

} // namespace gdda::solver
