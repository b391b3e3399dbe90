// SSOR approximate-inverse preconditioner (Helfenstein & Koko [36]).
//
// With A = L + D + L^T and relaxation omega, SSOR defines
//   M = (D/w + L) (D/w)^-1 (D/w + L)^T * w/(2-w).
// Applying M^-1 exactly needs two triangular solves — the GPU-hostile
// operation. The approximate inverse replaces (D/w + L)^-1 by its
// first-order Neumann expansion, giving the SPD operator
//   M^-1 ~= c * (I - w D^-1 L^T) D^-1 (I - w L D^-1),  c = (2-w)/w,
// whose application is two triangle SpMVs plus diagonal scalings — exactly
// the data-parallel shape the paper wants.


#include "solver/preconditioner.hpp"

namespace gdda::solver {

namespace {

using sparse::BlockVec;
using sparse::BsrMatrix;
using sparse::Ldlt6;
using sparse::Mat6;

class SsorAiPrecond final : public Preconditioner {
public:
    SsorAiPrecond(const BsrMatrix& a, double omega) : omega_(omega) {
        refactor(a);
        construction_cost_.name = "ssor_ai_build";
        // Diagonal inversions plus forming/streaming the triangle once.
        construction_cost_.flops = 400.0 * inv_diag_.size();
        construction_cost_.bytes_coalesced =
            (2.0 * inv_diag_.size() * 36 + a.nnz_blocks_upper() * 36.0) * sizeof(double);
        construction_cost_.depth = 4;
        construction_cost_.launches = 2;
    }

    /// Re-point at `a` and recompute the diagonal inverses in place. The
    /// triangle is applied straight from the matrix, so nothing else is
    /// value-dependent. `a` must outlive the next apply(), as at construction.
    bool refactor(const BsrMatrix& a) override {
        a_ = &a;
        inv_diag_.resize(a.diag.size());
        for (std::size_t i = 0; i < inv_diag_.size(); ++i)
            inv_diag_[i] = Ldlt6(a.diag[i]).inverse();
        return true;
    }

    void apply(const BlockVec& r, BlockVec& z, simt::KernelCost* cost) const override {
        const int n = a_->n;
        tmp_u_.resize(n);
        tmp_w_.resize(n);
        // u = D^-1 r
        for (int i = 0; i < n; ++i) tmp_u_[i] = inv_diag_[i].mul(r[i]);
        // w = r - omega * L u   (L row i holds transposed upper blocks (j, i))
        for (int i = 0; i < n; ++i) tmp_w_[i] = r[i];
        for (int i = 0; i < n; ++i) {
            for (int p = a_->row_ptr[i]; p < a_->row_ptr[i + 1]; ++p) {
                const int j = a_->col_idx[p];
                // Upper block (i, j) acts as L block (j, i): w[j] -= w A^T u[i].
                tmp_w_[j] -= a_->vals[p].mul_transposed(tmp_u_[i]) * omega_;
            }
        }
        // v = D^-1 w
        for (int i = 0; i < n; ++i) tmp_u_[i] = inv_diag_[i].mul(tmp_w_[i]);
        // z = v - omega * D^-1 (L^T v); L^T = stored upper blocks.
        for (int i = 0; i < n; ++i) tmp_w_[i] = sparse::Vec6{};
        for (int i = 0; i < n; ++i) {
            for (int p = a_->row_ptr[i]; p < a_->row_ptr[i + 1]; ++p) {
                tmp_w_[i] += a_->vals[p].mul(tmp_u_[a_->col_idx[p]]);
            }
        }
        const double c = (2.0 - omega_) / omega_;
        for (int i = 0; i < n; ++i) z[i] = (tmp_u_[i] - inv_diag_[i].mul(tmp_w_[i]) * omega_) * c;

        if (cost) {
            const double m = a_->nnz_blocks_upper();
            const double nn = n;
            simt::KernelCost kc;
            kc.name = "precond_ssor_ai";
            kc.flops = 2.0 * m * 72.0 + 3.0 * nn * 72.0 + nn * 12.0;
            kc.bytes_coalesced = 2.0 * m * 36 * sizeof(double) +
                                 3.0 * nn * 36 * sizeof(double) + 8.0 * nn * 6 * sizeof(double);
            kc.bytes_texture = 2.0 * m * 6 * sizeof(double);
            kc.depth = 30;
            kc.launches = 4;
            kc.branch_slots = (2.0 * m + nn) / 32.0;
            kc.divergent_slots = 0.03 * kc.branch_slots;
            simt::record_kernel(cost, kc);
        }
    }

    [[nodiscard]] std::string name() const override { return "SSOR"; }

private:
    const BsrMatrix* a_ = nullptr;
    double omega_;
    std::vector<Mat6> inv_diag_;
    mutable BlockVec tmp_u_;
    mutable BlockVec tmp_w_;
};

} // namespace

std::unique_ptr<Preconditioner> make_ssor_ai(const BsrMatrix& a, double omega) {
    return std::make_unique<SsorAiPrecond>(a, omega);
}

} // namespace gdda::solver
