// Identity and Block-Jacobi preconditioners.


#include "par/deterministic_reduce.hpp"
#include "par/parallel_for.hpp"
#include "solver/preconditioner.hpp"

namespace gdda::solver {

namespace {

using sparse::BlockVec;
using sparse::BsrMatrix;
using sparse::Ldlt6;
using sparse::Mat6;
using sparse::Vec6;

class IdentityPrecond final : public Preconditioner {
public:
    explicit IdentityPrecond(int n) : n_(n) {}
    void apply(const BlockVec& r, BlockVec& z, simt::KernelCost* cost) const override {
        z = r;
        record_apply(cost);
    }
    double apply_dot(const BlockVec& r, BlockVec& z, simt::KernelCost* cost) const override {
        const double rz = par::deterministic_reduce(r.size(), [&](std::size_t b, std::size_t e) {
            double s = 0.0;
            for (std::size_t i = b; i < e; ++i) {
                z[i] = r[i];
                s += r[i].dot(z[i]);
            }
            return s;
        });
        record_apply(cost);
        return rz;
    }
    [[nodiscard]] std::string name() const override { return "Identity"; }
    bool refactor(const BsrMatrix& a) override {
        n_ = a.n;
        return true;
    }

private:
    void record_apply(simt::KernelCost* cost) const {
        if (!cost) return;
        simt::KernelCost kc;
        kc.name = "precond_identity";
        kc.bytes_coalesced = 2.0 * n_ * 6 * sizeof(double);
        kc.depth = 2;
        simt::record_kernel(cost, kc);
    }

    int n_;
};

class BlockJacobiPrecond final : public Preconditioner {
public:
    explicit BlockJacobiPrecond(const BsrMatrix& a) {
        refactor(a);
        construction_cost_.name = "block_jacobi_build";
        // One 6x6 LDLT + inversion per block, embarrassingly parallel.
        construction_cost_.flops = 400.0 * inv_.size();
        construction_cost_.bytes_coalesced = 2.0 * inv_.size() * 36 * sizeof(double);
        construction_cost_.depth = 2;
    }

    bool refactor(const BsrMatrix& a) override {
        inv_.resize(a.diag.size());
        // Per-block factorizations are independent: bitwise identical for
        // any team size.
        par::parallel_for(inv_.size(), 64,
                          [&](std::size_t i) { inv_[i] = Ldlt6(a.diag[i]).inverse(); });
        return true;
    }

    void apply(const BlockVec& r, BlockVec& z, simt::KernelCost* cost) const override {
        par::parallel_for(r.size(), par::kDefaultGrain,
                          [&](std::size_t i) { z[i] = inv_[i].mul(r[i]); });
        record_apply(cost);
    }
    double apply_dot(const BlockVec& r, BlockVec& z, simt::KernelCost* cost) const override {
        const double rz = par::deterministic_reduce(r.size(), [&](std::size_t b, std::size_t e) {
            double s = 0.0;
            for (std::size_t i = b; i < e; ++i) {
                z[i] = inv_[i].mul(r[i]);
                s += r[i].dot(z[i]);
            }
            return s;
        });
        record_apply(cost);
        return rz;
    }
    [[nodiscard]] std::string name() const override { return "BJ"; }

private:
    void record_apply(simt::KernelCost* cost) const {
        if (!cost) return;
        simt::KernelCost kc;
        kc.name = "precond_block_jacobi";
        kc.flops = 72.0 * inv_.size();
        kc.bytes_coalesced = inv_.size() * (36 + 12) * sizeof(double);
        kc.depth = 2;
        simt::record_kernel(cost, kc);
    }

    std::vector<Mat6> inv_;
};

} // namespace

std::unique_ptr<Preconditioner> make_identity(int n) {
    return std::make_unique<IdentityPrecond>(n);
}

std::unique_ptr<Preconditioner> make_block_jacobi(const BsrMatrix& a) {
    return std::make_unique<BlockJacobiPrecond>(a);
}

} // namespace gdda::solver
