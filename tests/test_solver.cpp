// Solver module: CG/PCG convergence, preconditioner algebra, ILU(0)
// factorization and triangular solves, and the paper's convergence-rate
// ordering ILU < SSOR < BJ (Table I).

#include <gtest/gtest.h>

#include <cmath>

#include "solver/ilu0.hpp"
#include "solver/pcg.hpp"
#include "solver/preconditioner.hpp"
#include "solver/vector_ops.hpp"
#include "test_util.hpp"

namespace sp = gdda::sparse;
namespace sv = gdda::solver;
using gdda::testutil::random_block_vec;
using gdda::testutil::random_spd_bsr;

namespace {
double residual_norm(const sp::BsrMatrix& a, const sp::BlockVec& x, const sp::BlockVec& b) {
    sp::BlockVec ax(a.n);
    a.multiply(x, ax);
    double s = 0.0;
    for (int i = 0; i < a.n; ++i) {
        const sp::Vec6 r = b[i] - ax[i];
        s += r.dot(r);
    }
    return std::sqrt(s);
}
} // namespace

TEST(VectorOps, DotAxpyNorm) {
    std::vector<double> a = {1, 2, 3};
    const std::vector<double> b = {4, 5, 6};
    EXPECT_DOUBLE_EQ(sv::dot(a, b), 32.0);
    sv::axpy(2.0, b, a);
    EXPECT_EQ(a, (std::vector<double>{9, 12, 15}));
    EXPECT_DOUBLE_EQ(sv::norm2(std::vector<double>{3, 4}), 5.0);
}

TEST(Pcg, PlainCgSolves) {
    const sp::BsrMatrix a = random_spd_bsr(20, 25, 1);
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    const sp::BlockVec b = random_block_vec(20, 2);
    sp::BlockVec x(20);
    const sv::PcgResult r = sv::cg(h, b, x, {.max_iters = 500, .rel_tol = 1e-12});
    EXPECT_TRUE(r.converged);
    EXPECT_LT(residual_norm(a, x, b), 1e-8 * sp::norm(b) + 1e-12);
}

TEST(Pcg, ZeroRhsGivesZero) {
    const sp::BsrMatrix a = random_spd_bsr(5, 3, 3);
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    sp::BlockVec b(5);
    sp::BlockVec x = random_block_vec(5, 4); // non-zero warm start
    const sv::PcgResult r = sv::cg(h, b, x, {});
    EXPECT_TRUE(r.converged);
    EXPECT_DOUBLE_EQ(sp::norm(x), 0.0);
}

TEST(Pcg, WarmStartReducesIterations) {
    const sp::BsrMatrix a = random_spd_bsr(40, 60, 5);
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    const sp::BlockVec b = random_block_vec(40, 6);
    const auto pre = sv::make_block_jacobi(a);

    sp::BlockVec cold(40);
    const sv::PcgResult rc = sv::pcg(h, b, cold, *pre, {.max_iters = 500, .rel_tol = 1e-11});
    ASSERT_TRUE(rc.converged);

    // Warm start = exact solution perturbed slightly: should converge in
    // far fewer iterations (the paper's section IV.A argument).
    sp::BlockVec warm = cold;
    for (auto& v : warm.front().v) v += 1e-8;
    const sv::PcgResult rw = sv::pcg(h, b, warm, *pre, {.max_iters = 500, .rel_tol = 1e-11});
    EXPECT_TRUE(rw.converged);
    EXPECT_LT(rw.iterations, rc.iterations / 2 + 2);
}

TEST(Precond, BlockJacobiExactForBlockDiagonal) {
    // With no off-diagonal blocks PCG + BJ must converge in one iteration.
    const sp::BsrMatrix ring = random_spd_bsr(8, 0, 7);
    sp::BsrMatrix diag = ring;
    diag.row_ptr.assign(diag.n + 1, 0);
    diag.col_idx.clear();
    diag.vals.clear();
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(diag);
    const sp::BlockVec b = random_block_vec(8, 8);
    sp::BlockVec x(8);
    const auto pre = sv::make_block_jacobi(diag);
    const sv::PcgResult r = sv::pcg(h, b, x, *pre, {.max_iters = 10, .rel_tol = 1e-12});
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 2);
}

TEST(Precond, ApplyIsSpd) {
    // z = M^-1 r must satisfy r . z > 0 for r != 0 (required by PCG); check
    // all preconditioners on random vectors.
    const sp::BsrMatrix a = random_spd_bsr(15, 20, 9);
    const std::vector<std::unique_ptr<sv::Preconditioner>> pres = [&] {
        std::vector<std::unique_ptr<sv::Preconditioner>> v;
        v.push_back(sv::make_identity(a.n));
        v.push_back(sv::make_block_jacobi(a));
        v.push_back(sv::make_ssor_ai(a));
        v.push_back(sv::make_ilu0(a));
        return v;
    }();
    for (const auto& pre : pres) {
        for (unsigned seed = 0; seed < 5; ++seed) {
            const sp::BlockVec r = random_block_vec(a.n, 50 + seed);
            sp::BlockVec z(a.n);
            pre->apply(r, z);
            EXPECT_GT(sp::dot(r, z), 0.0) << pre->name() << " seed " << seed;
        }
    }
}

TEST(Precond, SsorAiSymmetry) {
    // The SSOR-AI operator must be symmetric: (M^-1 u) . w == u . (M^-1 w).
    const sp::BsrMatrix a = random_spd_bsr(12, 15, 21);
    const auto pre = sv::make_ssor_ai(a);
    const sp::BlockVec u = random_block_vec(12, 1);
    const sp::BlockVec w = random_block_vec(12, 2);
    sp::BlockVec mu(12);
    sp::BlockVec mw(12);
    pre->apply(u, mu);
    pre->apply(w, mw);
    EXPECT_NEAR(sp::dot(mu, w), sp::dot(u, mw), 1e-9 * (1.0 + std::abs(sp::dot(mu, w))));
}

TEST(Ilu0, ExactForTriangularPattern) {
    // For a block-diagonal matrix the ILU(0) factorization is exact, so one
    // preconditioned iteration solves the system.
    sp::BsrMatrix a = random_spd_bsr(6, 0, 31);
    a.row_ptr.assign(a.n + 1, 0);
    a.col_idx.clear();
    a.vals.clear();
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    const sp::BlockVec b = random_block_vec(6, 32);
    sp::BlockVec x(6);
    const auto pre = sv::make_ilu0(a);
    const sv::PcgResult r = sv::pcg(h, b, x, *pre, {.max_iters = 5, .rel_tol = 1e-12});
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 2);
}

TEST(Ilu0, SolveInvertsFactors) {
    const sp::BsrMatrix a = random_spd_bsr(10, 14, 33);
    const sv::Ilu0 ilu(a);
    // L U z = r must be solvable and give finite values.
    std::vector<double> r(ilu.dim(), 1.0);
    std::vector<double> z(ilu.dim());
    ilu.solve(r, z);
    for (double v : z) EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(ilu.lower_levels(), 1);
    EXPECT_GE(ilu.upper_levels(), 1);
    EXPECT_LE(ilu.lower_levels(), static_cast<int>(ilu.dim()));
}

TEST(Ilu0, LevelsGrowWithChainLength) {
    // A pure ring (path graph) has long dependency chains; adding random
    // couplings cannot reduce the level count below the path's.
    const sv::Ilu0 path(random_spd_bsr(40, 0, 35));
    EXPECT_GT(path.lower_levels(), 20); // 40-block chain: deep levels
}

TEST(Ilu0, TssCostDominatedByDepth) {
    const sp::BsrMatrix a = random_spd_bsr(64, 30, 36);
    const sv::Ilu0 ilu(a);
    const auto kc = ilu.tss_cost();
    EXPECT_GT(kc.depth, 10.0);
    // Level count drives the latency chain; csrsv is two kernels (L and U).
    EXPECT_DOUBLE_EQ(kc.depth, ilu.lower_levels() + ilu.upper_levels());
    EXPECT_EQ(kc.launches, 2);
}

// The paper's Table I ordering: iterations(ILU) < iterations(SSOR) <
// iterations(BJ) on the same system, all converging.
TEST(Precond, ConvergenceOrderingMatchesTable1) {
    const sp::BsrMatrix a = random_spd_bsr(60, 90, 41, /*coupling=*/0.8);
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    const sp::BlockVec b = random_block_vec(60, 42);
    const sv::PcgOptions opts{.max_iters = 2000, .rel_tol = 1e-10};

    auto iters = [&](std::unique_ptr<sv::Preconditioner> pre) {
        sp::BlockVec x(a.n);
        const sv::PcgResult r = sv::pcg(h, b, x, *pre, opts);
        EXPECT_TRUE(r.converged) << pre->name();
        return r.iterations;
    };
    const int bj = iters(sv::make_block_jacobi(a));
    const int ssor = iters(sv::make_ssor_ai(a));
    const int ilu = iters(sv::make_ilu0(a));
    EXPECT_LE(ilu, ssor);
    EXPECT_LE(ssor, bj);
}

// Parameterized: PCG with every preconditioner solves random systems.
class PcgAllPreconds : public ::testing::TestWithParam<int> {};

TEST_P(PcgAllPreconds, Solves) {
    const int seed = GetParam();
    const int n = 10 + (seed * 7) % 40;
    const sp::BsrMatrix a = random_spd_bsr(n, n, 400 + seed);
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    const sp::BlockVec b = random_block_vec(n, 500 + seed);

    for (auto kind : {0, 1, 2, 3}) {
        std::unique_ptr<sv::Preconditioner> pre;
        switch (kind) {
            case 0: pre = sv::make_identity(n); break;
            case 1: pre = sv::make_block_jacobi(a); break;
            case 2: pre = sv::make_ssor_ai(a); break;
            default: pre = sv::make_ilu0(a); break;
        }
        sp::BlockVec x(n);
        const sv::PcgResult r = sv::pcg(h, b, x, *pre, {.max_iters = 3000, .rel_tol = 1e-10});
        EXPECT_TRUE(r.converged) << pre->name() << " n=" << n;
        EXPECT_LT(residual_norm(a, x, b), 1e-6 * (1.0 + sp::norm(b))) << pre->name();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcgAllPreconds, ::testing::Range(0, 8));
