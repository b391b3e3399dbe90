// Sparse module: Mat6 algebra, LDLT, BSR construction, HSBCSR layout and
// round trip, and equivalence of all SpMV kernels against the dense product.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>

#include "par/thread_budget.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/hsbcsr.hpp"
#include "sparse/spmv.hpp"
#include "test_util.hpp"

namespace sp = gdda::sparse;
using gdda::testutil::random_block_vec;
using gdda::testutil::random_spd_bsr;

TEST(Mat6, IdentityAndOuter) {
    const sp::Mat6 id = sp::Mat6::identity();
    sp::Vec6 x{{1, 2, 3, 4, 5, 6}};
    const sp::Vec6 y = id.mul(x);
    for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);

    sp::Vec6 u{{1, 0, 2, 0, 0, 0}};
    sp::Vec6 w{{0, 3, 0, 0, 0, 1}};
    const sp::Mat6 o = sp::Mat6::outer(u, w);
    EXPECT_DOUBLE_EQ(o(0, 1), 3.0);
    EXPECT_DOUBLE_EQ(o(2, 5), 2.0);
    EXPECT_DOUBLE_EQ(o(1, 1), 0.0);
}

TEST(Mat6, TransposeAndMulTransposed) {
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> u(-2, 2);
    sp::Mat6 m;
    for (double& v : m.a) v = u(rng);
    sp::Vec6 x;
    for (int i = 0; i < 6; ++i) x[i] = u(rng);
    const sp::Vec6 a = m.transposed().mul(x);
    const sp::Vec6 b = m.mul_transposed(x);
    for (int i = 0; i < 6; ++i) EXPECT_NEAR(a[i], b[i], 1e-13);
}

TEST(Mat6, MatrixProductAssociativity) {
    std::mt19937 rng(9);
    std::uniform_real_distribution<double> u(-1, 1);
    sp::Mat6 a, b;
    for (double& v : a.a) v = u(rng);
    for (double& v : b.a) v = u(rng);
    sp::Vec6 x;
    for (int i = 0; i < 6; ++i) x[i] = u(rng);
    const sp::Vec6 lhs = (a * b).mul(x);
    const sp::Vec6 rhs = a.mul(b.mul(x));
    for (int i = 0; i < 6; ++i) EXPECT_NEAR(lhs[i], rhs[i], 1e-12);
}

TEST(Ldlt6, SolvesAndInverts) {
    // SPD matrix: A = B^T B + I.
    std::mt19937 rng(11);
    std::uniform_real_distribution<double> u(-1, 1);
    sp::Mat6 b;
    for (double& v : b.a) v = u(rng);
    sp::Mat6 a = b.transposed() * b;
    for (int i = 0; i < 6; ++i) a(i, i) += 1.0;

    sp::Vec6 x{{1, -2, 3, 0.5, -0.25, 2}};
    const sp::Vec6 rhs = a.mul(x);
    const sp::Ldlt6 f(a);
    const sp::Vec6 sol = f.solve(rhs);
    for (int i = 0; i < 6; ++i) EXPECT_NEAR(sol[i], x[i], 1e-10);

    const sp::Mat6 inv = f.inverse();
    const sp::Mat6 prod = a * inv;
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 6; ++j) EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-10);
}

TEST(Ldlt6, InverseMatchesColumnSolvesBitwise) {
    // inverse() sweeps all six identity columns at once; every element must
    // carry the bits of its own solve(e_c). Random SPD blocks, some
    // ill-conditioned (eigenvalues spread over ~12 decades through a
    // near-rank-deficient factor), scaled from 1e-8 to 1e12.
    std::mt19937 rng(29);
    std::uniform_real_distribution<double> u(-1, 1);
    const double scales[] = {1e-8, 1e-3, 1.0, 7.5, 1e6, 1e12};
    int checked = 0;
    for (int trial = 0; trial < 40; ++trial) {
        sp::Mat6 b;
        for (double& v : b.a) v = u(rng);
        if (trial % 2 == 1) {
            // Nearly collinear rows: a condition number far beyond 1e6.
            for (int c = 0; c < 6; ++c) b(5, c) = b(4, c) + 1e-6 * u(rng);
        }
        sp::Mat6 a = b.transposed() * b;
        for (int i = 0; i < 6; ++i) a(i, i) += trial % 2 == 1 ? 1e-12 : 0.5;
        for (const double scale : scales) {
            const sp::Ldlt6 f(a * scale);
            const sp::Mat6 inv = f.inverse();
            sp::Mat6 cols;
            for (int c = 0; c < 6; ++c) {
                sp::Vec6 e;
                e[c] = 1.0;
                const sp::Vec6 col = f.solve(e);
                for (int r = 0; r < 6; ++r) cols(r, c) = col[r];
            }
            ASSERT_EQ(std::memcmp(inv.a.data(), cols.a.data(), sizeof(inv.a)), 0)
                << "trial " << trial << " scale " << scale;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 240);
}

TEST(Ldlt6, ThrowsOnSingular) {
    sp::Mat6 z; // all zeros
    EXPECT_THROW(sp::Ldlt6{z}, std::runtime_error);
}

TEST(Mat6, GeneralInverse) {
    std::mt19937 rng(13);
    std::uniform_real_distribution<double> u(-1, 1);
    sp::Mat6 m;
    for (double& v : m.a) v = u(rng);
    for (int i = 0; i < 6; ++i) m(i, i) += 4.0;
    const sp::Mat6 inv = sp::inverse(m);
    const sp::Mat6 p = m * inv;
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 6; ++j) EXPECT_NEAR(p(i, j), i == j ? 1.0 : 0.0, 1e-10);
}

TEST(Bsr, FromCooMergesDuplicates) {
    sp::Mat6 one;
    for (double& v : one.a) v = 1.0;
    const std::vector<int> rows = {0, 0, 0, 1};
    const std::vector<int> cols = {1, 1, 0, 1};
    const std::vector<sp::Mat6> blocks = {one, one, one, one};
    const sp::BsrMatrix a = sp::bsr_from_coo(2, rows, cols, blocks);
    EXPECT_EQ(a.nnz_blocks_upper(), 1);
    EXPECT_DOUBLE_EQ(a.vals[0](3, 3), 2.0); // duplicate (0,1) summed
    EXPECT_DOUBLE_EQ(a.diag[0](0, 0), 1.0);
    EXPECT_DOUBLE_EQ(a.diag[1](0, 0), 1.0);
}

TEST(Bsr, RejectsLowerTriangle) {
    sp::Mat6 one;
    EXPECT_THROW(sp::bsr_from_coo(2, std::vector<int>{1}, std::vector<int>{0},
                                  std::vector<sp::Mat6>{one}),
                 std::invalid_argument);
}

TEST(Bsr, MultiplyMatchesDense) {
    const sp::BsrMatrix a = random_spd_bsr(12, 10, 3);
    const sp::BlockVec x = random_block_vec(12, 4);
    sp::BlockVec y(12);
    a.multiply(x, y);

    const std::vector<double> dense = sp::to_dense(a);
    const std::vector<double> xf = sp::flatten(x);
    const std::size_t dim = a.scalar_dim();
    for (std::size_t r = 0; r < dim; ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < dim; ++c) s += dense[r * dim + c] * xf[c];
        EXPECT_NEAR(sp::flatten(y)[r], s, 1e-9 * (1.0 + std::abs(s)));
    }
}

TEST(Bsr, UpperBlockLookup) {
    const sp::BsrMatrix a = random_spd_bsr(6, 0, 1); // pure ring
    EXPECT_NE(a.upper_block(0, 1), nullptr);
    EXPECT_EQ(a.upper_block(0, 3), nullptr);
    EXPECT_TRUE(a.diag_symmetric());
}

TEST(Hsbcsr, PaddingAndIndices) {
    const sp::BsrMatrix a = random_spd_bsr(10, 6, 5);
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    EXPECT_EQ(h.n, 10);
    EXPECT_EQ(h.padded_n % 32, 0);
    EXPECT_EQ(h.padded_m % 32, 0);
    EXPECT_EQ(static_cast<int>(h.rc.size()), h.m);
    EXPECT_EQ(static_cast<int>(h.row_low_p.size()), h.m);
    // row_up_i is nondecreasing and ends at m.
    for (std::size_t i = 1; i < h.row_up_i.size(); ++i)
        EXPECT_GE(h.row_up_i[i], h.row_up_i[i - 1]);
    if (h.n > 0) {
        EXPECT_EQ(h.row_up_i.back(), static_cast<std::uint32_t>(h.m));
    }
    EXPECT_EQ(h.row_low_i.back(), static_cast<std::uint32_t>(h.m));
    // row_low_p is a permutation of [0, m).
    std::vector<bool> seen(h.m, false);
    for (std::uint32_t p : h.row_low_p) {
        ASSERT_LT(p, static_cast<std::uint32_t>(h.m));
        EXPECT_FALSE(seen[p]);
        seen[p] = true;
    }
}

TEST(Hsbcsr, LowerOrderingSortedByColumn) {
    const sp::BsrMatrix a = random_spd_bsr(15, 20, 6);
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    // Lower-triangle entries must be ordered by (col, row) of the upper
    // source block, i.e. by the lower entry's own (row, col).
    for (std::size_t k = 1; k < h.row_low_p.size(); ++k) {
        const auto a0 = std::pair{h.col_of(h.row_low_p[k - 1]), h.row_of(h.row_low_p[k - 1])};
        const auto a1 = std::pair{h.col_of(h.row_low_p[k]), h.row_of(h.row_low_p[k])};
        EXPECT_LT(a0, a1);
    }
}

TEST(Hsbcsr, RoundTrip) {
    const sp::BsrMatrix a = random_spd_bsr(9, 12, 7);
    const sp::BsrMatrix back = sp::bsr_from_hsbcsr(sp::hsbcsr_from_bsr(a));
    ASSERT_EQ(back.n, a.n);
    ASSERT_EQ(back.vals.size(), a.vals.size());
    const auto da = sp::to_dense(a);
    const auto db = sp::to_dense(back);
    for (std::size_t i = 0; i < da.size(); ++i) EXPECT_DOUBLE_EQ(da[i], db[i]);
}

TEST(Csr, FullExpansionSymmetric) {
    const sp::BsrMatrix a = random_spd_bsr(8, 8, 9);
    const sp::CsrMatrix c = sp::csr_from_bsr_full(a);
    EXPECT_EQ(c.rows, a.scalar_dim());
    // Columns sorted per row.
    for (std::size_t r = 0; r < c.rows; ++r)
        for (std::uint32_t p = c.row_ptr[r] + 1; p < c.row_ptr[r + 1]; ++p)
            EXPECT_LT(c.cols[p - 1], c.cols[p]);
    // Dense comparison.
    const auto dense = sp::to_dense(a);
    const std::size_t dim = a.scalar_dim();
    std::vector<double> rebuilt(dim * dim, 0.0);
    for (std::size_t r = 0; r < c.rows; ++r)
        for (std::uint32_t p = c.row_ptr[r]; p < c.row_ptr[r + 1]; ++p)
            rebuilt[r * dim + c.cols[p]] = c.vals[p];
    for (std::size_t i = 0; i < dense.size(); ++i) EXPECT_DOUBLE_EQ(dense[i], rebuilt[i]);
}

// Parameterized equivalence of every SpMV kernel against the BSR reference.
class SpmvEquivalence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SpmvEquivalence, AllKernelsAgree) {
    const auto [n, extra] = GetParam();
    const sp::BsrMatrix a = random_spd_bsr(n, extra, 100 + n + extra);
    const sp::BlockVec x = random_block_vec(n, 200 + n);

    sp::BlockVec y_ref(n);
    a.multiply(x, y_ref);

    // HSBCSR two-stage kernel.
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    sp::HsbcsrWorkspace ws;
    sp::BlockVec y_h(n);
    gdda::simt::KernelCost cost;
    sp::spmv_hsbcsr(h, x, y_h, ws, &cost);
    EXPECT_GT(cost.flops, 0.0);

    // Scalar CSR kernels.
    const sp::CsrMatrix c = sp::csr_from_bsr_full(a);
    const std::vector<double> xf = sp::flatten(x);
    std::vector<double> y_s(xf.size());
    std::vector<double> y_v(xf.size());
    sp::spmv_csr_scalar(c, xf, y_s);
    sp::spmv_csr_vector(c, xf, y_v);

    // Full-matrix block kernel.
    sp::BlockVec y_b(n);
    sp::spmv_bsr_full(a, x, y_b);

    const std::vector<double> ref = sp::flatten(y_ref);
    const std::vector<double> hf = sp::flatten(y_h);
    const std::vector<double> bf = sp::flatten(y_b);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const double tol = 1e-10 * (1.0 + std::abs(ref[i]));
        EXPECT_NEAR(hf[i], ref[i], tol);
        EXPECT_NEAR(y_s[i], ref[i], tol);
        EXPECT_NEAR(y_v[i], ref[i], tol);
        EXPECT_NEAR(bf[i], ref[i], tol);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpmvEquivalence,
                         ::testing::Values(std::tuple{1, 0}, std::tuple{2, 0},
                                           std::tuple{2, 3}, std::tuple{7, 5},
                                           std::tuple{33, 40}, std::tuple{64, 100},
                                           std::tuple{101, 350}));

TEST(Spmv, ZeroOffDiagonalSkipIsBitwise) {
    // An off-diagonal structure whose values are all +0, as the engine's
    // all-open contact steps assemble it, with some all-zero diagonal rows.
    sp::BsrMatrix a = random_spd_bsr(200, 600, 31);
    for (sp::Mat6& m : a.vals) m = sp::Mat6{};
    for (int b = 0; b < a.n; b += 17) a.diag[b] = sp::Mat6{};
    sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    ASSERT_GT(h.m, 0);
    ASSERT_TRUE(h.upper_dead());

    // x mixes signs, -0.0, +0.0, subnormals and normal values.
    sp::BlockVec x = random_block_vec(a.n, 37);
    const double specials[] = {-0.0, 0.0, 4.9e-324, -4.9e-324, 2.2e-310, -1e-300};
    for (std::size_t i = 0; i < x.size(); ++i)
        for (int k = 0; k < 6; ++k)
            if ((i * 6 + static_cast<std::size_t>(k)) % 5 == 0) x[i][k] = specials[(i + k) % 6];

    auto bits_of = [](const sp::BlockVec& v) {
        std::vector<std::uint64_t> out;
        for (const sp::Vec6& b : v)
            for (int k = 0; k < 6; ++k) out.push_back(std::bit_cast<std::uint64_t>(b[k]));
        return out;
    };
    auto multiply = [&](const sp::HsbcsrMatrix& m, int team) {
        gdda::par::ScopedTeamSize scope(team);
        sp::HsbcsrWorkspace ws;
        sp::BlockVec y(m.n);
        gdda::simt::KernelCost cost;
        sp::spmv_hsbcsr(m, x, y, ws, &cost);
        return std::pair{bits_of(y), cost.flops};
    };
    // The two-stage path over the same +0 slices is the reference.
    sp::HsbcsrMatrix full = h;
    full.mark_all_live();
    const auto [ref, ref_flops] = multiply(full, 1);
    for (int team : {1, 2, 4}) {
        const auto [got, flops] = multiply(h, team);
        EXPECT_EQ(got, ref) << "team " << team;
        EXPECT_EQ(flops, ref_flops) << "the skip is priced whole";
    }

    // Diagonal-only refills keep the list; any non-+0 upper write makes a
    // block live, -0.0 included, and an all-+0 rewrite empties it again.
    sp::hsbcsr_refill(h, a, false);
    EXPECT_TRUE(h.upper_dead());
    sp::BsrMatrix b = a;
    b.vals[b.vals.size() / 2](3, 4) = -0.0;
    sp::hsbcsr_refill(h, b);
    EXPECT_FALSE(h.upper_dead());
    sp::hsbcsr_refill(h, a);
    EXPECT_TRUE(h.upper_dead());
    b.vals[0](0, 5) = 0.25;
    sp::hsbcsr_refill(h, b);
    ASSERT_FALSE(h.upper_dead());
    sp::BlockVec y_ref(b.n);
    b.multiply(x, y_ref);
    sp::HsbcsrWorkspace ws;
    sp::BlockVec y(b.n);
    sp::spmv_hsbcsr(h, x, y, ws);
    for (int i = 0; i < b.n; ++i)
        for (int k = 0; k < 6; ++k) EXPECT_NEAR(y[i][k], y_ref[i][k], 1e-12);
    // A hand-built matrix reads as all-live.
    EXPECT_FALSE(sp::HsbcsrMatrix{}.upper_dead());
}

namespace {
std::vector<std::uint64_t> block_bits(const sp::BlockVec& v) {
    std::vector<std::uint64_t> out(v.size() * 6);
    std::memcpy(out.data(), v.data(), out.size() * sizeof(double));
    return out;
}

// y = A x at a team size, as bits, with the priced flops.
std::pair<std::vector<std::uint64_t>, double> spmv_bits(const sp::HsbcsrMatrix& m,
                                                        const sp::BlockVec& x, int team) {
    gdda::par::ScopedTeamSize scope(team);
    sp::HsbcsrWorkspace ws;
    sp::BlockVec y(m.n);
    gdda::simt::KernelCost cost;
    sp::spmv_hsbcsr(m, x, y, ws, &cost);
    return {block_bits(y), cost.flops};
}

// The live list as the refill must build it: ascending p of every block
// holding a non-+0 bit.
std::vector<std::uint32_t> expected_live(const sp::BsrMatrix& a) {
    std::vector<std::uint32_t> out;
    for (std::size_t p = 0; p < a.vals.size(); ++p)
        for (double v : a.vals[p].a)
            if (std::bit_cast<std::uint64_t>(v) != 0) {
                out.push_back(static_cast<std::uint32_t>(p));
                break;
            }
    return out;
}
} // namespace

TEST(Spmv, LiveListIsBitwise) {
    // x mixes signs, -0.0, +0.0, subnormals and normal values.
    sp::BlockVec x = random_block_vec(300, 41);
    const double specials[] = {-0.0, 0.0, 4.9e-324, -4.9e-324, 2.2e-310, -1e-300};
    for (std::size_t i = 0; i < x.size(); ++i)
        for (int k = 0; k < 6; ++k)
            if ((i * 6 + static_cast<std::size_t>(k)) % 5 == 0) x[i][k] = specials[(i + k) % 6];

    // About 1%, 16%, 43% and 100% of the upper blocks hold values; the
    // rest are +0, except about one in a hundred holding -0.0 in some
    // entries (live: its bits are not all clear, and its products are +0),
    // and some diagonal blocks are all zero.
    for (const int live_pct : {1, 16, 43, 100}) {
        sp::BsrMatrix a = random_spd_bsr(300, 2000, 43 + live_pct);
        std::mt19937 rng(live_pct);
        std::uniform_int_distribution<int> pct(0, 99);
        for (std::size_t p = 0; p < a.vals.size(); ++p) {
            if (pct(rng) < live_pct) continue;
            a.vals[p] = sp::Mat6{};
            if (p % 97 == 0)
                for (int e = static_cast<int>(p % 7); e < 36; e += 5) a.vals[p].a[e] = -0.0;
        }
        for (int b = 0; b < a.n; b += 23) a.diag[b] = sp::Mat6{};
        const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
        ASSERT_TRUE(h.live_known);
        const std::vector<std::uint32_t> want = expected_live(a);
        ASSERT_EQ(h.live, want) << live_pct << "% live";
        ASSERT_EQ(h.live_count(), want.size());
        EXPECT_NEAR(static_cast<double>(want.size()) / h.m, live_pct / 100.0, 0.05);

        sp::HsbcsrMatrix all = h;
        all.mark_all_live();
        EXPECT_EQ(all.live_count(), static_cast<std::size_t>(all.m));
        const auto [ref, ref_flops] = spmv_bits(all, x, 1);
        for (int team : {1, 2, 4}) {
            const auto [got, flops] = spmv_bits(h, x, team);
            EXPECT_TRUE(got == ref) << live_pct << "% live, team " << team;
            EXPECT_EQ(flops, ref_flops) << "the list is priced whole";
            const auto [all_got, all_flops] = spmv_bits(all, x, team);
            EXPECT_TRUE(all_got == ref) << "all-live, team " << team;
        }
    }

    // Refill transitions on one structure.
    sp::BsrMatrix a = random_spd_bsr(300, 2000, 47);
    for (std::size_t p = 0; p < a.vals.size(); ++p)
        if (p % 6 != 0) a.vals[p] = sp::Mat6{};
    sp::HsbcsrMatrix h = sp::hsbcsr_structure(a);
    EXPECT_TRUE(h.upper_dead()) << "the structure's zeroed slices hold no live block";
    auto check = [&](const sp::BsrMatrix& src, const char* what) {
        EXPECT_EQ(h.live, expected_live(src)) << what;
        sp::HsbcsrMatrix all = h;
        all.mark_all_live();
        for (int team : {1, 2, 4}) {
            EXPECT_TRUE(spmv_bits(h, x, team).first == spmv_bits(all, x, 1).first)
                << what << ", team " << team;
        }
    };
    sp::hsbcsr_refill(h, a);
    check(a, "first refill");
    const std::size_t dead = 7; // p % 6 != 0: dead in a
    ASSERT_EQ(std::count(h.live.begin(), h.live.end(), dead), 0);
    sp::BsrMatrix b = a;
    b.vals[dead](2, 3) = -1.5;
    sp::hsbcsr_refill(h, b);
    check(b, "a block turns live");
    EXPECT_EQ(std::count(h.live.begin(), h.live.end(), dead), 1);
    b.vals[0] = sp::Mat6{};
    sp::hsbcsr_refill(h, b);
    check(b, "a block turns dead");
    EXPECT_EQ(std::count(h.live.begin(), h.live.end(), 0u), 0);
    b.vals[0](4, 4) = -0.0;
    sp::hsbcsr_refill(h, b);
    check(b, "a -0.0 block is live");
    EXPECT_EQ(std::count(h.live.begin(), h.live.end(), 0u), 1);

    // A diagonal-only refill rewrites the diagonal and keeps the list.
    const std::vector<std::uint32_t> kept = h.live;
    const std::vector<std::uint32_t> kept_low = h.live_low_q;
    sp::BsrMatrix c = b;
    for (sp::Mat6& d : c.diag) d(0, 0) += 1.0;
    sp::hsbcsr_refill(h, c, false);
    EXPECT_EQ(h.live, kept);
    EXPECT_EQ(h.live_low_q, kept_low);
    check(c, "diagonal-only refill");
    EXPECT_EQ(h.d_at(5, 0, 0), c.diag[5](0, 0));
}

TEST(Spmv, HsbcsrStorageIsHalfOfFull) {
    const sp::BsrMatrix a = random_spd_bsr(50, 120, 17);
    const sp::HsbcsrMatrix h = sp::hsbcsr_from_bsr(a);
    const sp::CsrMatrix c = sp::csr_from_bsr_full(a);
    // HSBCSR stores n + m blocks; the full expansion stores n + 2m.
    EXPECT_LT(h.data_bytes(),
              (static_cast<std::size_t>(a.n) + 2 * a.vals.size()) * 36 * sizeof(double) + 1);
    EXPECT_GT(c.nnz(), 0u);
}

TEST(Ell, RoundStructure) {
    // 8 block rows = 48 scalar rows: divisible by the slice height, so the
    // sliced format can only reduce padding (per-slice width <= global max;
    // a ragged final slice would add row padding instead).
    const sp::BsrMatrix a = random_spd_bsr(8, 8, 50);
    const sp::CsrMatrix c = sp::csr_from_bsr_full(a);
    const sp::EllMatrix e = sp::ell_from_csr(c);
    EXPECT_EQ(e.rows, c.rows);
    EXPECT_GE(e.padded_nnz(), c.nnz());
    const sp::SlicedEllMatrix s8 = sp::sliced_ell_from_csr(c, 8);
    EXPECT_LE(s8.padded_nnz(), e.padded_nnz());
    EXPECT_GE(s8.padded_nnz(), c.nnz());
}

TEST(Ell, SpmvMatchesCsr) {
    for (unsigned seed : {60u, 61u, 62u}) {
        const sp::BsrMatrix a = random_spd_bsr(9 + seed % 5, 14, seed);
        const sp::CsrMatrix c = sp::csr_from_bsr_full(a);
        const sp::EllMatrix e = sp::ell_from_csr(c);
        const sp::SlicedEllMatrix s = sp::sliced_ell_from_csr(c, 8);
        std::vector<double> x(c.rows);
        for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.3 * (i % 7) - 1.0;
        std::vector<double> y_ref(c.rows);
        std::vector<double> y_e(c.rows);
        std::vector<double> y_s(c.rows);
        sp::csr_multiply(c, x, y_ref);
        gdda::simt::KernelCost kc;
        sp::spmv_ell(e, x, y_e, &kc);
        sp::spmv_sliced_ell(s, x, y_s, &kc);
        EXPECT_GT(kc.flops, 0.0);
        for (std::size_t i = 0; i < y_ref.size(); ++i) {
            EXPECT_NEAR(y_e[i], y_ref[i], 1e-10 * (1 + std::abs(y_ref[i])));
            EXPECT_NEAR(y_s[i], y_ref[i], 1e-10 * (1 + std::abs(y_ref[i])));
        }
    }
}

TEST(Ell, SliceHeightOne) {
    // Degenerate slicing: exact row lengths, zero padding beyond nnz.
    const sp::BsrMatrix a = random_spd_bsr(5, 4, 70);
    const sp::CsrMatrix c = sp::csr_from_bsr_full(a);
    const sp::SlicedEllMatrix s = sp::sliced_ell_from_csr(c, 1);
    EXPECT_EQ(s.padded_nnz(), c.nnz());
}

// ---------------------------------------------------------------------------
// Row-sorted sliced ELL — the selectable solve-path SpMV backend.

namespace {

std::uint64_t dbits(double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

} // namespace

TEST(SortedSell, PermutationIsBijective) {
    const sp::BsrMatrix a = random_spd_bsr(23, 60, 80); // ragged row lengths
    const sp::CsrMatrix c = sp::csr_from_bsr_full(a);
    const sp::SortedSellMatrix s = sp::sorted_sell_from_csr(c, 32);
    ASSERT_EQ(s.perm.size(), c.rows);
    ASSERT_EQ(s.inv_perm.size(), c.rows);
    std::vector<bool> seen(c.rows, false);
    for (std::size_t p = 0; p < c.rows; ++p) {
        ASSERT_LT(s.perm[p], c.rows);
        EXPECT_FALSE(seen[s.perm[p]]) << "perm repeats row " << s.perm[p];
        seen[s.perm[p]] = true;
        EXPECT_EQ(s.inv_perm[s.perm[p]], p) << "inv_perm is not the inverse";
    }
    // Descending row lengths in sorted order, stable on ties.
    for (std::size_t p = 0; p + 1 < c.rows; ++p) {
        const std::size_t la = c.row_ptr[s.perm[p] + 1] - c.row_ptr[s.perm[p]];
        const std::size_t lb = c.row_ptr[s.perm[p + 1] + 1] - c.row_ptr[s.perm[p + 1]];
        EXPECT_GE(la, lb);
        if (la == lb) {
            EXPECT_LT(s.perm[p], s.perm[p + 1]) << "tie broke stability";
        }
    }
}

TEST(SortedSell, PaddedLanesAreExactPositiveZeroWithOwnRowIndex) {
    const sp::BsrMatrix a = random_spd_bsr(19, 40, 81);
    const sp::CsrMatrix c = sp::csr_from_bsr_full(a);
    const sp::SortedSellMatrix s = sp::sorted_sell_from_csr(c, 16);
    for (std::size_t sl = 0; sl < s.slice_width.size(); ++sl) {
        const std::size_t r0 = sl * s.slice_height;
        const std::size_t r1 = std::min(r0 + s.slice_height, s.rows);
        const std::size_t base = s.slice_ptr[sl];
        for (std::size_t rs = r0; rs < r1; ++rs) {
            const std::size_t lane = rs - r0;
            const std::size_t orig = s.perm[rs];
            const std::size_t len = c.row_ptr[orig + 1] - c.row_ptr[orig];
            for (std::size_t k = len; k < s.slice_width[sl]; ++k) {
                const std::size_t at = base + k * s.slice_height + lane;
                EXPECT_EQ(dbits(s.vals[at]), dbits(+0.0))
                    << "padding must be exact +0.0 (slice " << sl << " lane " << lane << ")";
                EXPECT_EQ(s.cols[at], static_cast<std::uint32_t>(orig))
                    << "padding must gather the row's own index";
            }
        }
    }
}

TEST(SortedSell, SpmvMatchesCsrIncludingDegenerateSizes) {
    // n = 0 and n = 1 block rows plus ragged multi-slice sizes.
    for (int n : {0, 1, 3, 23, 40}) {
        const sp::BsrMatrix a = random_spd_bsr(std::max(n, 0), 3 * n, 90 + n);
        const sp::CsrMatrix c = sp::csr_from_bsr_full(a);
        const sp::SortedSellMatrix s = sp::sorted_sell_from_csr(c, 32);
        std::vector<double> x(c.rows);
        for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.3 * (i % 7) - 1.0;
        std::vector<double> y_ref(c.rows);
        std::vector<double> y(c.rows, -1.0);
        sp::csr_multiply(c, x, y_ref);
        gdda::simt::KernelCost kc;
        sp::spmv_sorted_sell(s, x, y, &kc);
        for (std::size_t i = 0; i < y_ref.size(); ++i)
            EXPECT_NEAR(y[i], y_ref[i], 1e-10 * (1 + std::abs(y_ref[i]))) << "n=" << n;
        if (n > 0) {
            EXPECT_GT(kc.flops, 0.0);
        }
    }
}
