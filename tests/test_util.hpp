#pragma once
// Shared test helpers: random symmetric positive-definite block matrices
// with DDA-like structure (dominant diagonal blocks, sparse off-diagonals).

#include <random>
#include <vector>

#include "sparse/bsr.hpp"

namespace gdda::testutil {

/// Random SPD block matrix: ring + random extra couplings, diagonally
/// dominant so CG converges. `extra` off-diagonal blocks beyond the ring.
inline sparse::BsrMatrix random_spd_bsr(int n, int extra, unsigned seed,
                                        double coupling = 0.3) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);

    auto random_block = [&]() {
        sparse::Mat6 m;
        for (int r = 0; r < 6; ++r)
            for (int c = 0; c < 6; ++c) m(r, c) = coupling * u(rng);
        return m;
    };

    std::vector<int> rows;
    std::vector<int> cols;
    std::vector<sparse::Mat6> blocks;

    // Ring couplings keep the graph connected.
    for (int i = 0; i + 1 < n; ++i) {
        rows.push_back(i);
        cols.push_back(i + 1);
        blocks.push_back(random_block());
    }
    // An empty matrix has no row to draw (and pick(0, -1) would break the
    // distribution's precondition). A 1-row matrix still draws and rejects
    // its pairs, which keeps the diagonal draws below at the same bits.
    if (n >= 1) {
        std::uniform_int_distribution<int> pick(0, n - 1);
        for (int e = 0; e < extra; ++e) {
            int a = pick(rng);
            int b = pick(rng);
            if (a == b) continue;
            rows.push_back(std::min(a, b));
            cols.push_back(std::max(a, b));
            blocks.push_back(random_block());
        }
    }

    // Diagonal: symmetric, dominant enough to guarantee SPD for any number
    // of unit-bounded couplings generated above.
    for (int i = 0; i < n; ++i) {
        sparse::Mat6 d;
        for (int r = 0; r < 6; ++r)
            for (int c = r; c < 6; ++c) {
                const double v = 0.2 * u(rng);
                d(r, c) = v;
                d(c, r) = v;
            }
        for (int k = 0; k < 6; ++k) d(k, k) += 6.0 + 6.0 * coupling * 4.0;
        rows.push_back(i);
        cols.push_back(i);
        blocks.push_back(d);
    }
    return sparse::bsr_from_coo(n, rows, cols, blocks);
}

inline sparse::BlockVec random_block_vec(int n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    sparse::BlockVec v(n);
    for (auto& b : v)
        for (int k = 0; k < 6; ++k) b[k] = u(rng);
    return v;
}

} // namespace gdda::testutil
