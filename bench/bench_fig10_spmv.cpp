// Reproduces Fig. 10: SpMV and TSS time on the GPU for the case-1 matrix
// (4361 diagonal sub-matrices, 18731 non-diagonal sub-matrices).
//
// Paper result: SpMV-HSBCSR is 2.8x faster than SpMV-cuSPARSE, and the
// triangular system solve (TSS) costs ~11x SpMV-cuSPARSE -- which is what
// disqualifies the ILU preconditioner.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "bench_util.hpp"
#include "solver/ilu0.hpp"
#include "sparse/ell.hpp"
#include "sparse/spmv.hpp"

using namespace gdda;
using bench::Clock;

namespace {

/// Repetitions per kernel; stamped into the report meta so a diff script
/// knows how much averaging noise the wall-clock numbers carry.
constexpr int kTimingReps = 7;

/// Min-of-N wall clock. A single-shot average folds scheduler noise and
/// cache-warming into the number; the minimum over N repetitions is the
/// standard estimator for the noise-free kernel cost on a shared host.
double time_cpu_ms(const std::function<void()>& fn) {
    fn(); // warm up
    double best = 1e300;
    for (int i = 0; i < kTimingReps; ++i) {
        const auto t0 = Clock::now();
        fn();
        best = std::min(best, bench::ms_since(t0));
    }
    return best;
}

/// Result-equality gate across SpMV backends: every backend must produce
/// the same y for the same (A, x) to full fp64 round-off (the backends are
/// exact alternatives, not approximations — each owns a fixed summation
/// order, so small cross-backend round-off differences are expected, but
/// anything beyond ~1e-12 relative means a broken kernel).
double max_rel_diff(const std::vector<double>& a, const std::vector<double>& b) {
    double scale = 0.0;
    for (double v : a) scale = std::max(scale, std::abs(v));
    if (scale == 0.0) scale = 1.0;
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
    return worst;
}

} // namespace

int main(int argc, char** argv) {
    int diag_blocks = 4361;
    int nondiag_blocks = 18731;
    int pos = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--force") == 0) {
            bench::force_report_overwrite() = true;
        } else if (pos == 0) {
            diag_blocks = std::atoi(argv[i]);
            ++pos;
        } else if (pos == 1) {
            nondiag_blocks = std::atoi(argv[i]);
            ++pos;
        }
    }

    bench::header("FIG. 10 -- SpMV and TSS on the case-1 matrix");
    std::printf("building matrix (%d diagonal / %d non-diagonal 6x6 blocks)...\n",
                diag_blocks, nondiag_blocks);
    const sparse::BsrMatrix k = bench::make_case1_matrix(diag_blocks, nondiag_blocks);
    std::printf("built: n=%d, nondiag=%d, scalar dim=%zu\n", k.n, k.nnz_blocks_upper(),
                k.scalar_dim());

    const sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(k);
    const sparse::CsrMatrix c = sparse::csr_from_bsr_full(k);

    sparse::BlockVec x(k.n);
    for (int i = 0; i < k.n; ++i)
        for (int d = 0; d < 6; ++d) x[i][d] = 0.01 * ((i + d) % 17) - 0.05;
    const std::vector<double> xf = sparse::flatten(x);

    // --- kernels ---
    sparse::BlockVec y(k.n);
    sparse::HsbcsrWorkspace ws;

    simt::KernelCost hsb_cost;
    const double hsb_cpu = time_cpu_ms([&] { sparse::spmv_hsbcsr(h, x, y, ws); });
    sparse::spmv_hsbcsr(h, x, y, ws, &hsb_cost);
    const std::vector<double> y_hsb = sparse::flatten(y);

    std::vector<double> y_cus(xf.size());
    simt::KernelCost cus_cost;
    const double cus_cpu = time_cpu_ms([&] { sparse::spmv_csr_vector(c, xf, y_cus); });
    sparse::spmv_csr_vector(c, xf, y_cus, &cus_cost);

    simt::KernelCost sca_cost;
    {
        std::vector<double> y_sca(xf.size());
        sparse::spmv_csr_scalar(c, xf, y_sca, &sca_cost);
    }

    simt::KernelCost bsr_cost;
    const double bsr_cpu = time_cpu_ms([&] { sparse::spmv_bsr_full(k, x, y); });
    sparse::spmv_bsr_full(k, x, y, &bsr_cost);
    const std::vector<double> y_bsr = sparse::flatten(y);

    // ELLPACK-family comparators from the related work (section II.B), plus
    // the row-sorted sliced ELL (SELL-R).
    const sparse::EllMatrix ell = sparse::ell_from_csr(c);
    const sparse::SlicedEllMatrix sell = sparse::sliced_ell_from_csr(c, 32);
    const sparse::SortedSellMatrix ssell = sparse::sorted_sell_from_csr(c, 32);
    std::vector<double> y_ell(xf.size());
    simt::KernelCost ell_cost;
    const double ell_cpu = time_cpu_ms([&] { sparse::spmv_ell(ell, xf, y_ell); });
    sparse::spmv_ell(ell, xf, y_ell, &ell_cost);
    std::vector<double> y_sell(xf.size());
    simt::KernelCost sell_cost;
    const double sell_cpu = time_cpu_ms([&] { sparse::spmv_sliced_ell(sell, xf, y_sell); });
    sparse::spmv_sliced_ell(sell, xf, y_sell, &sell_cost);
    std::vector<double> y_ssell(xf.size());
    simt::KernelCost ssell_cost;
    const double ssell_cpu = time_cpu_ms([&] { sparse::spmv_sorted_sell(ssell, xf, y_ssell); });
    sparse::spmv_sorted_sell(ssell, xf, y_ssell, &ssell_cost);

    // Result-equality gate: all backends multiply the same matrix by the
    // same vector, so the results must agree to round-off.
    const double eq_tol = 1e-11;
    double eq_worst = 0.0;
    bool eq_ok = true;
    auto gate = [&](const char* name, const std::vector<double>& got) {
        const double d = max_rel_diff(y_hsb, got);
        eq_worst = std::max(eq_worst, d);
        if (!(d < eq_tol)) {
            std::printf("EQUALITY FAIL: %s deviates from HSBCSR by %.3e (tol %.0e)\n",
                        name, d, eq_tol);
            eq_ok = false;
        }
    };
    gate("CSR(vector)", y_cus);
    gate("BCSR(full)", y_bsr);
    gate("ELL", y_ell);
    gate("SlicedELL", y_sell);
    gate("SortedSELL", y_ssell);

    std::printf("\nbuilding ILU(0) factors for the TSS measurement...\n");
    const solver::Ilu0 ilu(k);
    const simt::KernelCost tss_cost = ilu.tss_cost();
    std::vector<double> z(ilu.dim());
    const double tss_cpu = time_cpu_ms([&] { ilu.solve(xf, z); });
    std::printf("ILU levels: %d lower + %d upper\n", ilu.lower_levels(), ilu.upper_levels());

    const auto& k20 = simt::tesla_k20();
    const auto& k40 = simt::tesla_k40();
    bench::rule();
    std::printf("%-22s %12s %12s %12s\n", "kernel", "CPU ms", "K20 model ms",
                "K40 model ms");
    auto row = [&](const char* name, double cpu, const simt::KernelCost& kc) {
        std::printf("%-22s %12.3f %12.3f %12.3f\n", name, cpu, simt::modeled_ms(kc, k20),
                    simt::modeled_ms(kc, k40));
    };
    row("SpMV-HSBCSR", hsb_cpu, hsb_cost);
    row("SpMV-cuSPARSE(vector)", cus_cpu, cus_cost);
    row("SpMV-CSR(scalar)", -1.0, sca_cost);
    row("SpMV-BCSR(full)", bsr_cpu, bsr_cost);
    row("SpMV-ELL", ell_cpu, ell_cost);
    row("SpMV-SlicedELL", sell_cpu, sell_cost);
    row("SpMV-SortedSELL", ssell_cpu, ssell_cost);
    row("TSS (L+U solve)", tss_cpu, tss_cost);
    std::printf("  (ELL zero-fill: %.0f%%; sliced ELL: %.0f%%; sorted SELL: %.0f%%)\n",
                100.0 * (double(ell.padded_nnz()) / c.nnz() - 1.0),
                100.0 * (double(sell.padded_nnz()) / c.nnz() - 1.0),
                100.0 * (double(ssell.padded_nnz()) / c.nnz() - 1.0));
    std::printf("  result-equality gate vs HSBCSR: %s (worst rel diff %.3e, tol %.0e)\n",
                eq_ok ? "OK" : "FAIL", eq_worst, eq_tol);

    bench::rule();
    const double speedup_k40 =
        simt::modeled_ms(cus_cost, k40) / simt::modeled_ms(hsb_cost, k40);
    const double tss_ratio =
        simt::modeled_ms(tss_cost, k40) / simt::modeled_ms(cus_cost, k40);
    std::printf("HSBCSR speedup over cuSPARSE-like CSR (K40 model): %.2fx (paper: 2.8x)\n",
                speedup_k40);
    std::printf("TSS / SpMV-cuSPARSE cost ratio (K40 model):        %.1fx (paper: ~11x)\n",
                tss_ratio);
    std::printf("stored bytes: HSBCSR %.1f MB vs full CSR %.1f MB\n",
                h.data_bytes() / 1e6, c.data_bytes() / 1e6);
    std::printf("shape checks: HSBCSR faster %s; TSS >> SpMV %s\n",
                speedup_k40 > 1.5 ? "OK" : "FAIL", tss_ratio > 5.0 ? "OK" : "FAIL");

    bench::MetricReport rep("fig10_spmv");
    // Measured wall clock (min of kTimingReps) of the CPU execution backend
    // alongside the modeled SIMT costs (meta records the active solver team
    // and the repetition count).
    rep.add("timing_reps", kTimingReps);
    rep.add("hsbcsr_cpu_ms", hsb_cpu);
    rep.add("cusparse_csr_cpu_ms", cus_cpu);
    rep.add("bsr_full_cpu_ms", bsr_cpu);
    rep.add("ell_cpu_ms", ell_cpu);
    rep.add("sliced_ell_cpu_ms", sell_cpu);
    rep.add("sorted_sell_cpu_ms", ssell_cpu);
    rep.add("tss_cpu_ms", tss_cpu);
    rep.add("hsbcsr_k40_ms", simt::modeled_ms(hsb_cost, k40));
    rep.add("cusparse_csr_k40_ms", simt::modeled_ms(cus_cost, k40));
    rep.add("bsr_full_k40_ms", simt::modeled_ms(bsr_cost, k40));
    rep.add("ell_k40_ms", simt::modeled_ms(ell_cost, k40));
    rep.add("sliced_ell_k40_ms", simt::modeled_ms(sell_cost, k40));
    rep.add("sorted_sell_k40_ms", simt::modeled_ms(ssell_cost, k40));
    rep.add("tss_k40_ms", simt::modeled_ms(tss_cost, k40));
    rep.add("hsbcsr_speedup_k40", speedup_k40);
    rep.add("tss_over_spmv_k40", tss_ratio);
    rep.add("hsbcsr_data_mb", h.data_bytes() / 1e6);
    rep.add("csr_data_mb", c.data_bytes() / 1e6);
    rep.add("sorted_sell_data_mb", ssell.data_bytes() / 1e6);
    rep.add("result_equality_ok", eq_ok ? 1.0 : 0.0);
    rep.add("result_equality_worst_rel_diff", eq_worst);

    obs::JsonValue meta = bench::make_report_meta();
    meta.set("timing_reps", obs::JsonValue::integer(kTimingReps));
    meta.set("timing_estimator", obs::JsonValue::string("min_of_n"));
    rep.set_meta(std::move(meta));
    rep.write();
    return eq_ok ? 0 : 1;
}
