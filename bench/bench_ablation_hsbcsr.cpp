// Ablation of HSBCSR's three design choices (DESIGN.md calls these out):
//
//  (1) slice layout      — six slices each holding local row r of every
//                          sub-matrix, vs the naive block-contiguous layout
//                          (36 consecutive doubles per block). Measured
//                          lane-accurately: transactions per warp request
//                          when one thread processes one sub-matrix.
//  (2) half storage      — upper triangle + transpose-on-the-fly vs the
//                          recovered full matrix (traffic modeled).
//  (3) texture routing   — gathering x through the texture path vs plain
//                          uncoalesced global loads (modeled).
//
//  (4) format choice     — HSBCSR vs the ELLPACK family (classic ELL and
//                          row-sorted sliced ELL), modeled K40 time and
//                          measured CPU wall clock (min of N).
//
// Usage: bench_ablation_hsbcsr [blocks] [--force]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "simt/warp_executor.hpp"
#include "sparse/ell.hpp"
#include "sparse/spmv.hpp"

using namespace gdda;
using bench::Clock;

namespace {

constexpr int kTimingReps = 7;

template <typename Fn>
double time_cpu_ms(const Fn& fn) {
    fn(); // warm up
    double best = 1e300;
    for (int i = 0; i < kTimingReps; ++i) {
        const auto t0 = Clock::now();
        fn();
        best = std::min(best, bench::ms_since(t0));
    }
    return best;
}

} // namespace

int main(int argc, char** argv) {
    int blocks = 600;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--force") == 0)
            bench::force_report_overwrite() = true;
        else
            blocks = std::atoi(argv[i]);
    }

    const sparse::BsrMatrix k = bench::make_case1_matrix(blocks);
    const sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(k);
    std::printf("matrix: %d block rows, %d non-diagonal blocks\n", k.n, h.m);

    bench::header("ABLATION 1 -- slice layout vs block-contiguous layout");
    // Block-contiguous layout for comparison: 36 doubles per block.
    std::vector<double> contiguous(static_cast<std::size_t>(h.m) * 36);
    for (int p = 0; p < h.m; ++p)
        for (int r = 0; r < 6; ++r)
            for (int c = 0; c < 6; ++c)
                contiguous[static_cast<std::size_t>(p) * 36 + r * 6 + c] = h.nd_at(p, r, c);

    simt::WarpExecutor ex;
    // Stage-1 access pattern: thread p reads its sub-matrix row r (6
    // doubles) for r = 0..5; measure global-memory transactions.
    const auto slice_stats = ex.launch(h.m, [&](simt::Lane& lane) {
        const std::size_t p = lane.thread_id();
        for (int r = 0; r < 6; ++r) {
            lane.load(r, &h.nd_data_up[static_cast<std::size_t>(r) * h.padded_m * 6 + p * 6],
                      6 * sizeof(double));
        }
    });
    const auto contig_stats = ex.launch(h.m, [&](simt::Lane& lane) {
        const std::size_t p = lane.thread_id();
        for (int r = 0; r < 6; ++r) {
            lane.load(r, &contiguous[p * 36 + static_cast<std::size_t>(r) * 6],
                      6 * sizeof(double));
        }
    });
    std::printf("%-22s %18s %22s\n", "layout", "warp requests", "transactions/request");
    std::printf("%-22s %18llu %22.2f\n", "HSBCSR slices",
                (unsigned long long)slice_stats.mem_requests,
                slice_stats.transactions_per_request());
    std::printf("%-22s %18llu %22.2f\n", "block-contiguous",
                (unsigned long long)contig_stats.mem_requests,
                contig_stats.transactions_per_request());
    std::printf("-> identical bytes, %.2fx fewer memory transactions with slices\n",
                contig_stats.transactions_per_request() /
                    slice_stats.transactions_per_request());
    // (48-byte rows: slices put 32 consecutive rows in 1536B = 12 segments
    //  per request; the contiguous layout strides 288B, touching ~3 segments
    //  *per lane*.)

    bench::header("ABLATION 2 -- half storage vs recovered full matrix");
    sparse::BlockVec x(k.n);
    for (int i = 0; i < k.n; ++i) x[i][0] = 1.0;
    sparse::BlockVec y(k.n);
    sparse::HsbcsrWorkspace ws;
    simt::KernelCost half_cost;
    sparse::spmv_hsbcsr(h, x, y, ws, &half_cost);
    simt::KernelCost full_cost;
    sparse::spmv_bsr_full(k, x, y, &full_cost);
    const auto& dev = simt::tesla_k40();
    std::printf("half (HSBCSR): %8.1f KB data, %7.3f ms modeled\n",
                (half_cost.bytes_coalesced + half_cost.bytes_texture) / 1e3,
                simt::modeled_ms(half_cost, dev));
    std::printf("full (BCSR)  : %8.1f KB data, %7.3f ms modeled\n",
                (full_cost.bytes_coalesced + full_cost.bytes_texture) / 1e3,
                simt::modeled_ms(full_cost, dev));
    std::printf("-> but the full matrix must be *recovered* inside every open-close\n"
                "   pass (+%zu KB of writes per rebuild), which is what HSBCSR avoids\n",
                static_cast<std::size_t>(h.m) * 36 * sizeof(double) / 1000);

    bench::header("ABLATION 3 -- texture-routed gathers vs plain global loads");
    simt::KernelCost no_tex = half_cost;
    no_tex.bytes_random += no_tex.bytes_texture; // reroute gathers
    no_tex.bytes_texture = 0.0;
    std::printf("with texture path   : %7.3f ms modeled (K40)\n",
                simt::modeled_ms(half_cost, dev));
    std::printf("without texture path: %7.3f ms modeled (K40)\n",
                simt::modeled_ms(no_tex, dev));
    std::printf("-> %.2fx slower when x gathers bypass the texture cache\n",
                simt::modeled_ms(no_tex, dev) / simt::modeled_ms(half_cost, dev));

    bench::header("ABLATION 4 -- format: HSBCSR vs ELL vs sliced ELL (sorted)");
    // The three formats the solve path can actually route through (plus the
    // classic ELL baseline): same matrix, same x, exact y everywhere — only
    // the layout and hence the traffic shape differs.
    const sparse::CsrMatrix c = sparse::csr_from_bsr_full(k);
    const sparse::EllMatrix ell = sparse::ell_from_csr(c);
    const sparse::SortedSellMatrix ssell = sparse::sorted_sell_from_csr(c, 32);
    const std::vector<double> xf = sparse::flatten(x);
    std::vector<double> yf(xf.size());

    const double hsb_cpu = time_cpu_ms([&] { sparse::spmv_hsbcsr(h, x, y, ws); });
    simt::KernelCost ell_cost;
    const double ell_cpu = time_cpu_ms([&] { sparse::spmv_ell(ell, xf, yf); });
    sparse::spmv_ell(ell, xf, yf, &ell_cost);
    simt::KernelCost ssell_cost;
    const double ssell_cpu = time_cpu_ms([&] { sparse::spmv_sorted_sell(ssell, xf, yf); });
    sparse::spmv_sorted_sell(ssell, xf, yf, &ssell_cost);

    std::printf("%-22s %14s %14s %14s\n", "format", "CPU ms (min)", "K40 model ms",
                "data KB");
    std::printf("%-22s %14.3f %14.3f %14.1f\n", "HSBCSR", hsb_cpu,
                simt::modeled_ms(half_cost, dev), h.data_bytes() / 1e3);
    std::printf("%-22s %14.3f %14.3f %14.1f\n", "ELL", ell_cpu,
                simt::modeled_ms(ell_cost, dev), ell.data_bytes() / 1e3);
    std::printf("%-22s %14.3f %14.3f %14.1f\n", "SortedSELL", ssell_cpu,
                simt::modeled_ms(ssell_cost, dev), ssell.data_bytes() / 1e3);
    std::printf("-> ELL zero-fill %.0f%%, sorted SELL %.0f%% (row sorting collapses "
                "per-slice padding)\n",
                100.0 * (double(ell.padded_nnz()) / c.nnz() - 1.0),
                100.0 * (double(ssell.padded_nnz()) / c.nnz() - 1.0));

    bench::MetricReport rep("ablation_hsbcsr");
    rep.add("timing_reps", kTimingReps);
    rep.add("half_k40_ms", simt::modeled_ms(half_cost, dev));
    rep.add("full_k40_ms", simt::modeled_ms(full_cost, dev));
    rep.add("no_texture_k40_ms", simt::modeled_ms(no_tex, dev));
    rep.add("texture_gain",
            simt::modeled_ms(no_tex, dev) / simt::modeled_ms(half_cost, dev));
    rep.add("hsbcsr_cpu_ms", hsb_cpu);
    rep.add("ell_cpu_ms", ell_cpu);
    rep.add("sorted_sell_cpu_ms", ssell_cpu);
    rep.add("ell_k40_ms", simt::modeled_ms(ell_cost, dev));
    rep.add("sorted_sell_k40_ms", simt::modeled_ms(ssell_cost, dev));
    rep.add("ell_fill_pct", 100.0 * (double(ell.padded_nnz()) / c.nnz() - 1.0));
    rep.add("sorted_sell_fill_pct", 100.0 * (double(ssell.padded_nnz()) / c.nnz() - 1.0));
    rep.write();
    return 0;
}
