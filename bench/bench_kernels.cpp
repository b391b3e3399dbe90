// google-benchmark microbenchmarks of the library's hot kernels: SpMV
// variants, radix sort / scan primitives, narrow phase, and assembly. These
// complement the paper-table benches with statistically sound CPU timings.

#include <benchmark/benchmark.h>

#include <random>

#include "assembly/assembler.hpp"
#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "contact/spatial_hash.hpp"
#include "models/slope.hpp"
#include "par/radix_sort.hpp"
#include "par/device_scan.hpp"
#include "par/scan.hpp"
#include "solver/pcg.hpp"
#include "sparse/ell.hpp"
#include "sparse/spmv.hpp"

using namespace gdda;

namespace {

sparse::BsrMatrix cached_matrix(int blocks) {
    static std::map<int, sparse::BsrMatrix> cache;
    auto it = cache.find(blocks);
    if (it == cache.end()) {
        block::BlockSystem sys = models::make_slope_with_blocks(blocks);
        const double rho = 0.02 * sys.characteristic_length();
        const auto pairs = contact::broad_phase_triangular(sys, rho);
        auto np = contact::narrow_phase(sys, pairs, rho);
        for (auto& c : np.contacts) c.state = contact::ContactState::Lock;
        const auto geo = contact::contact_geometry(sys, np.contacts);
        assembly::StepParams sp;
        sp.contact.penalty = 10.0 * sys.max_young();
        sp.contact.shear_penalty = sp.contact.penalty;
        sp.fixed_penalty = sp.contact.penalty;
        const auto att = assembly::index_attachments(sys);
        it = cache.emplace(blocks, assembly::assemble_serial(sys, att, np.contacts, geo, sp).k)
                 .first;
    }
    return it->second;
}

void BM_SpmvHsbcsr(benchmark::State& state) {
    const sparse::BsrMatrix k = cached_matrix(static_cast<int>(state.range(0)));
    const sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(k);
    sparse::BlockVec x(k.n);
    for (int i = 0; i < k.n; ++i) x[i][1] = 1.0 + i;
    sparse::BlockVec y(k.n);
    sparse::HsbcsrWorkspace ws;
    for (auto _ : state) {
        sparse::spmv_hsbcsr(h, x, y, ws);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * (k.n + 2 * k.nnz_blocks_upper()) * 36);
}
BENCHMARK(BM_SpmvHsbcsr)->Arg(200)->Arg(800);

void BM_SpmvCsrVector(benchmark::State& state) {
    const sparse::BsrMatrix k = cached_matrix(static_cast<int>(state.range(0)));
    const sparse::CsrMatrix c = sparse::csr_from_bsr_full(k);
    std::vector<double> x(c.rows, 1.0);
    std::vector<double> y(c.rows);
    for (auto _ : state) {
        sparse::spmv_csr_vector(c, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * c.nnz());
}
BENCHMARK(BM_SpmvCsrVector)->Arg(200)->Arg(800);

void BM_RadixSortPairs(benchmark::State& state) {
    std::mt19937_64 rng(1);
    std::vector<std::uint64_t> keys(state.range(0));
    for (auto& k : keys) k = rng();
    std::vector<std::uint32_t> vals(keys.size());
    for (auto _ : state) {
        auto k = keys;
        auto v = vals;
        par::radix_sort_pairs(k, v);
        benchmark::DoNotOptimize(k.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RadixSortPairs)->Arg(1 << 12)->Arg(1 << 16);

void BM_ExclusiveScan(benchmark::State& state) {
    std::vector<std::uint32_t> in(state.range(0), 3);
    std::vector<std::uint32_t> out(in.size());
    for (auto _ : state) {
        par::exclusive_scan(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExclusiveScan)->Arg(1 << 16);

void BM_SpmvEll(benchmark::State& state) {
    const sparse::BsrMatrix k = cached_matrix(static_cast<int>(state.range(0)));
    const sparse::CsrMatrix c = sparse::csr_from_bsr_full(k);
    const sparse::EllMatrix e = sparse::ell_from_csr(c);
    std::vector<double> x(c.rows, 1.0);
    std::vector<double> y(c.rows);
    for (auto _ : state) {
        sparse::spmv_ell(e, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * e.padded_nnz());
}
BENCHMARK(BM_SpmvEll)->Arg(200)->Arg(800);

void BM_DeviceScan(benchmark::State& state) {
    std::vector<std::uint32_t> in(state.range(0), 5);
    std::vector<std::uint32_t> out(in.size());
    for (auto _ : state) {
        par::device_exclusive_scan(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeviceScan)->Arg(1 << 16);

void BM_BroadPhaseAllPairs(benchmark::State& state) {
    block::BlockSystem sys = models::make_slope_with_blocks(static_cast<int>(state.range(0)));
    const double rho = 0.02 * sys.characteristic_length();
    for (auto _ : state) {
        auto pairs = contact::broad_phase_triangular(sys, rho);
        benchmark::DoNotOptimize(pairs.data());
    }
}
BENCHMARK(BM_BroadPhaseAllPairs)->Arg(400)->Arg(1600);

void BM_BroadPhaseSpatialHash(benchmark::State& state) {
    block::BlockSystem sys = models::make_slope_with_blocks(static_cast<int>(state.range(0)));
    const double rho = 0.02 * sys.characteristic_length();
    for (auto _ : state) {
        auto pairs = contact::broad_phase_spatial_hash(sys, rho);
        benchmark::DoNotOptimize(pairs.data());
    }
}
BENCHMARK(BM_BroadPhaseSpatialHash)->Arg(400)->Arg(1600);

void BM_NarrowPhase(benchmark::State& state) {
    block::BlockSystem sys = models::make_slope_with_blocks(static_cast<int>(state.range(0)));
    const double rho = 0.02 * sys.characteristic_length();
    const auto pairs = contact::broad_phase_triangular(sys, rho);
    for (auto _ : state) {
        auto np = contact::narrow_phase(sys, pairs, rho);
        benchmark::DoNotOptimize(np.contacts.data());
    }
    state.SetItemsProcessed(state.iterations() * pairs.size());
}
BENCHMARK(BM_NarrowPhase)->Arg(200)->Arg(800);

void BM_AssembleGpuStyle(benchmark::State& state) {
    block::BlockSystem sys = models::make_slope_with_blocks(static_cast<int>(state.range(0)));
    const double rho = 0.02 * sys.characteristic_length();
    const auto pairs = contact::broad_phase_triangular(sys, rho);
    auto np = contact::narrow_phase(sys, pairs, rho);
    for (auto& c : np.contacts) c.state = contact::ContactState::Lock;
    const auto geo = contact::contact_geometry(sys, np.contacts);
    assembly::StepParams sp;
    sp.contact.penalty = 10.0 * sys.max_young();
    sp.contact.shear_penalty = sp.contact.penalty;
    sp.fixed_penalty = sp.contact.penalty;
    const auto att = assembly::index_attachments(sys);
    const int n = static_cast<int>(sys.size());
    // A cold pass of the one assembly path both engine modes run: plan
    // build plus numeric fill (Gpu mode only adds the Fig. 4 pricing).
    for (auto _ : state) {
        const assembly::AssemblyPlan plan(n, np.contacts);
        auto as = plan.assemble(sys, att, np.contacts, geo, sp);
        benchmark::DoNotOptimize(as.k.vals.data());
    }
}
BENCHMARK(BM_AssembleGpuStyle)->Arg(200)->Arg(800);

void BM_PcgBlockJacobi(benchmark::State& state) {
    const sparse::BsrMatrix k = cached_matrix(static_cast<int>(state.range(0)));
    const sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(k);
    sparse::BlockVec b(k.n);
    for (int i = 0; i < k.n; ++i) b[i][1] = -1e5;
    const auto pre = solver::make_block_jacobi(k);
    for (auto _ : state) {
        sparse::BlockVec x(k.n);
        const auto r = solver::pcg(h, b, x, *pre, {.max_iters = 500, .rel_tol = 1e-8});
        benchmark::DoNotOptimize(r.iterations);
    }
}
BENCHMARK(BM_PcgBlockJacobi)->Arg(200);

} // namespace

BENCHMARK_MAIN();
