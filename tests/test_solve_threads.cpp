// CPU execution backend: bitwise determinism of the parallel solve hot path.
// The contract under test (par/deterministic_reduce.hpp): every reduction,
// SpMV, PCG solve, and full engine trajectory produces the SAME bits for ANY
// solver team size — 1, 2, 4, or 8 threads, oversubscribed or not — because
// the summation order is a pure function of the problem size. Also covers
// the thread-budget arbiter rules, the parallel_for grain fallthrough, the
// fused-vs-textbook PCG identity, and the zero warm-start SpMV skip algebra.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <vector>

#include "core/engine.hpp"
#include "models/stacks.hpp"
#include "par/deterministic_reduce.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_budget.hpp"
#include "sched/manifest.hpp"
#include "sched/scheduler.hpp"
#include "solver/pcg.hpp"
#include "solver/preconditioner.hpp"
#include "solver/vector_ops.hpp"
#include "sparse/ell.hpp"
#include "sparse/spmv.hpp"
#include "test_util.hpp"

using namespace gdda;
using testutil::random_block_vec;
using testutil::random_spd_bsr;

namespace {

const int kTeams[] = {1, 2, 4, 8};

std::uint64_t bits(double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

void expect_same_bits(const sparse::BlockVec& a, const sparse::BlockVec& b,
                      const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        for (int k = 0; k < 6; ++k)
            ASSERT_EQ(bits(a[i][k]), bits(b[i][k]))
                << what << ": block " << i << " lane " << k;
}

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(bits(a[i]), bits(b[i])) << what << ": entry " << i;
}

} // namespace

// ---------------------------------------------------------------------------
// Thread-budget arbiter

TEST(ThreadBudget, NegotiateKeepsWorkersTimesInnerWithinHost) {
    const int hw = par::hardware_concurrency();
    ASSERT_GE(hw, 1);
    // Auto (0): split the machine evenly, never below one thread.
    EXPECT_EQ(par::negotiate_inner_threads(1, 0), hw);
    EXPECT_EQ(par::negotiate_inner_threads(hw, 0), 1);
    EXPECT_EQ(par::negotiate_inner_threads(4 * hw, 0), 1);
    // Explicit requests are clamped to the fair share.
    EXPECT_EQ(par::negotiate_inner_threads(2, 1), 1);
    EXPECT_EQ(par::negotiate_inner_threads(1, 1000000), hw);
    for (int workers = 1; workers <= 2 * hw; ++workers) {
        const int inner = par::negotiate_inner_threads(workers, 0);
        EXPECT_GE(inner, 1);
        EXPECT_LE(workers * inner, std::max(workers, hw))
            << "workers=" << workers << " must not oversubscribe";
    }
}

TEST(ThreadBudget, ScopedTeamInstallsAndRestores) {
    ASSERT_EQ(par::team_size(), 0) << "test assumes no ambient team request";
    {
        par::ScopedTeamSize outer(4);
        EXPECT_EQ(par::team_size(), 4);
        {
            par::ScopedTeamSize inner(2);
            EXPECT_EQ(par::team_size(), 2);
            EXPECT_EQ(par::effective_team(), 2);
        }
        EXPECT_EQ(par::team_size(), 4);
        par::ScopedTeamSize noop(0); // 0 = leave the current setting untouched
        EXPECT_EQ(par::team_size(), 4);
    }
    EXPECT_EQ(par::team_size(), 0);
}

TEST(ThreadBudget, CapClampsExplicitTeams) {
    par::ScopedTeamSize team(8);
    EXPECT_EQ(par::effective_team(), 8) << "explicit requests may oversubscribe";
    {
        par::ScopedThreadCap cap(2);
        EXPECT_EQ(par::effective_team(), 2) << "scheduler cap bounds the team";
    }
    EXPECT_EQ(par::effective_team(), 8);
}

// ---------------------------------------------------------------------------
// parallel_for grain control

TEST(ParallelFor, GrainNeverChangesResults) {
    const std::size_t n = 10000;
    std::vector<double> expect(n);
    for (std::size_t i = 0; i < n; ++i) expect[i] = std::sin(0.001 * double(i));
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        for (std::size_t grain : {std::size_t{0}, std::size_t{1}, par::kDefaultGrain,
                                  std::size_t{1000000} /* serial fallthrough */}) {
            std::vector<double> got(n, -1.0);
            par::parallel_for(n, grain, [&](std::size_t i) {
                got[i] = std::sin(0.001 * double(i));
            });
            expect_same_bits(expect, got,
                             "team " + std::to_string(team) + " grain " +
                                 std::to_string(grain));
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic reductions

TEST(DeterministicReduce, SingleChunkDegeneratesToSerialSum) {
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<double> v(par::kReduceChunk); // exactly one chunk
    for (double& x : v) x = u(rng);
    double serial = 0.0;
    for (double x : v) serial += x * x;
    par::ScopedTeamSize team(8);
    const double got = par::deterministic_reduce(
        v.size(), [&](std::size_t b, std::size_t e) {
            double s = 0.0;
            for (std::size_t i = b; i < e; ++i) s += v[i] * v[i];
            return s;
        });
    EXPECT_EQ(bits(serial), bits(got))
        << "small inputs must match the historic left-to-right sum exactly";
}

TEST(DeterministicReduce, BlockDotNormBitsInvariantAcrossTeams) {
    const int n = 2500; // > 2 chunks of 1024 blocks
    const sparse::BlockVec a = random_block_vec(n, 1);
    const sparse::BlockVec b = random_block_vec(n, 2);
    par::ScopedTeamSize base(1);
    const std::uint64_t dot1 = bits(sparse::dot(a, b));
    const std::uint64_t norm1 = bits(sparse::norm(a));
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        EXPECT_EQ(dot1, bits(sparse::dot(a, b))) << "dot, team " << team;
        EXPECT_EQ(norm1, bits(sparse::norm(a))) << "norm, team " << team;
    }
}

TEST(DeterministicReduce, ScalarDotBitsInvariantAcrossTeams) {
    std::mt19937 rng(3);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::vector<double> a(30000), b(30000);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = u(rng);
        b[i] = u(rng);
    }
    par::ScopedTeamSize base(1);
    const std::uint64_t dot1 = bits(solver::dot(a, b));
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        EXPECT_EQ(dot1, bits(solver::dot(a, b))) << "scalar dot, team " << team;
    }
}

// ---------------------------------------------------------------------------
// SpMV

TEST(SpmvHsbcsr, BitsInvariantAcrossTeams) {
    const sparse::BsrMatrix a = random_spd_bsr(600, 900, 5);
    const sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(a);
    const sparse::BlockVec x = random_block_vec(600, 6);
    sparse::HsbcsrWorkspace ws;
    sparse::BlockVec y1(600);
    {
        par::ScopedTeamSize base(1);
        sparse::spmv_hsbcsr(h, x, y1, ws);
    }
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        sparse::BlockVec y(600);
        sparse::spmv_hsbcsr(h, x, y, ws);
        expect_same_bits(y1, y, "spmv team " + std::to_string(team));
    }
}

// The algebra behind the zero warm-start skip: A * 0 is an exact +0.0 in
// every component (each slice accumulator starts at +0.0 and only ever adds
// signed zeros), and b - (+0.0) reproduces b bitwise, signed zeros included.
TEST(SpmvHsbcsr, ZeroVectorYieldsPositiveZeroAndPreservesRhs) {
    const sparse::BsrMatrix a = random_spd_bsr(40, 60, 9);
    const sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(a);
    sparse::BlockVec x(40);
    for (int i = 0; i < 40; i += 3) x[i][2] = -0.0; // signed zeros still "zero"
    sparse::BlockVec y(40);
    sparse::HsbcsrWorkspace ws;
    sparse::spmv_hsbcsr(h, x, y, ws);
    for (int i = 0; i < 40; ++i)
        for (int k = 0; k < 6; ++k)
            ASSERT_EQ(bits(y[i][k]), bits(+0.0)) << "A*0 must be exactly +0.0";

    sparse::BlockVec b = random_block_vec(40, 10);
    b[0][0] = -0.0;
    b[1][1] = +0.0;
    for (int i = 0; i < 40; ++i)
        for (int k = 0; k < 6; ++k)
            ASSERT_EQ(bits(b[i][k] - y[i][k]), bits(b[i][k]))
                << "b - A*0 must reproduce b bitwise";
}

// ---------------------------------------------------------------------------
// PCG

namespace {

struct PcgRun {
    sparse::BlockVec x;
    std::vector<double> residuals;
    int iterations = 0;
    bool converged = false;
};

constexpr int kPcgMaxIters = 400;
constexpr double kPcgRelTol = 1e-11;

PcgRun run_pcg(const sparse::HsbcsrMatrix& h, const sparse::BlockVec& b,
               const solver::Preconditioner& m, const sparse::BlockVec* warm = nullptr) {
    PcgRun run;
    run.x = warm ? *warm : sparse::BlockVec(h.n);
    solver::PcgOptions opts;
    opts.max_iters = kPcgMaxIters;
    opts.rel_tol = kPcgRelTol;
    opts.residual_log = &run.residuals;
    const solver::PcgResult res = solver::pcg(h, b, run.x, m, opts);
    run.iterations = res.iterations;
    run.converged = res.converged;
    return run;
}

/// Textbook PCG, one kernel per operation: r = b - A x, then per iteration
/// an SpMV, dot(p,ap), two axpys, the preconditioner apply, dot(r,z),
/// norm(r) and xpay. solver::pcg fuses the x,r update with norm(r) and
/// the apply with dot(r,z); the fusion must not change a bit.
PcgRun run_textbook_pcg(const sparse::HsbcsrMatrix& a, const sparse::BlockVec& b,
                        const solver::Preconditioner& m, const sparse::BlockVec* warm) {
    PcgRun run;
    run.x = warm ? *warm : sparse::BlockVec(a.n);
    sparse::HsbcsrWorkspace ws;
    sparse::BlockVec r(a.n), z(a.n), ap(a.n);
    sparse::spmv_hsbcsr(a, run.x, r, ws);
    for (int i = 0; i < a.n; ++i) r[i] = b[i] - r[i];
    const double bnorm = sparse::norm(b);
    m.apply(r, z);
    double rz = sparse::dot(r, z);
    sparse::BlockVec p = z;
    double rnorm = sparse::norm(r);
    run.residuals.push_back(rnorm / bnorm);
    for (int it = 0; it < kPcgMaxIters; ++it) {
        if (rnorm / bnorm < kPcgRelTol) {
            run.converged = true;
            break;
        }
        sparse::spmv_hsbcsr(a, p, ap, ws);
        const double alpha = rz / sparse::dot(p, ap);
        sparse::axpy(alpha, p, run.x);
        sparse::axpy(-alpha, ap, r);
        m.apply(r, z);
        const double rz_new = sparse::dot(r, z);
        rnorm = sparse::norm(r);
        sparse::xpay(z, rz_new / rz, p);
        rz = rz_new;
        run.residuals.push_back(rnorm / bnorm);
        ++run.iterations;
    }
    return run;
}

std::vector<std::unique_ptr<solver::Preconditioner>> all_preconds(const sparse::BsrMatrix& a) {
    std::vector<std::unique_ptr<solver::Preconditioner>> v;
    v.push_back(solver::make_identity(a.n));
    v.push_back(solver::make_block_jacobi(a));
    v.push_back(solver::make_ssor_ai(a));
    v.push_back(solver::make_ilu0(a));
    return v;
}

} // namespace

TEST(PcgThreads, BitsInvariantAcrossTeamsAllPreconditioners) {
    const sparse::BsrMatrix a = random_spd_bsr(300, 400, 11);
    const sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(a);
    const sparse::BlockVec b = random_block_vec(300, 12);
    for (const auto& m : all_preconds(a)) {
        PcgRun base;
        {
            par::ScopedTeamSize one(1);
            base = run_pcg(h, b, *m);
        }
        ASSERT_TRUE(base.converged) << m->name();
        for (int team : kTeams) {
            par::ScopedTeamSize scope(team);
            const PcgRun run = run_pcg(h, b, *m);
            EXPECT_EQ(base.iterations, run.iterations) << m->name() << " team " << team;
            expect_same_bits(base.x, run.x, m->name() + " x, team " + std::to_string(team));
            expect_same_bits(base.residuals, run.residuals,
                             m->name() + " residuals, team " + std::to_string(team));
        }
    }
}

TEST(PcgThreads, LiveListMatchesAllLive) {
    // The engine's matrix multiplies only its live blocks; the same matrix
    // marked all-live multiplies every stored block. PCG on the two must
    // agree bit for bit, on the contact-rich scenes whose closed contacts
    // leave most stored blocks +0.
    std::size_t partial = 0; // passes whose list skipped some blocks
    for (const char* spec : {"tunnel", "slope:60", "column:8"}) {
        block::BlockSystem sys = sched::parse_scene_spec(spec)();
        core::DdaEngine engine(sys, core::SimConfig{}, core::EngineMode::Serial);
        for (int step = 1; step <= 8; ++step) {
            engine.step();
            if (step % 2) continue;
            const core::SolveWorkspace& ws = engine.solve_workspace();
            const sparse::HsbcsrMatrix& h = ws.matrix();
            ASSERT_TRUE(h.live_known) << spec;
            if (h.live_count() > 0 && h.live_count() < static_cast<std::size_t>(h.m)) ++partial;
            sparse::HsbcsrMatrix all = h;
            all.mark_all_live();
            for (int team : {1, 2}) {
                par::ScopedTeamSize scope(team);
                const PcgRun got = run_pcg(h, ws.rhs(), ws.precond());
                const PcgRun ref = run_pcg(all, ws.rhs(), ws.precond());
                const std::string tag = std::string(spec) + " step " + std::to_string(step) +
                                        " team " + std::to_string(team);
                EXPECT_EQ(got.iterations, ref.iterations) << tag;
                expect_same_bits(got.x, ref.x, tag + " x");
                expect_same_bits(got.residuals, ref.residuals, tag + " residuals");
            }
        }
    }
    EXPECT_GT(partial, 0u) << "no pass exercised a partial live list";
}

TEST(PcgThreads, MultiChunkSystemBitsInvariantAcrossTeams) {
    // > kReduceChunk blocks so every reduction in the solve is multi-chunk.
    const int n = 3000;
    const sparse::BsrMatrix a = random_spd_bsr(n, 4000, 21);
    const sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(a);
    const sparse::BlockVec b = random_block_vec(n, 22);
    const auto m = solver::make_block_jacobi(a);
    PcgRun base;
    {
        par::ScopedTeamSize one(1);
        base = run_pcg(h, b, *m);
    }
    ASSERT_TRUE(base.converged);
    for (int team : {2, 8}) {
        par::ScopedTeamSize scope(team);
        const PcgRun run = run_pcg(h, b, *m);
        EXPECT_EQ(base.iterations, run.iterations) << "team " << team;
        expect_same_bits(base.x, run.x, "x, team " + std::to_string(team));
    }
}

TEST(PcgThreads, FusedMatchesUnfusedBitwise) {
    // A cold start (x = 0) also covers pcg's skipped warm-start SpMV: the
    // textbook loop always runs it, and b - A*0 must reproduce b bitwise.
    const sparse::BsrMatrix a = random_spd_bsr(300, 400, 31);
    const sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(a);
    const sparse::BlockVec b = random_block_vec(300, 32);
    const sparse::BlockVec warm = random_block_vec(300, 33);
    for (const auto& m : all_preconds(a)) {
        for (const sparse::BlockVec* w : {static_cast<const sparse::BlockVec*>(nullptr), &warm}) {
            const PcgRun fused = run_pcg(h, b, *m, w);
            const PcgRun plain = run_textbook_pcg(h, b, *m, w);
            ASSERT_TRUE(fused.converged) << m->name();
            EXPECT_TRUE(plain.converged) << m->name();
            EXPECT_EQ(fused.iterations, plain.iterations) << m->name();
            expect_same_bits(fused.x, plain.x, m->name() + " fused vs textbook x");
            expect_same_bits(fused.residuals, plain.residuals,
                             m->name() + " fused vs textbook residuals");
        }
    }
}

TEST(PcgThreads, ZeroWarmStartSkipChargesNoSpmv) {
    const sparse::BsrMatrix a = random_spd_bsr(50, 60, 41);
    const sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(a);
    const sparse::BlockVec b = random_block_vec(50, 42);

    // One-iteration budget isolates the entry cost: cold start must account
    // exactly one fewer SpMV launch than a (non-zero) warm start.
    solver::PcgOptions opts;
    opts.max_iters = 1;
    const auto m = solver::make_block_jacobi(a);

    sparse::BlockVec x_cold(50);
    simt::KernelCost cold = simt::KernelCost::accumulator();
    solver::pcg(h, b, x_cold, *m, opts, &cold);

    sparse::BlockVec x_warm = random_block_vec(50, 43);
    simt::KernelCost warm = simt::KernelCost::accumulator();
    solver::pcg(h, b, x_warm, *m, opts, &warm);

    EXPECT_EQ(cold.launches + 2, warm.launches)
        << "cold start must skip the warm-start SpMV (2 launches) entirely";
}

// ---------------------------------------------------------------------------
// Comparison SpMV format: the sorted sliced-ELL kernel holds the same
// determinism contract.

TEST(SpmvSell, SortedSellBitsInvariantAcrossTeams) {
    const sparse::BsrMatrix a = random_spd_bsr(400, 700, 52);
    const sparse::CsrMatrix c = sparse::csr_from_bsr_full(a);
    const sparse::SortedSellMatrix s = sparse::sorted_sell_from_csr(c, 32);
    std::vector<double> x(c.rows);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.3 * double(i % 11) - 1.0;
    std::vector<double> y1(c.rows);
    {
        par::ScopedTeamSize base(1);
        sparse::spmv_sorted_sell(s, x, y1);
    }
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        std::vector<double> y(c.rows);
        sparse::spmv_sorted_sell(s, x, y);
        expect_same_bits(y1, y, "sorted sell team " + std::to_string(team));
    }
}

// ---------------------------------------------------------------------------
// Solve set-up: the HSBCSR numeric refill and the Block-Jacobi refactor run
// per block in parallel, so their outputs are the same bytes for any team.

TEST(SolveSetupThreads, RefillAndBlockJacobiBitsInvariantAcrossTeams) {
    const int n = 3000; // several grains of both parallel loops
    const sparse::BsrMatrix a = random_spd_bsr(n, 4500, 13);
    struct Setup {
        std::vector<double> diag, upper, inverses;
    };
    auto run = [&] {
        Setup s;
        sparse::HsbcsrMatrix h = sparse::hsbcsr_structure(a);
        sparse::hsbcsr_refill(h, a);
        s.diag = h.d_data;
        s.upper = h.nd_data_up;
        // Column k of every block inverse is the preconditioner applied to
        // the k-th unit vector (exact: the other five products are zeros).
        const auto pre = solver::make_block_jacobi(a);
        for (int k = 0; k < 6; ++k) {
            sparse::BlockVec e(n);
            for (sparse::Vec6& v : e) v[k] = 1.0;
            sparse::BlockVec col(n);
            pre->apply(e, col, nullptr);
            for (const sparse::Vec6& v : col)
                for (int r = 0; r < 6; ++r) s.inverses.push_back(v[r]);
        }
        return s;
    };
    Setup base;
    {
        par::ScopedTeamSize one(1);
        base = run();
    }
    for (int team : {1, 2, 4}) {
        par::ScopedTeamSize scope(team);
        const Setup s = run();
        const std::string tag = "team " + std::to_string(team);
        ASSERT_EQ(base.diag.size(), s.diag.size()) << tag;
        ASSERT_EQ(base.upper.size(), s.upper.size()) << tag;
        ASSERT_EQ(base.inverses.size(), s.inverses.size()) << tag;
        EXPECT_EQ(0, std::memcmp(base.diag.data(), s.diag.data(),
                                 s.diag.size() * sizeof(double))) << tag;
        EXPECT_EQ(0, std::memcmp(base.upper.data(), s.upper.data(),
                                 s.upper.size() * sizeof(double))) << tag;
        EXPECT_EQ(0, std::memcmp(base.inverses.data(), s.inverses.data(),
                                 s.inverses.size() * sizeof(double))) << tag;
    }
}

// ---------------------------------------------------------------------------
// Full pipeline

TEST(EngineThreads, TrajectoryBitsInvariantAcrossSolverThreads) {
    for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
        std::uint64_t baseline = 0;
        {
            block::BlockSystem sys = models::make_column(6);
            core::SimConfig cfg;
            cfg.step_threads = 0; // ambient
            core::DdaEngine engine(sys, cfg, mode);
            for (int s = 0; s < 20; ++s) engine.step();
            baseline = sched::state_fingerprint(sys);
        }
        for (int threads : kTeams) {
            block::BlockSystem sys = models::make_column(6);
            core::SimConfig cfg;
            cfg.step_threads = threads;
            core::DdaEngine engine(sys, cfg, mode);
            for (int s = 0; s < 20; ++s) engine.step();
            EXPECT_EQ(baseline, sched::state_fingerprint(sys))
                << "mode " << (mode == core::EngineMode::Gpu ? "gpu" : "serial")
                << " step_threads " << threads;
        }
    }
}

TEST(SchedulerThreads, LatencyAndThroughputModesBitwiseIdentical) {
    auto make_jobs = [] {
        std::vector<sched::Job> jobs;
        for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
            sched::Job j;
            j.name = mode == core::EngineMode::Gpu ? "col-gpu" : "col-serial";
            j.scene = [] { return models::make_column(5); };
            j.mode = mode;
            j.steps = 4;
            jobs.push_back(std::move(j));
        }
        return jobs;
    };
    auto hashes = [](const sched::BatchReport& r) {
        std::vector<std::uint64_t> h;
        for (const auto& j : r.jobs) h.push_back(j.state_hash);
        return h;
    };

    sched::SchedulerConfig throughput;
    throughput.workers = 2;
    throughput.inner_threads = 1; // classic one-job-one-core pinning
    const auto pinned = hashes(sched::Scheduler::run_batch(make_jobs(), throughput));

    sched::SchedulerConfig latency;
    latency.workers = 1;
    latency.inner_threads = 0; // negotiate: the single worker gets the host
    const auto wide = hashes(sched::Scheduler::run_batch(make_jobs(), latency));

    EXPECT_EQ(pinned, wide) << "arbiter modes must not change trajectories";

    // And both must match direct engine loops on this thread.
    std::vector<std::uint64_t> solo;
    for (const sched::Job& j : make_jobs()) {
        block::BlockSystem sys = j.scene();
        core::DdaEngine engine(sys, j.config, j.mode);
        for (int s = 0; s < j.steps; ++s) engine.step();
        solo.push_back(sched::state_fingerprint(sys));
    }
    EXPECT_EQ(pinned, solo);
}

TEST(ManifestThreads, ThreadsKeyFlowsIntoSimConfig) {
    std::istringstream in("heavy floor 3 threads=4\nauto floor 2\n");
    const auto jobs = sched::parse_manifest(in, {});
    ASSERT_EQ(jobs.size(), 2u);
    // threads= now names the whole-step team (contact + assembly + solve).
    EXPECT_EQ(jobs[0].config.step_threads, 4);
    EXPECT_EQ(jobs[1].config.step_threads, 0);

    std::istringstream bad("broken floor 3 threads=-2\n");
    EXPECT_THROW(sched::parse_manifest(bad, {}), std::invalid_argument);
}
