// Solver playground: assemble one real DDA step system from a slope model,
// then compare preconditioners and SpMV kernels on it interactively. A
// compact tour of the numerical layer of the library.
//
// Usage: solver_playground [target_blocks]

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "assembly/assembler.hpp"
#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "core/gpu_support.hpp"
#include "models/slope.hpp"
#include "solver/ilu0.hpp"
#include "solver/pcg.hpp"

using namespace gdda;
using Clock = std::chrono::steady_clock;

int main(int argc, char** argv) {
    const int target_blocks = argc > 1 ? std::atoi(argv[1]) : 400;

    // Build one step's stiffness system: detect contacts, close them, and
    // assemble with gravity loading.
    block::BlockSystem sys = models::make_slope_with_blocks(target_blocks);
    const double rho = 0.02 * sys.characteristic_length();
    const auto pairs = contact::broad_phase_triangular(sys, rho);
    auto np = contact::narrow_phase(sys, pairs, rho);
    for (auto& c : np.contacts) c.state = contact::ContactState::Lock;
    const auto geo = contact::contact_geometry(sys, np.contacts);

    assembly::StepParams sp;
    sp.dt = 1e-3;
    sp.contact.penalty = 10.0 * sys.max_young();
    sp.contact.shear_penalty = sp.contact.penalty;
    sp.fixed_penalty = sp.contact.penalty;
    const auto att = assembly::index_attachments(sys);
    const auto as = assembly::assemble_serial(sys, att, np.contacts, geo, sp);

    std::printf("system: %d block rows (%zu scalar), %d non-diagonal blocks\n", as.k.n,
                as.k.scalar_dim(), as.k.nnz_blocks_upper());

    const sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(as.k);

    std::printf("\n%-12s %10s %12s %12s %10s\n", "precond", "iters", "build(ms)",
                "solve(ms)", "conv");
    for (auto kind :
         {core::PrecondKind::BlockJacobi, core::PrecondKind::SsorAi, core::PrecondKind::Ilu0}) {
        const auto t0 = Clock::now();
        const auto pre = core::make_preconditioner(kind, as.k);
        const double build_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

        sparse::BlockVec x(as.k.n);
        const auto t1 = Clock::now();
        const auto r = solver::pcg(h, as.f, x, *pre, {.max_iters = 5000, .rel_tol = 1e-10});
        const double solve_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
        std::printf("%-12s %10d %12.3f %12.3f %10s\n", pre->name().c_str(), r.iterations,
                    build_ms, solve_ms, r.converged ? "yes" : "NO");
    }

    // ILU level structure: why TSS is slow on the GPU.
    const solver::Ilu0 ilu(as.k);
    std::printf("\nILU(0): %d lower levels, %d upper levels over %zu rows\n",
                ilu.lower_levels(), ilu.upper_levels(), ilu.dim());
    std::printf("  -> a level-scheduled GPU solve serializes ~%d dependent launches\n",
                ilu.lower_levels() + ilu.upper_levels());
    return 0;
}
