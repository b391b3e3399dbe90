// Cold vs warm cost of the structure-caching solve path (symbolic/numeric
// split): how much of a per-pass solve the SolveWorkspace removes once the
// contact set is static across the open-close loop.
//
// Measured layers, each cold (structure rebuilt from scratch) vs warm
// (cached symbolic state, numeric-only refill):
//   assembly        plan build + fill            vs  indexed refill
//   conversion      hsbcsr_from_bsr              vs  hsbcsr_refill
//   preconditioner  construction                 vs  refactor()
//   PCG             zero start                   vs  warm start
//
// Correctness gates (the bench exits non-zero on violation):
//   * warm-pass matrix, RHS and HSBCSR payload bitwise-identical to cold,
//   * a static contact set must drive ZERO structural rebuilds across
//     repeated warm passes (checked via the workspace counters).
//
// Usage: bench_pipeline_reuse [blocks] [reps] [--short]

#include <cstdlib>
#include <cstring>

#include "bench_util.hpp"
#include "contact/open_close.hpp"
#include "core/engine.hpp"
#include "core/gpu_support.hpp"
#include "models/slope.hpp"
#include "solver/pcg.hpp"

using namespace gdda;

namespace {

struct Case {
    block::BlockSystem sys;
    assembly::BlockAttachments att;
    std::vector<contact::Contact> contacts;
    std::vector<contact::ContactGeometry> geo;
    assembly::StepParams sp;
};

Case make_case(int blocks) {
    Case c{models::make_slope_with_blocks(blocks), {}, {}, {}, {}};
    const double rho = 0.02 * c.sys.characteristic_length();
    const auto pairs = contact::broad_phase_triangular(c.sys, rho);
    auto np = contact::narrow_phase(c.sys, pairs, rho);
    c.contacts = std::move(np.contacts);
    for (auto& ct : c.contacts) ct.state = contact::ContactState::Lock;
    c.geo = contact::contact_geometry(c.sys, c.contacts);
    c.sp.dt = 1e-3;
    c.sp.contact.penalty = 10.0 * c.sys.max_young();
    c.sp.contact.shear_penalty = c.sp.contact.penalty;
    c.sp.fixed_penalty = c.sp.contact.penalty;
    c.att = assembly::index_attachments(c.sys);
    return c;
}

bool bitwise_equal(const assembly::AssembledSystem& a, const assembly::AssembledSystem& b) {
    if (sparse::to_dense(a.k) != sparse::to_dense(b.k)) return false;
    if (a.f.size() != b.f.size()) return false;
    for (std::size_t i = 0; i < a.f.size(); ++i)
        for (int k = 0; k < 6; ++k)
            if (a.f[i][k] != b.f[i][k]) return false;
    return true;
}

} // namespace

int main(int argc, char** argv) {
    int blocks = 600;
    int reps = 50;
    bool short_mode = false;
    int pos = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--short") == 0) {
            short_mode = true;
        } else if (pos == 0) {
            blocks = std::atoi(argv[i]);
            ++pos;
        } else {
            reps = std::atoi(argv[i]);
            ++pos;
        }
    }
    if (short_mode) {
        blocks = std::min(blocks, 200);
        reps = std::min(reps, 10);
    }

    Case c = make_case(blocks);
    std::printf("slope-stability case: %zu blocks, %zu contacts, %d reps%s\n", c.sys.size(),
                c.contacts.size(), reps, short_mode ? " (short)" : "");

    // ---- workspace-level: cold pass vs warm pass ----
    bench::header("solve path: cold vs warm (per pass, averaged)");

    // Cold: a fresh workspace every rep — full symbolic rebuild.
    double cold_asm = 0.0, cold_prep = 0.0;
    assembly::AssembledSystem cold_ref;
    sparse::HsbcsrMatrix cold_h;
    for (int r = 0; r < reps; ++r) {
        core::SolveWorkspace ws;
        auto t0 = bench::Clock::now();
        ws.assemble_diagonal(c.sys, c.att, c.sp, 1, nullptr);
        ws.assemble_contacts(c.sys, c.contacts, c.geo, c.sp, nullptr);
        cold_asm += bench::ms_since(t0);
        t0 = bench::Clock::now();
        ws.prepare_solve(core::PrecondKind::BlockJacobi, nullptr);
        cold_prep += bench::ms_since(t0);
        if (r == 0) {
            cold_ref = ws.assembled();
            cold_h = ws.matrix();
        }
    }
    cold_asm /= reps;
    cold_prep /= reps;

    // Warm: one workspace, first (cold) pass untimed, then warm reps.
    core::SolveWorkspace ws;
    ws.assemble_diagonal(c.sys, c.att, c.sp, 1, nullptr);
    ws.assemble_contacts(c.sys, c.contacts, c.geo, c.sp, nullptr);
    ws.prepare_solve(core::PrecondKind::BlockJacobi, nullptr);
    double warm_asm = 0.0, warm_prep = 0.0;
    for (int r = 0; r < reps; ++r) {
        auto t0 = bench::Clock::now();
        ws.assemble_diagonal(c.sys, c.att, c.sp, 1, nullptr);
        ws.assemble_contacts(c.sys, c.contacts, c.geo, c.sp, nullptr);
        warm_asm += bench::ms_since(t0);
        t0 = bench::Clock::now();
        ws.prepare_solve(core::PrecondKind::BlockJacobi, nullptr);
        warm_prep += bench::ms_since(t0);
    }
    warm_asm /= reps;
    warm_prep /= reps;

    bool ok = true;
    if (!bitwise_equal(ws.assembled(), cold_ref) || ws.matrix().d_data != cold_h.d_data ||
        ws.matrix().nd_data_up != cold_h.nd_data_up) {
        std::printf("FAIL: warm pass is not bitwise-identical to cold\n");
        ok = false;
    }
    if (ws.stats().cold_structure_builds != 1) {
        std::printf("FAIL: %llu structural rebuilds on a static contact set (expected 1)\n",
                    static_cast<unsigned long long>(ws.stats().cold_structure_builds));
        ok = false;
    }

    // ---- per-layer breakdown (direct APIs, same matrix) ----
    const sparse::BsrMatrix& k = ws.assembled().k;
    double conv_cold = 0.0, conv_warm = 0.0;
    sparse::HsbcsrMatrix h = sparse::hsbcsr_from_bsr(k);
    for (int r = 0; r < reps; ++r) {
        auto t0 = bench::Clock::now();
        auto h2 = sparse::hsbcsr_from_bsr(k);
        conv_cold += bench::ms_since(t0);
        t0 = bench::Clock::now();
        sparse::hsbcsr_refill(h, k);
        conv_warm += bench::ms_since(t0);
    }
    conv_cold /= reps;
    conv_warm /= reps;

    double pre_cold = 0.0, pre_warm = 0.0;
    auto pre = core::make_preconditioner(core::PrecondKind::BlockJacobi, k);
    for (int r = 0; r < reps; ++r) {
        auto t0 = bench::Clock::now();
        auto fresh = core::make_preconditioner(core::PrecondKind::BlockJacobi, k);
        pre_cold += bench::ms_since(t0);
        t0 = bench::Clock::now();
        pre->refactor(k);
        pre_warm += bench::ms_since(t0);
    }
    pre_cold /= reps;
    pre_warm /= reps;

    std::printf("%-28s %10s %10s %9s\n", "layer", "cold ms", "warm ms", "speedup");
    bench::rule();
    auto row = [](const char* name, double cold, double warm) {
        std::printf("%-28s %10.4f %10.4f %8.2fx\n", name, cold, warm,
                    warm > 0 ? cold / warm : 0.0);
    };
    row("assembly (plan+fill)", cold_asm, warm_asm);
    row("HSBCSR conversion", conv_cold, conv_warm);
    row("preconditioner setup", pre_cold, pre_warm);
    const double structural_cold = cold_asm + cold_prep;
    const double structural_warm = warm_asm + warm_prep;
    row("assembly+conversion+precond", structural_cold, structural_warm);
    const double speedup = structural_warm > 0 ? structural_cold / structural_warm : 0.0;
    if (speedup < 2.0) {
        std::printf("FAIL: warm structural pass only %.2fx faster than cold (need >= 2x)\n",
                    speedup);
        ok = false;
    }

    // ---- PCG warm start: zero start vs previous pass's solution ----
    sparse::BlockVec x_cold(k.n), x_warm(k.n);
    solver::PcgWorkspace pws;
    const auto r_cold = solver::pcg(ws.matrix(), ws.rhs(), x_cold, ws.precond(), {}, nullptr,
                                    &pws);
    x_warm = x_cold; // the open-close loop re-solves a near-identical system
    const auto r_warm = solver::pcg(ws.matrix(), ws.rhs(), x_warm, ws.precond(), {}, nullptr,
                                    &pws);
    std::printf("PCG iterations: cold start %d, warm start %d\n", r_cold.iterations,
                r_warm.iterations);

    // ---- engine-level: counters over a real settling run ----
    const int steps = short_mode ? 10 : 30;
    core::SimConfig cfg;
    cfg.dt = 5e-4;
    cfg.dt_max = 1e-3;
    cfg.velocity_carry = 1.0;
    block::BlockSystem esys = models::make_slope_with_blocks(short_mode ? 100 : 300);
    core::DdaEngine eng(esys, cfg, core::EngineMode::Gpu);
    eng.run(steps);
    const auto& st = eng.solve_workspace().stats();
    bench::rule();
    std::printf("engine %d steps: %llu cold builds, %llu warm refills, %llu kernels skipped\n",
                steps, static_cast<unsigned long long>(st.cold_structure_builds),
                static_cast<unsigned long long>(st.warm_numeric_refills),
                static_cast<unsigned long long>(st.structural_kernels_skipped));

    bench::MetricReport report("pipeline_reuse");
    report.add("blocks", static_cast<double>(c.sys.size()));
    report.add("contacts", static_cast<double>(c.contacts.size()));
    report.add("assembly_cold_ms", cold_asm);
    report.add("assembly_warm_ms", warm_asm);
    report.add("conversion_cold_ms", conv_cold);
    report.add("conversion_warm_ms", conv_warm);
    report.add("precond_cold_ms", pre_cold);
    report.add("precond_warm_ms", pre_warm);
    report.add("structural_cold_ms", structural_cold);
    report.add("structural_warm_ms", structural_warm);
    report.add("structural_speedup", speedup);
    report.add("pcg_iters_cold_start", r_cold.iterations);
    report.add("pcg_iters_warm_start", r_warm.iterations);
    report.add("engine_cold_structure_builds", static_cast<double>(st.cold_structure_builds));
    report.add("engine_warm_numeric_refills", static_cast<double>(st.warm_numeric_refills));
    report.add("engine_structural_kernels_skipped",
               static_cast<double>(st.structural_kernels_skipped));
    report.add("bitwise_identical", ok ? 1.0 : 0.0);
    report.write();

    std::printf("structural warm speedup: %.2fx %s\n", speedup, ok ? "OK" : "FAIL");
    return ok ? 0 : 1;
}
