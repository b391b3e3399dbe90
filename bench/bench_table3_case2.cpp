// Reproduces Table III: per-module time costs and speed-up rates for case 2
// (dynamic motion of falling rocks on a slope).
//
// Paper (1683 loose blocks, 80000 steps): total speed-up only 5.5x (K20) /
// 6.3x (K40) -- the model is small and the dynamic equation systems are easy
// (few PCG iterations), so the GPU's parallelism is underused relative to
// case 1. The shape to reproduce: *much* lower total speed-up than case 1,
// with non-diagonal matrix building at ~2x and equation solving in the
// single digits.
//
// Usage: bench_table3_case2 [rocks] [steps]

#include <cstdlib>

#include "bench_case_util.hpp"
#include "models/falling_rocks.hpp"

using namespace gdda;

int main(int argc, char** argv) {
    const int rocks = argc > 1 ? std::atoi(argv[1]) : 350;
    const int steps = argc > 2 ? std::atoi(argv[2]) : 40;

    models::FallingRocksParams p;
    p.slope_height = 150.0;
    p.floor_length = 200.0;
    block::BlockSystem sys = models::make_falling_rocks_with_blocks(rocks, p);
    std::printf("case 2 model: %zu blocks total (target %d loose rocks)\n", sys.size(),
                rocks);

    core::SimConfig cfg;
    cfg.dt = 2e-3;
    cfg.dt_max = 4e-3;
    cfg.velocity_carry = 1.0; // dynamic analysis
    cfg.precond = core::PrecondKind::BlockJacobi;

    const bench::CaseResult r = bench::run_case(std::move(sys), cfg, steps);
    bench::print_case_table("TABLE III -- case 2 (falling rocks, dynamic)", r);
    bench::write_case_report("table3_case2", r);

    auto su = [&](core::Module m) {
        const double s = r.serial.seconds(m);
        const double g = r.k40[static_cast<int>(m)] / 1e3;
        return g > 0 ? s / g : 0.0;
    };
    double tot_s = r.serial.total();
    double tot_g = 0.0;
    for (double ms : r.k40) tot_g += ms / 1e3;
    bench::rule();
    // The total ratio divides this host's measured CPU time by the modelled
    // K40 time, so it scales with the host, not with the pipeline: it is
    // reported next to the paper's figure, not checked against it.
    std::printf("total speed-up (host-dependent, information only): %.1fx measured host / "
                "modelled K40; paper 6.3x (E5620 / K40)\n",
                tot_s / tot_g);
    std::printf("shape checks (paper: non-diag ~2.4x, solving ~4.4x on K40):\n");
    std::printf("  non-diagonal building worst accelerated: %s (%.1fx)\n",
                su(core::Module::NondiagBuild) <= su(core::Module::EquationSolving)
                    ? "OK"
                    : "FAIL",
                su(core::Module::NondiagBuild));
    return 0;
}
