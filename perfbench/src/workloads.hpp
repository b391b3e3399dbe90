#pragma once
// The three benchmark workloads. Each builds its inputs from Options::seed,
// sets up, measures for Options::seconds, runs its correctness gate outside
// the timed window, and fills a RunResult.

#include "common.hpp"

namespace perfbench {

/// The paper's case 1: a 1752-block jointed slope on the Serial engine,
/// single-threaded (the plain baseline; warm reuse paths carry the step).
RunResult run_slope_static(const Options& o);

/// A 10k-block lattice in free fall on the Gpu engine mode with a 2-thread
/// step team: contact, par and simt carry the step, the solver is bypassed.
RunResult run_lattice_freefall(const Options& o);

/// One closed-loop client keeping 4 small seeded jobs outstanding against a
/// 2-worker sched::Session: cold set-up, queueing and checkpoints dominate.
RunResult run_session_fleet(const Options& o);

} // namespace perfbench
