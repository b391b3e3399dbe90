#pragma once
// Thread-budget arbitration for the CPU execution backend. Two thread_local
// knobs decide how wide a par::parallel_for team may be on the CALLING
// thread, mirroring how a CUDA stream pins work to one device context:
//
//   team   an explicit team-size request (SimConfig::step_threads via
//          ScopedTeamSize). 0 = unset: fall back to the ambient OpenMP
//          nthreads-var, so omp_set_num_threads() keeps working for callers
//          that manage OpenMP themselves.
//   cap    a hard upper bound installed by an outer scheduler (one
//          sched::Scheduler worker lane sets cap = inner_threads so that
//          workers x inner_threads <= hardware_concurrency). 0 = uncapped.
//
// Both are per-thread on purpose: a scheduler worker capping ITS jobs must
// never narrow an unrelated engine stepping on another thread. Results are
// invariant under every team size (deterministic_reduce.hpp fixes all
// floating-point summation orders), so the budget is purely a performance
// dial — never a correctness one.

namespace gdda::par {

/// Physical parallelism available to this process (std::thread::
/// hardware_concurrency, clamped to >= 1). Unlike omp_get_max_threads()
/// this does not shrink when a caller pins the ambient OpenMP team.
int hardware_concurrency();

/// Hard per-thread cap on team sizes (scheduler arbiter). 0 = uncapped.
void set_thread_cap(int cap);
int thread_cap();

/// Explicit per-thread team request. 0 = unset (ambient OpenMP default).
void set_team_size(int team);
int team_size();

/// The team width parallel_for will actually use on this thread right now:
/// the explicit team request (honored as asked, oversubscription included)
/// or the ambient OpenMP max when unset, clamped to the scheduler cap;
/// never below 1.
int effective_team();

/// Arbiter rule for an outer scheduler: the inner team width each of
/// `workers` lanes may use so that workers x inner <= hardware_concurrency.
/// `requested` 0 = auto (split the machine evenly, at least 1).
int negotiate_inner_threads(int workers, int requested);

/// RAII team request (engine hot paths): installs `team` (0 = leave the
/// current setting untouched) and restores the previous value on scope exit.
class ScopedTeamSize {
public:
    explicit ScopedTeamSize(int team);
    ~ScopedTeamSize();
    ScopedTeamSize(const ScopedTeamSize&) = delete;
    ScopedTeamSize& operator=(const ScopedTeamSize&) = delete;

private:
    int previous_;
    bool installed_;
};

/// RAII cap (scheduler worker lanes): installs `cap` and restores on exit.
class ScopedThreadCap {
public:
    explicit ScopedThreadCap(int cap);
    ~ScopedThreadCap();
    ScopedThreadCap(const ScopedThreadCap&) = delete;
    ScopedThreadCap& operator=(const ScopedThreadCap&) = delete;

private:
    int previous_;
};

} // namespace gdda::par
