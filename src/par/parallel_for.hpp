#pragma once
// Thin data-parallel loop abstraction standing in for a CUDA kernel launch.
// Backed by OpenMP when available; the loop body must be race-free across
// indices, exactly like a CUDA grid-stride kernel body.
//
// Team width comes from the per-thread budget in thread_budget.hpp (engine
// request clamped by the scheduler cap, falling back to the ambient OpenMP
// default), so a sched::Scheduler worker and a latency-mode single engine
// can share one binary without oversubscribing the host. The `grain`
// parameter is the minimum number of indices worth one thread's dispatch:
// loops smaller than two grains fall through to the plain serial loop so
// tiny scenes never pay the OpenMP fork/join overhead.

#include <cstddef>

#ifdef _OPENMP
#include <omp.h>
#endif

// ThreadSanitizer does not see the fork/join of an OpenMP runtime that was
// not built with it, and reports every hand-off between the calling thread
// and the team as a race. Under TSan, parallel_for therefore runs the team
// on std::thread (see run_team_on_threads below).
#if defined(__SANITIZE_THREAD__)
#define GDDA_TSAN_FORK_JOIN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GDDA_TSAN_FORK_JOIN 1
#endif
#endif
#ifdef GDDA_TSAN_FORK_JOIN
#include <algorithm>
#include <thread>
#include <vector>
#endif

#include "par/thread_budget.hpp"
#include "trace/clock.hpp"

namespace gdda::par {

/// Default grain: below ~2 x this many indices a parallel dispatch costs
/// more than it buys on element-wise bodies.
inline constexpr std::size_t kDefaultGrain = 256;

namespace detail {
inline double& parallel_seconds_slot() {
    thread_local double s = 0.0;
    return s;
}
inline int& parallel_depth_slot() {
    thread_local int d = 0;
    return d;
}

#ifdef GDDA_TSAN_FORK_JOIN
/// Whether this thread runs a slice of a team started by
/// run_team_on_threads: a nested parallel_for then runs inline, as OpenMP
/// runs a nested region on a team of one.
inline bool& in_thread_team() {
    thread_local bool inside = false;
    return inside;
}

/// The OpenMP static schedule (contiguous slices, the first n % team one
/// index longer) on team - 1 std::threads plus the caller. Creating and
/// joining a std::thread are happens-before edges ThreadSanitizer sees,
/// where libgomp's futex hand-off is not; even stating the fork with
/// __tsan_release/__tsan_acquire inside an OpenMP region leaves every
/// member's read of the region's argument block, made before its first
/// statement, reported as a race.
template <typename Body>
void run_team_on_threads(std::size_t n, int team, Body& body) {
    auto slice = [&](std::size_t t) {
        const std::size_t members = static_cast<std::size_t>(team);
        const std::size_t q = n / members;
        const std::size_t r = n % members;
        const std::size_t begin = t * q + std::min(t, r);
        const std::size_t end = begin + q + (t < r ? 1 : 0);
        in_thread_team() = true;
        for (std::size_t i = begin; i < end; ++i) body(i);
        in_thread_team() = false;
    };
    std::vector<std::thread> members;
    struct JoinAll {
        std::vector<std::thread>& threads;
        ~JoinAll() {
            for (std::thread& t : threads)
                if (t.joinable()) t.join();
        }
    } join_all{members};
    for (int t = 1; t < team; ++t) members.emplace_back(slice, static_cast<std::size_t>(t));
    slice(0);
}
#endif
} // namespace detail

/// Cumulative wall-clock seconds this thread has spent inside dispatch-
/// eligible parallel_for regions (n large enough for the grain to allow a
/// team dispatch). Eligibility — not the actual team width — decides what
/// counts, so a 1-core host still reports the *parallelizable* fraction of
/// its step time and the Amdahl picture survives under-provisioned CI.
/// Timed on trace::now_us(), the clock module timers and spans read.
/// Sample before/after a region of interest and subtract.
inline double parallel_region_seconds() { return detail::parallel_seconds_slot(); }

template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
    const bool eligible = (grain == 0 || n >= 2 * grain);
    // Outermost eligible dispatch only: nested parallel_for calls issued from
    // inside a loop body (device_scan's internal passes, chunk bodies) would
    // otherwise double-charge the same wall time.
    const bool timed = eligible && detail::parallel_depth_slot()++ == 0;
    const double t0_us = timed ? trace::now_us() : 0.0;
#ifdef _OPENMP
    const int team = effective_team();
    if (team > 1 && eligible) {
#ifdef GDDA_TSAN_FORK_JOIN
        if (detail::in_thread_team()) {
            for (std::size_t i = 0; i < n; ++i) body(i);
        } else {
            detail::run_team_on_threads(n, team, body);
        }
#else
#pragma omp parallel for schedule(static) num_threads(team)
        for (long long i = 0; i < static_cast<long long>(n); ++i)
            body(static_cast<std::size_t>(i));
#endif
    } else {
        for (std::size_t i = 0; i < n; ++i) body(i);
    }
#else
    for (std::size_t i = 0; i < n; ++i) body(i);
#endif
    if (eligible) {
        if (timed)
            detail::parallel_seconds_slot() += (trace::now_us() - t0_us) * 1e-6;
        --detail::parallel_depth_slot();
    }
}

template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
    parallel_for(n, kDefaultGrain, static_cast<Body&&>(body));
}

inline int hardware_threads() {
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

} // namespace gdda::par
