#pragma once
// The engine's one monotonic clock: trace spans, core::ScopedTimer (the
// paper's ModuleTimers) and par::parallel_for's region timer all read it.
// Dependency-free and inline so the par layer needs no tracer.

#include <chrono>

namespace gdda::trace {

/// Microseconds since the first call in this process. Monotonic, never
/// negative.
[[nodiscard]] inline double now_us() {
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration<double, std::micro>(clock::now() - epoch).count();
}

} // namespace gdda::trace
