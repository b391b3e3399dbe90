#pragma once
// Shared plumbing of the end-to-end benchmark program: run options, the
// result document every workload fills, and the order statistics the
// metrics are built from.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Self-test: corrupt every computed fingerprint before it is compared,
    /// so the correctness gate must report a failed operation.
    bool inject_mismatch = false;
    /// Scratch directory for checkpoints and span dumps (inside the checkout).
    std::string work_dir = ".bench_build/perfbench-work";
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// One workload run: correctness verdict, operation census, metrics, and
/// free-form run metadata (printed as `meta` lines, never as metrics).
struct RunResult {
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    std::vector<std::pair<std::string, std::string>> meta;   ///< key -> JSON value
    std::vector<std::pair<std::string, double>> counts;      ///< workload-shape counts

    void e2e(std::string name, double v, std::string unit) {
        end_to_end.push_back({std::move(name), v, std::move(unit)});
    }
    void layer(std::string name, double v, std::string unit) {
        per_layer.push_back({std::move(name), v, std::move(unit)});
    }
    void count(std::string name, double v) { counts.emplace_back(std::move(name), v); }
    void note(std::string key, double v);
    void note(std::string key, const std::string& v);
};

/// Monotonic wall clock in seconds (steady_clock, arbitrary epoch).
inline double now_s() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 if empty.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Tail rule: the highest percentile with ten samples beyond it, i.e. the
/// eleventh-largest sample. `p_out` receives that percentile,
/// 100 * (n - 10) / n (the maximum when there are ten samples or fewer).
double tail(std::vector<double> v, double* p_out);

/// Peak resident set size of this process (VmHWM) in MiB.
double peak_rss_mib();
/// Current resident set size of this process (VmRSS) in MiB.
double rss_mib();

/// splitmix64: derives independent per-purpose seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Fixed benchmark-owned CPU loop (no gdda code): its wall time at the start
/// and end of a run tracks host speed drift. Returns seconds.
double host_probe_seconds();

} // namespace perfbench
