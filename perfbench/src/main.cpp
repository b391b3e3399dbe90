// gdda_perfbench — the end-to-end benchmark program. One run measures one
// workload for a fixed wall-clock window and prints, as its last stdout
// line, one JSON object {correct, attempted, failed, metrics}. Earlier lines
// carry run metadata (`meta ...`) and workload-shape counts (`counts ...`).
//
// Usage: gdda_perfbench --workload <slope_static|lattice_freefall|session_fleet>
//                       --seed N --seconds S --trace 0|1
//                       [--work-dir DIR] [--inject-mismatch]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

void RunResult::note(std::string key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    meta.emplace_back(std::move(key), buf);
}

void RunResult::note(std::string key, const std::string& v) {
    meta.emplace_back(std::move(key), "\"" + v + "\"");
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank < 1) rank = 1;
    if (rank > v.size()) rank = v.size();
    return v[rank - 1];
}

double tail(std::vector<double> v, double* p_out) {
    // The order statistic with exactly ten samples above it. Unlike a fixed
    // percentile ladder this moves smoothly with the sample count, so runs
    // that complete a few more or fewer steps never jump between rungs.
    constexpr std::size_t kBeyond = 10;
    std::sort(v.begin(), v.end());
    if (v.empty()) {
        if (p_out) *p_out = 0.0;
        return 0.0;
    }
    const std::size_t n = v.size();
    const std::size_t idx = n > kBeyond ? n - kBeyond - 1 : n - 1;
    if (p_out) *p_out = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
    return v[idx];
}

namespace {
double status_mib(const std::string& field) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(field, 0) == 0) return std::atof(line.c_str() + field.size()) / 1024.0;
    }
    return 0.0;
}
} // namespace

double peak_rss_mib() { return status_mib("VmHWM:"); }
double rss_mib() { return status_mib("VmRSS:"); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {
volatile double g_probe_sink = 0.0;
} // namespace

double host_probe_seconds() {
    // Fixed integer + floating-point dependency chain; the result feeds a
    // volatile sink so the loop cannot be folded away.
    const double t0 = now_s();
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    double acc = 0.0;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc * 0.999999 + static_cast<double>(x & 0xffff);
    }
    g_probe_sink = acc;
    return now_s() - t0;
}

namespace {

void print_result(const RunResult& r, bool trace) {
    for (const auto& [k, v] : r.meta) std::printf("meta %s=%s\n", k.c_str(), v.c_str());
    std::printf("counts {");
    for (std::size_t i = 0; i < r.counts.size(); ++i)
        std::printf("%s\"%s\": %.17g", i ? ", " : "", r.counts[i].first.c_str(),
                    r.counts[i].second);
    std::printf("}\n");
    const std::vector<Metric>& ms = trace ? r.per_layer : r.end_to_end;
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                r.correct ? "true" : "false", r.attempted, r.failed);
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr, "gdda_perfbench: %s\n", msg);
    std::fprintf(stderr,
                 "usage: gdda_perfbench --workload <slope_static|lattice_freefall|"
                 "session_fleet> --seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--inject-mismatch]\n");
    std::exit(2);
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") o.workload = value();
        else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds") o.seconds = std::atof(value().c_str());
        else if (a == "--trace") o.trace = value() == "1";
        else if (a == "--work-dir") o.work_dir = value();
        else if (a == "--inject-mismatch") o.inject_mismatch = true;
        else usage(("unknown argument " + a).c_str());
    }
    if (o.seconds <= 0.0) usage("--seconds must be positive");

    try {
        RunResult r;
        if (o.workload == "slope_static") r = run_slope_static(o);
        else if (o.workload == "lattice_freefall") r = run_lattice_freefall(o);
        else if (o.workload == "session_fleet") r = run_session_fleet(o);
        else usage(("unknown workload '" + o.workload + "'").c_str());
        print_result(r, o.trace);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gdda_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
