#pragma once
// Shared helpers for the paper-reproduction benches: a fixed-width table
// printer and builders for "one DDA step system" matrices at a given scale.

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "assembly/assembler.hpp"
#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "metrics/registry.hpp"
#include "models/slope.hpp"
#include "obs/json.hpp"
#include "par/thread_budget.hpp"
#include "sparse/hsbcsr.hpp"
#include "trace/tracer.hpp"

#ifndef GDDA_GIT_SHA
#define GDDA_GIT_SHA "unknown"
#endif

namespace gdda::bench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Nanoseconds per operation for `iters` repetitions of `op`.
template <typename Op>
double ns_per_op(long iters, Op&& op) {
    const auto t0 = Clock::now();
    for (long i = 0; i < iters; ++i) op();
    return ms_since(t0) * 1e6 / static_cast<double>(iters);
}

/// Keep the compiler from discarding the computation of `value` inside a
/// timing loop: an empty asm statement that claims to read it and to touch
/// all memory, so neither the value nor the stores before it can be elided.
template <typename T>
inline void do_not_optimize(const T& value) {
    asm volatile("" : : "r,m"(value) : "memory");
}

inline void rule(int width = 78) {
    for (int i = 0; i < width; ++i) std::putchar('-');
    std::putchar('\n');
}

inline void header(const std::string& title) {
    std::printf("\n");
    rule();
    std::printf("%s\n", title.c_str());
    rule();
}

/// Reproducibility metadata stamped into every bench report: which revision
/// of the code produced the numbers (GDDA_GIT_SHA is injected by CMake at
/// configure time), when, and against which modeled device profile — so a
/// diff script can refuse to compare reports from different builds/devices.
inline obs::JsonValue make_report_meta(const std::string& device = "k40") {
    obs::JsonValue meta = obs::JsonValue::object();
    meta.set("schema_version", obs::JsonValue::integer(1));
    meta.set("git_sha", obs::JsonValue::string(GDDA_GIT_SHA));
    std::time_t now = std::time(nullptr);
    char stamp[sizeof "1970-01-01T00:00:00Z"];
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
    meta.set("timestamp", obs::JsonValue::string(stamp));
    meta.set("device_profile",
             obs::JsonValue::string(trace::device_profile_by_name(device).name));
    // CPU execution backend: the step team active on this thread and the
    // physical core count, so wall-clock numbers from different thread
    // configurations are never diffed against each other by accident.
    meta.set("step_threads", obs::JsonValue::integer(par::effective_team()));
    meta.set("hardware_concurrency", obs::JsonValue::integer(par::hardware_concurrency()));
    // Scaling trajectories recorded on a host with fewer than 4 cores are
    // not interpretable as speedups (a 1-core CI runner reports <1x for
    // every parallel configuration); the flag lets diff tooling and readers
    // discount them instead of mistaking them for regressions
    // (docs/PERFORMANCE.md, "Reading benchmarks from under-provisioned
    // hosts"). Bitwise gates are unaffected — they hold on any host.
    meta.set("host_underprovisioned",
             obs::JsonValue::boolean(par::hardware_concurrency() < 4));
    // Metrics-layer snapshot: schema version of the live-metrics documents
    // this build writes and how many series the process-wide registry held
    // when the report was stamped — lets report tooling pair a bench run
    // with its metrics exposition unambiguously.
    meta.set("metrics_schema_version", obs::JsonValue::integer(metrics::kMetricsSchemaVersion));
    meta.set("metrics_registry_size",
             obs::JsonValue::integer(static_cast<long long>(metrics::Registry::global().size())));
    return meta;
}

/// Process-wide override for the report-overwrite guard below; benches set
/// it from a --force flag.
inline bool& force_report_overwrite() {
    static bool f = false;
    return f;
}

/// True when writing `stamped` over the file at `path` would replace a
/// report recorded on a well-provisioned host (meta.host_underprovisioned
/// == false) with one from an under-provisioned host. Committed perf
/// trajectories must never silently degrade this way — a 1-core CI runner
/// re-running a bench would otherwise clobber the reference numbers.
inline bool report_downgrades_provisioning(const std::string& path,
                                           const obs::JsonValue& stamped) {
    std::ifstream in(path);
    if (!in) return false; // no existing report: nothing to protect
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    obs::JsonValue old;
    if (!obs::JsonValue::parse(text, old)) return false; // corrupt: overwrite freely
    const obs::JsonValue* old_meta = old.find("meta");
    if (!old_meta || !old_meta->is_object()) return false;
    const obs::JsonValue* old_up = old_meta->find("host_underprovisioned");
    const obs::JsonValue* new_meta = stamped.find("meta");
    const obs::JsonValue* new_up =
        new_meta && new_meta->is_object() ? new_meta->find("host_underprovisioned") : nullptr;
    const bool old_well_provisioned = old_up && old_up->is_bool() && !old_up->as_bool();
    const bool new_underprovisioned = new_up && new_up->is_bool() && new_up->as_bool();
    return old_well_provisioned && new_underprovisioned;
}

/// Write one machine-readable report document and announce it on stdout.
/// Every bench emits a BENCH_<name>.json so perf changes can be diffed by
/// scripts instead of scraped from the printed tables. Documents that do not
/// already carry a "meta" object get the default reproducibility stamp.
/// Refuses to overwrite a well-provisioned report from an under-provisioned
/// host unless force_report_overwrite() is set (benches expose --force).
inline void write_json_report(const std::string& path, const obs::JsonValue& doc) {
    obs::JsonValue stamped = doc;
    if (!stamped.find("meta")) stamped.set("meta", make_report_meta());
    if (!force_report_overwrite() && report_downgrades_provisioning(path, stamped)) {
        std::printf("kept %s: existing report was recorded on a well-provisioned host and "
                    "this host has <4 cores; pass --force to overwrite anyway\n",
                    path.c_str());
        return;
    }
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    out << stamped.dump() << '\n';
    std::printf("wrote %s\n", path.c_str());
}

/// Flat name->number report for benches without a per-module breakdown.
class MetricReport {
public:
    explicit MetricReport(std::string bench) : bench_(std::move(bench)) {
        doc_.set("schema", obs::JsonValue::string("gdda.obs.bench"));
        doc_.set("version", obs::JsonValue::integer(1));
        doc_.set("bench", obs::JsonValue::string(bench_));
    }
    void add(const std::string& name, double value) {
        metrics_.set(name, obs::JsonValue::number(value));
    }
    /// Replace the default reproducibility stamp with a custom meta object
    /// (start from make_report_meta() and extend it, so the provisioning
    /// fields the overwrite guard reads are always present).
    void set_meta(obs::JsonValue meta) { doc_.set("meta", std::move(meta)); }
    void write() {
        doc_.set("metrics", std::move(metrics_));
        write_json_report("BENCH_" + bench_ + ".json", doc_);
    }

private:
    std::string bench_;
    obs::JsonValue doc_ = obs::JsonValue::object();
    obs::JsonValue metrics_ = obs::JsonValue::object();
};

/// Assemble one representative DDA step system from a slope model, with all
/// contacts locked (the static-case load pattern). Optionally tops up the
/// off-diagonal population with random extra couplings to reach `min_nondiag`
/// blocks, so the matrix matches the paper's reported case-1 dimensions
/// (4361 diagonal / 18731 non-diagonal sub-matrices).
inline sparse::BsrMatrix make_case1_matrix(int target_blocks, int min_nondiag = 0,
                                           sparse::BlockVec* rhs = nullptr) {
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
    auto as = assembly::assemble_serial(sys, att, np.contacts, geo, sp);
    if (rhs) *rhs = as.f;

    if (as.k.nnz_blocks_upper() < min_nondiag) {
        // Top up with random symmetric couplings (kept weak so the matrix
        // stays SPD), mimicking a denser contact population.
        std::mt19937 rng(99);
        std::uniform_int_distribution<int> pick(0, as.k.n - 1);
        std::uniform_real_distribution<double> mag(-1.0, 1.0);
        std::vector<int> rows;
        std::vector<int> cols;
        std::vector<sparse::Mat6> blocks;
        // Existing entries.
        for (int i = 0; i < as.k.n; ++i) {
            rows.push_back(i);
            cols.push_back(i);
            blocks.push_back(as.k.diag[i]);
            for (int p = as.k.row_ptr[i]; p < as.k.row_ptr[i + 1]; ++p) {
                rows.push_back(i);
                cols.push_back(as.k.col_idx[p]);
                blocks.push_back(as.k.vals[p]);
            }
        }
        const double scale = 1e-4 * sp.contact.penalty;
        while (static_cast<int>(blocks.size()) - as.k.n < min_nondiag) {
            const int a = pick(rng);
            const int b = pick(rng);
            if (a == b) continue;
            sparse::Mat6 m;
            for (double& v : m.a) v = scale * mag(rng);
            rows.push_back(std::min(a, b));
            cols.push_back(std::max(a, b));
            blocks.push_back(m);
        }
        as.k = sparse::bsr_from_coo(as.k.n, rows, cols, blocks);
    }
    return as.k;
}

} // namespace gdda::bench
