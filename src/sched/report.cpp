#include "sched/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "trace/chrome_export.hpp"

namespace gdda::sched {

namespace {

/// Nearest-rank percentile of an already-sorted sample vector.
double percentile(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

BatchReport BatchReport::from(std::vector<JobResult> jobs, int workers, double wall_ms,
                              const simt::DeviceProfile& dev) {
    BatchReport r;
    r.jobs = std::move(jobs);
    r.workers = workers;
    r.wall_ms = wall_ms;

    std::vector<double> samples;
    for (const JobResult& j : r.jobs) {
        switch (j.state) {
            case JobState::Done: ++r.done; break;
            case JobState::Failed: ++r.failed; break;
            case JobState::Cancelled: ++r.cancelled; break;
            case JobState::DeadlineExceeded: ++r.deadline_exceeded; break;
            default: break;
        }
        r.steps_total += j.steps_done;
        r.steps_computed += j.steps_computed;
        // Exact per-job high-water accounting from the scheduler: a step is
        // recomputed only when some earlier attempt already executed that
        // step index (checkpoint-preserved progress is NOT recomputation).
        r.steps_recomputed += j.steps_recomputed;
        r.pcg_failed_solves += j.pcg_failed_solves;
        if (j.pcg_failed_solves > 0) ++r.jobs_with_failed_solves;
        r.nonconverged_steps += j.nonconverged_steps;
        r.step_retries += j.step_retries;
        r.rejected_pcg_solves += j.rejected_pcg_solves;
        r.rejected_pcg_iterations += j.rejected_pcg_iterations;
        r.rejected_open_close_iters += j.rejected_open_close_iters;
        r.dt_min_steps += j.dt_min_steps;
        r.busy_ms += j.wall_ms;
        r.timers.merge(j.timers);
        r.ledgers.merge(j.ledgers);
        samples.insert(samples.end(), j.step_ms.begin(), j.step_ms.end());
    }
    std::sort(samples.begin(), samples.end());
    r.p50_step_ms = percentile(samples, 0.50);
    r.p95_step_ms = percentile(samples, 0.95);
    r.max_step_ms = samples.empty() ? 0.0 : samples.back();

    const double wall_s = wall_ms * 1e-3;
    if (wall_s > 0.0) {
        r.jobs_per_s = static_cast<double>(r.done) / wall_s;
        r.steps_per_s = static_cast<double>(r.steps_total) / wall_s;
    }
    if (workers > 0 && wall_ms > 0.0)
        r.worker_utilization = r.busy_ms / (static_cast<double>(workers) * wall_ms);
    r.modeled_device_ms = r.ledgers.total_modeled_ms(dev);
    if (wall_ms > 0.0) r.device_utilization = r.modeled_device_ms / wall_ms;
    return r;
}

std::string BatchReport::summary() const {
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line, "%-18s %-9s %7s %6s %9s %9s %6s  %s\n", "job", "state",
                  "steps", "try", "wall ms", "queue ms", "lane", "hash");
    out += line;
    for (const JobResult& j : jobs) {
        std::snprintf(line, sizeof line, "%-18.18s %-9.9s %3d/%-3d %6d %9.2f %9.2f %6d  %016llx\n",
                      j.name.c_str(), std::string(job_state_name(j.state)).c_str(),
                      j.steps_done, j.steps_requested, j.attempts, j.wall_ms, j.queue_ms,
                      j.worker, static_cast<unsigned long long>(j.state_hash));
        out += line;
        if (!j.error.empty()) {
            std::snprintf(line, sizeof line, "    error: %.200s\n", j.error.c_str());
            out += line;
        }
        if (j.pcg_failed_solves > 0) {
            std::snprintf(line, sizeof line, "    warning: %lld non-converged PCG solve(s)\n",
                          j.pcg_failed_solves);
            out += line;
        }
        if (!j.postmortem_path.empty()) {
            std::snprintf(line, sizeof line, "    post-mortem: %.200s\n",
                          j.postmortem_path.c_str());
            out += line;
        }
    }
    std::snprintf(line, sizeof line,
                  "%zu jobs: %d done, %d failed, %d cancelled, %d deadline-exceeded | "
                  "%d workers, %.1f ms wall\n",
                  jobs.size(), done, failed, cancelled, deadline_exceeded, workers, wall_ms);
    out += line;
    std::snprintf(line, sizeof line,
                  "throughput: %.2f jobs/s, %.1f unique steps/s | step latency p50 %.3f ms, "
                  "p95 %.3f ms, max %.3f ms\n",
                  jobs_per_s, steps_per_s, p50_step_ms, p95_step_ms, max_step_ms);
    out += line;
    if (steps_recomputed > 0) {
        std::snprintf(line, sizeof line,
                      "retry waste: %lld of %lld executed steps were recomputation "
                      "(%lld unique)\n",
                      steps_recomputed, steps_computed, steps_total);
        out += line;
    }
    if (pcg_failed_solves > 0 || nonconverged_steps > 0 || step_retries > 0) {
        std::snprintf(line, sizeof line,
                      "solver health: %lld non-converged solve(s) across %d job(s), "
                      "%lld last-resort step(s), %lld step retries\n",
                      pcg_failed_solves, jobs_with_failed_solves, nonconverged_steps,
                      step_retries);
        out += line;
    }
    if (rejected_pcg_solves > 0 || rejected_open_close_iters > 0 || dt_min_steps > 0) {
        std::snprintf(line, sizeof line,
                      "rejected work: %lld PCG solve(s), %lld PCG iteration(s), %lld "
                      "open-close pass(es) in retried attempts | %lld step(s) hit dt_min\n",
                      rejected_pcg_solves, rejected_pcg_iterations, rejected_open_close_iters,
                      dt_min_steps);
        out += line;
    }
    std::snprintf(line, sizeof line,
                  "occupancy: workers %.1f%% busy | modeled device load %.3f ms "
                  "(%.2f device-ms per wall-ms)\n",
                  100.0 * worker_utilization, modeled_device_ms, device_utilization);
    out += line;
    return out;
}

obs::JsonValue BatchReport::to_json() const {
    using obs::JsonValue;
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue::string(std::string(kBatchSchemaName)));
    doc.set("version", JsonValue::integer(kBatchSchemaVersion));
    doc.set("workers", JsonValue::integer(workers));
    doc.set("wall_ms", JsonValue::number(wall_ms));
    doc.set("done", JsonValue::integer(done));
    doc.set("failed", JsonValue::integer(failed));
    doc.set("cancelled", JsonValue::integer(cancelled));
    doc.set("deadline_exceeded", JsonValue::integer(deadline_exceeded));
    doc.set("steps_total", JsonValue::integer(steps_total));
    doc.set("steps_computed", JsonValue::integer(steps_computed));
    doc.set("steps_recomputed", JsonValue::integer(steps_recomputed));
    doc.set("pcg_failed_solves", JsonValue::integer(pcg_failed_solves));
    doc.set("jobs_with_failed_solves", JsonValue::integer(jobs_with_failed_solves));
    doc.set("nonconverged_steps", JsonValue::integer(nonconverged_steps));
    doc.set("step_retries", JsonValue::integer(step_retries));
    doc.set("rejected_pcg_solves", JsonValue::integer(rejected_pcg_solves));
    doc.set("rejected_pcg_iterations", JsonValue::integer(rejected_pcg_iterations));
    doc.set("rejected_open_close_iters", JsonValue::integer(rejected_open_close_iters));
    doc.set("dt_min_steps", JsonValue::integer(dt_min_steps));
    doc.set("jobs_per_s", JsonValue::number(jobs_per_s));
    doc.set("steps_per_s", JsonValue::number(steps_per_s));
    doc.set("p50_step_ms", JsonValue::number(p50_step_ms));
    doc.set("p95_step_ms", JsonValue::number(p95_step_ms));
    doc.set("max_step_ms", JsonValue::number(max_step_ms));
    doc.set("busy_ms", JsonValue::number(busy_ms));
    doc.set("worker_utilization", JsonValue::number(worker_utilization));
    doc.set("modeled_device_ms", JsonValue::number(modeled_device_ms));
    doc.set("device_utilization", JsonValue::number(device_utilization));

    JsonValue arr = JsonValue::array();
    for (const JobResult& j : jobs) {
        JsonValue row = JsonValue::object();
        row.set("name", JsonValue::string(j.name));
        row.set("state", JsonValue::string(std::string(job_state_name(j.state))));
        row.set("steps_requested", JsonValue::integer(j.steps_requested));
        row.set("steps_done", JsonValue::integer(j.steps_done));
        row.set("steps_computed", JsonValue::integer(j.steps_computed));
        if (j.steps_recomputed > 0)
            row.set("steps_recomputed", JsonValue::integer(j.steps_recomputed));
        if (j.resumed_from_step > 0)
            row.set("resumed_from_step", JsonValue::integer(j.resumed_from_step));
        row.set("attempts", JsonValue::integer(j.attempts));
        row.set("worker", JsonValue::integer(j.worker));
        row.set("wall_ms", JsonValue::number(j.wall_ms));
        row.set("queue_ms", JsonValue::number(j.queue_ms));
        row.set("sim_time", JsonValue::number(j.sim_time));
        char hash[17];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(j.state_hash));
        row.set("state_hash", JsonValue::string(hash));
        row.set("pcg_failed_solves", JsonValue::integer(j.pcg_failed_solves));
        row.set("nonconverged_steps", JsonValue::integer(j.nonconverged_steps));
        row.set("step_retries", JsonValue::integer(j.step_retries));
        row.set("rejected_pcg_solves", JsonValue::integer(j.rejected_pcg_solves));
        row.set("rejected_pcg_iterations", JsonValue::integer(j.rejected_pcg_iterations));
        row.set("rejected_open_close_iters", JsonValue::integer(j.rejected_open_close_iters));
        row.set("dt_min_steps", JsonValue::integer(j.dt_min_steps));
        if (!j.postmortem_path.empty())
            row.set("postmortem_path", JsonValue::string(j.postmortem_path));
        if (!j.error.empty()) row.set("error", JsonValue::string(j.error));
        arr.push(std::move(row));
    }
    doc.set("jobs", std::move(arr));
    return doc;
}

bool write_batch_trace(const std::string& path, const BatchReport& report,
                       const std::string& device, std::string* err) {
    // Merge per-job event streams: remap span ids to stay globally unique and
    // give every worker its own lane (tid) so per-lane nesting stays valid.
    std::vector<trace::Event> merged;
    std::uint64_t dropped = 0;
    std::uint32_t id_base = 0;
    std::uint64_t seq = 0;
    for (const JobResult& j : report.jobs) {
        std::uint32_t max_id = 0;
        for (const trace::Event& src : j.trace_events) {
            trace::Event e = src;
            if (e.id) e.id += id_base;
            if (e.parent) e.parent += id_base;
            e.tid = static_cast<std::uint32_t>(j.worker >= 0 ? j.worker + 1 : 1);
            e.seq = seq++;
            max_id = std::max(max_id, std::max(src.id, src.parent));
            merged.push_back(std::move(e));
        }
        id_base += max_id;
        dropped += j.trace_dropped;
    }
    if (merged.empty()) {
        if (err) *err = "no trace events collected (SchedulerConfig::collect_traces off?)";
        return false;
    }
    trace::TraceConfig cfg;
    cfg.enabled = true;
    cfg.device = device;
    cfg.ring_capacity = merged.size();
    const obs::JsonValue doc = trace::chrome_trace_document(merged, cfg, dropped);
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out) {
        if (err) *err = "cannot open '" + path + "' for writing";
        return false;
    }
    out << doc.dump() << '\n';
    if (!out) {
        if (err) *err = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

} // namespace gdda::sched
