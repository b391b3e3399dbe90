#include "sched/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "metrics/registry.hpp"
#include "par/thread_budget.hpp"
#include "state/snapshot.hpp"
#include "trace/tracer.hpp"

namespace gdda::sched {

void SchedulerConfig::validate() const {
    if (workers < 1) throw std::invalid_argument("SchedulerConfig: workers must be >= 1");
    if (queue_capacity < 1)
        throw std::invalid_argument("SchedulerConfig: queue_capacity must be >= 1");
    if (inner_threads < 0)
        throw std::invalid_argument("SchedulerConfig: inner_threads must be >= 0");
}

Scheduler::Scheduler(SchedulerConfig cfg, core::EngineFactory factory)
    : cfg_(std::move(cfg)),
      factory_(factory ? std::move(factory) : core::default_engine_factory()),
      queue_(cfg_.queue_capacity) {
    cfg_.validate();
    metrics::Registry& reg = metrics::Registry::global();
    queue_depth_ = &reg.gauge("gdda_sched_queue_depth", "Jobs waiting in the queue");
    busy_workers_ = &reg.gauge("gdda_sched_busy_workers", "Workers currently running a job");
    steps_total_ = &reg.counter("gdda_sched_steps_total", "Engine steps completed under the scheduler");
    reg.gauge("gdda_sched_workers", "Worker pool size").set(static_cast<double>(cfg_.workers));
    pool_.reserve(static_cast<std::size_t>(cfg_.workers));
    for (int lane = 0; lane < cfg_.workers; ++lane)
        pool_.emplace_back([this, lane] { worker_main(lane); });
}

Scheduler::~Scheduler() {
    if (drained_) return;
    cancel_all();
    queue_.close();
    for (std::thread& t : pool_)
        if (t.joinable()) t.join();
}

JobHandle Scheduler::submit(Job job) {
    if (closed_.load(std::memory_order_acquire))
        throw std::runtime_error("Scheduler: submit after drain/close");
    auto ticket = std::make_shared<JobTicket>(std::move(job));
    ticket->submitted_us = trace::now_us();
    {
        std::lock_guard<std::mutex> lock(tickets_mu_);
        if (batch_start_us_ < 0.0) batch_start_us_ = ticket->submitted_us;
        tickets_.push_back(ticket);
    }
    if (!queue_.push(ticket)) {
        // Closed while we were blocked on backpressure: report, don't hang.
        {
            std::lock_guard<std::mutex> lock(tickets_mu_);
            const auto it = std::find(tickets_.begin(), tickets_.end(), ticket);
            if (it != tickets_.end()) tickets_.erase(it);
        }
        throw std::runtime_error("Scheduler: queue closed during submit");
    }
    queue_depth_->set(static_cast<double>(queue_.size()));
    return JobHandle(ticket);
}

std::optional<JobHandle> Scheduler::try_submit(Job job) {
    if (closed_.load(std::memory_order_acquire)) return std::nullopt;
    auto ticket = std::make_shared<JobTicket>(std::move(job));
    ticket->submitted_us = trace::now_us();
    if (!queue_.try_push(ticket)) return std::nullopt;
    {
        std::lock_guard<std::mutex> lock(tickets_mu_);
        if (batch_start_us_ < 0.0) batch_start_us_ = ticket->submitted_us;
        tickets_.push_back(ticket);
    }
    queue_depth_->set(static_cast<double>(queue_.size()));
    return JobHandle(ticket);
}

void Scheduler::cancel_all() {
    std::lock_guard<std::mutex> lock(tickets_mu_);
    for (const auto& t : tickets_) t->request_cancel();
}

BatchReport Scheduler::drain() {
    closed_.store(true, std::memory_order_release);
    queue_.close();
    for (std::thread& t : pool_)
        if (t.joinable()) t.join();
    drained_ = true;

    std::vector<std::shared_ptr<JobTicket>> tickets;
    double start_us;
    {
        std::lock_guard<std::mutex> lock(tickets_mu_);
        tickets = tickets_;
        start_us = batch_start_us_;
    }
    std::vector<JobResult> results;
    results.reserve(tickets.size());
    for (const auto& t : tickets) results.push_back(t->wait());
    const double wall_ms = (start_us < 0.0 || tickets.empty())
                               ? 0.0
                               : (trace::now_us() - start_us) * 1e-3;
    return BatchReport::from(std::move(results), cfg_.workers, wall_ms,
                             trace::device_profile_by_name(cfg_.device));
}

BatchReport Scheduler::run_batch(std::vector<Job> jobs, SchedulerConfig cfg,
                                 core::EngineFactory factory) {
    Scheduler sched(std::move(cfg), std::move(factory));
    for (Job& job : jobs) sched.submit(std::move(job));
    return sched.drain();
}

void Scheduler::worker_main(int lane) {
    // Thread-budget arbitration: cap this worker's inner parallel teams so
    // workers * inner_threads never exceeds the host. inner_threads=1 is the
    // classic one-job-one-core pinning; 0 negotiates a fair share, which on a
    // one-worker scheduler hands the whole machine to the single job. The
    // budget is thread-local, so only this worker's engines are affected —
    // and since every team size is bitwise deterministic, the arbiter can
    // never change a trajectory, only its wall clock.
    par::set_thread_cap(par::negotiate_inner_threads(cfg_.workers, cfg_.inner_threads));
    while (std::shared_ptr<JobTicket> ticket = queue_.pop()) {
        queue_depth_->set(static_cast<double>(queue_.size()));
        busy_workers_->add(1.0);
        ticket->mark_running();
        JobResult result = run_job(*ticket, lane);
        metrics::Registry::global()
            .counter("gdda_sched_jobs_total", "Jobs finished, by terminal state",
                     {{"state", std::string(job_state_name(result.state))}})
            .inc();
        busy_workers_->add(-1.0);
        ticket->finish(std::move(result));
    }
}

JobResult Scheduler::run_job(JobTicket& ticket, int lane) {
    const Job& job = ticket.job();
    JobResult res;
    res.name = job.name;
    res.steps_requested = job.steps;
    res.worker = lane;
    res.queue_ms = ticket.submitted_us > 0.0
                       ? (trace::now_us() - ticket.submitted_us) * 1e-3
                       : 0.0;

    const int attempts_allowed = 1 + std::max(job.max_retries, 0);
    // Held outside the try so the catch path can still dump a post-mortem
    // after the engine (and scene) are gone.
    std::shared_ptr<metrics::EngineObserver> mobs;
    const bool checkpointing = !job.checkpoint_path.empty();
    const int ckpt_interval = job.config.checkpoint_interval;
    // Highest step index any attempt of THIS run has executed; a later
    // attempt stepping at or below it is recomputing (exact waste metric).
    int high_water = 0;
    for (int attempt = 1; attempt <= attempts_allowed; ++attempt) {
        res.attempts = attempt;
        res.step_ms.clear();
        res.steps_done = 0;
        res.resumed_from_step = 0;
        res.pcg_failed_solves = 0;
        res.nonconverged_steps = 0;
        res.step_retries = 0;
        res.rejected_pcg_solves = 0;
        res.rejected_pcg_iterations = 0;
        res.rejected_open_close_iters = 0;
        res.dt_min_steps = 0;
        res.error.clear();
        // steps_computed / steps_recomputed deliberately NOT reset: they
        // accumulate real engine work across attempts, so report consumers
        // can see recompute waste.
        mobs = nullptr;
        const double t0 = trace::now_us();
        try {
            if (!job.scene)
                throw std::invalid_argument("job '" + job.name + "' has no scene factory");
            block::BlockSystem sys = job.scene();
            std::unique_ptr<core::DdaEngine> engine = factory_(sys, job.config, job.mode);
            if (!engine) throw std::runtime_error("engine factory returned null");

            // Checkpoint resume: a `resume` job restores on its first
            // attempt (crash recovery); any retry attempt restores from the
            // job's own checkpoint instead of recomputing from step 0
            // (retry-without-recompute). A missing file is a normal fresh
            // start; a malformed or mismatched one is a typed, counted
            // rejection that also falls back to fresh — never UB.
            bool resumed = false;
            if (checkpointing && (job.resume || attempt > 1)) {
                try {
                    state::EngineSnapshot snap =
                        state::load_snapshot_file(job.checkpoint_path);
                    state::restore_engine(*engine, snap);
                    res.resumed_from_step = engine->step_index();
                    res.steps_done = res.resumed_from_step;
                    resumed = true;
                    metrics::Registry::global()
                        .counter("gdda_state_recoveries_total",
                                 "Job attempts resumed from a checkpoint")
                        .inc();
                } catch (const state::SnapshotError& ex) {
                    if (ex.code() != state::SnapshotErrorCode::OpenFailed)
                        metrics::Registry::global()
                            .counter("gdda_state_recovery_rejected_total",
                                     "Checkpoints rejected at recovery, by cause",
                                     {{"cause", std::string(state::to_string(ex.code()))}})
                            .inc();
                }
            }

            // Per-worker trace capture: the engine keeps a tracer it built
            // from the job's own config; otherwise collect_traces attaches a
            // fresh per-job one. Either way the ring is exclusively this
            // job's — merging happens later, in write_batch_trace.
            mobs = engine->metrics();
            if (mobs) {
                mobs->set_job(job.name);
                mobs->set_device(cfg_.device);
                if (resumed)
                    mobs->set_checkpoint(job.checkpoint_path, res.resumed_from_step);
            }
            if (job.on_engine) job.on_engine(*engine);

            std::shared_ptr<trace::Tracer> tracer = engine->tracer();
            if (!tracer && cfg_.collect_traces) {
                trace::TraceConfig tc = cfg_.trace;
                tc.enabled = true;
                tc.device = cfg_.device;
                tracer = std::make_shared<trace::Tracer>(tc);
                engine->attach_tracer(tracer);
            }

            JobState verdict = JobState::Done;
            for (int s = res.steps_done; s < job.steps; ++s) {
                if (ticket.cancel_requested()) {
                    verdict = JobState::Cancelled;
                    break;
                }
                if (job.deadline_ms > 0.0 &&
                    (trace::now_us() - t0) * 1e-3 >= job.deadline_ms) {
                    verdict = JobState::DeadlineExceeded;
                    break;
                }
                const double s0 = trace::now_us();
                res.last = engine->step();
                res.step_ms.push_back((trace::now_us() - s0) * 1e-3);
                res.pcg_failed_solves += res.last.pcg_failed_solves;
                res.nonconverged_steps += res.last.converged ? 0 : 1;
                res.step_retries += res.last.retries;
                res.rejected_pcg_solves += res.last.rejected_pcg_solves;
                res.rejected_pcg_iterations += res.last.rejected_pcg_iterations;
                res.rejected_open_close_iters += res.last.rejected_open_close_iters;
                res.dt_min_steps += res.last.hit_dt_min ? 1 : 0;
                steps_total_->inc();
                ++res.steps_done;
                ++res.steps_computed;
                if (res.steps_done <= high_water) ++res.steps_recomputed;
                else high_water = res.steps_done;
                if (checkpointing && ckpt_interval > 0 &&
                    res.steps_done % ckpt_interval == 0 && res.steps_done < job.steps) {
                    state::save_engine_file(job.checkpoint_path, *engine);
                    if (mobs) mobs->set_checkpoint(job.checkpoint_path, res.steps_done);
                }
                // Fault injection fires only on from-scratch attempts, so a
                // resumed rerun of the same manifest sails past the fault —
                // that asymmetry IS the crash-recovery drill.
                if (job.fail_after > 0 && !resumed && res.steps_done >= job.fail_after)
                    throw std::runtime_error("fault injection: job '" + job.name +
                                             "' failed after " +
                                             std::to_string(res.steps_done) +
                                             " steps (fail_after)");
            }

            // Terminal checkpoint: the job's state survives for later
            // resume (cancel/deadline) or as the session's durable result.
            if (checkpointing && res.steps_done > 0) {
                state::save_engine_file(job.checkpoint_path, *engine);
                if (mobs) mobs->set_checkpoint(job.checkpoint_path, res.steps_done);
            }

            res.state = verdict;
            res.sim_time = engine->time();
            res.last_max_velocity = engine->last_max_velocity();
            res.timers.merge(engine->timers());
            res.ledgers.merge(engine->ledgers());
            if (res.steps_done > 0) res.state_hash = state_fingerprint(sys);
            // A deadline kill is a diagnosable failure: the state is still
            // alive here, so the bundle gets a real fingerprint.
            if (verdict == JobState::DeadlineExceeded && mobs)
                mobs->dump_postmortem("deadline_exceeded", "", res.state_hash);
            if (mobs) res.postmortem_path = mobs->postmortem_path();
            if (tracer) {
                // Detach first so the engine's spans are all closed and this
                // thread's kernel hook is cleared before we snapshot.
                engine->attach_tracer(nullptr);
                res.trace_events = tracer->snapshot();
                res.trace_dropped = tracer->events_dropped();
            }
            res.wall_ms = (trace::now_us() - t0) * 1e-3;
            return res;
        } catch (const std::exception& ex) {
            res.state = JobState::Failed;
            res.error = ex.what();
        } catch (...) {
            res.state = JobState::Failed;
            res.error = "unknown exception";
        }
        res.wall_ms = (trace::now_us() - t0) * 1e-3;
        // Only genuine failures retry; cancellation is honored between
        // attempts as well.
        if (ticket.cancel_requested()) {
            res.state = JobState::Cancelled;
            return res;
        }
    }
    // All attempts failed: dump the flight recorder of the last attempt.
    // The engine and scene died with the throw, so the fingerprint is 0
    // ("state unavailable") — the ring still holds the last completed steps.
    if (res.state == JobState::Failed && mobs) {
        mobs->dump_postmortem("failed", res.error, 0);
        res.postmortem_path = mobs->postmortem_path();
    }
    return res;
}

} // namespace gdda::sched
