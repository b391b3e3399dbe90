// gdda::sched tests: queue semantics, scheduler determinism vs direct engine
// loops (both engine modes, several pool sizes and submit orders), job
// lifecycle (cancel within one step, deadline partial progress, retry on
// failure), the per-thread kernel-ledger isolation that makes concurrent
// engines account independently, shared-tracer lane separation, batch report
// math, and manifest parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "sched/manifest.hpp"
#include "sched/scheduler.hpp"
#include "trace/chrome_export.hpp"
#include "trace/validate.hpp"

using namespace gdda;
using sched::Job;
using sched::JobState;

namespace {

Job make_job(std::string name, int column_height, core::EngineMode mode, int steps) {
    Job j;
    j.name = std::move(name);
    j.scene = [column_height] { return models::make_column(column_height); };
    j.mode = mode;
    j.steps = steps;
    return j;
}

std::uint64_t solo_hash(const Job& job) {
    block::BlockSystem sys = job.scene();
    core::DdaEngine engine(sys, job.config, job.mode);
    for (int s = 0; s < job.steps; ++s) engine.step();
    return sched::state_fingerprint(sys);
}

/// Workers pin their inner OpenMP team to one thread; baselines computed on
/// the test thread must match that for fingerprints to be comparable.
void pin_inner_parallelism() {
#ifdef _OPENMP
    omp_set_num_threads(1);
#endif
}

} // namespace

// ---------------------------------------------------------------------------
// JobQueue

TEST(JobQueue, BackpressureFifoAndClose) {
    sched::JobQueue q(2);
    EXPECT_EQ(q.capacity(), 2u);
    auto t1 = std::make_shared<sched::JobTicket>(make_job("a", 3, core::EngineMode::Serial, 1));
    auto t2 = std::make_shared<sched::JobTicket>(make_job("b", 3, core::EngineMode::Serial, 1));
    auto t3 = std::make_shared<sched::JobTicket>(make_job("c", 3, core::EngineMode::Serial, 1));
    EXPECT_TRUE(q.try_push(t1));
    EXPECT_TRUE(q.try_push(t2));
    EXPECT_FALSE(q.try_push(t3)) << "queue beyond capacity must refuse";
    EXPECT_EQ(q.size(), 2u);

    // A blocking push parks until a pop frees a slot.
    std::thread pusher([&] { EXPECT_TRUE(q.push(t3)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(q.pop(), t1) << "FIFO order";
    pusher.join();
    EXPECT_EQ(q.pop(), t2);
    EXPECT_EQ(q.pop(), t3);

    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(t1)) << "push after close must fail";
    EXPECT_EQ(q.pop(), nullptr) << "pop on closed+drained queue returns null";
}

TEST(JobQueue, CancelledWhileQueuedNeverStarts) {
    sched::JobQueue q(4);
    auto doomed = std::make_shared<sched::JobTicket>(make_job("doomed", 3, core::EngineMode::Serial, 5));
    auto alive = std::make_shared<sched::JobTicket>(make_job("alive", 3, core::EngineMode::Serial, 5));
    ASSERT_TRUE(q.try_push(doomed));
    ASSERT_TRUE(q.try_push(alive));
    doomed->request_cancel();

    // pop skips the cancelled ticket, finishing it as Cancelled in place.
    EXPECT_EQ(q.pop(), alive);
    EXPECT_TRUE(doomed->finished());
    const sched::JobResult& r = doomed->wait();
    EXPECT_EQ(r.state, JobState::Cancelled);
    EXPECT_EQ(r.steps_done, 0);
    EXPECT_EQ(r.worker, -1) << "never assigned to a worker lane";
}

// ---------------------------------------------------------------------------
// Scheduler determinism

TEST(Scheduler, BitwiseIdenticalToDirectLoopAcrossPoolsAndOrders) {
    pin_inner_parallelism();
    std::vector<Job> jobs;
    jobs.push_back(make_job("col5-serial", 5, core::EngineMode::Serial, 4));
    jobs.push_back(make_job("col5-gpu", 5, core::EngineMode::Gpu, 4));
    jobs.push_back(make_job("col7-serial", 7, core::EngineMode::Serial, 3));
    jobs.push_back(make_job("col7-gpu", 7, core::EngineMode::Gpu, 3));
    Job incline;
    incline.name = "incline";
    incline.scene = [] { return models::make_incline(25.0, 35.0); };
    incline.steps = 4;
    jobs.push_back(incline);

    std::vector<std::uint64_t> expected;
    for (const Job& j : jobs) expected.push_back(solo_hash(j));

    for (const int workers : {1, 2, 4}) {
        sched::SchedulerConfig cfg;
        cfg.workers = workers;
        const sched::BatchReport report = sched::Scheduler::run_batch(jobs, cfg);
        ASSERT_TRUE(report.all_done()) << report.summary();
        ASSERT_EQ(report.jobs.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(report.jobs[i].state_hash, expected[i])
                << "job " << jobs[i].name << " diverged at " << workers << " workers";
            EXPECT_GT(report.jobs[i].sim_time, 0.0);
        }
    }

    // Reversed submission order with a mid-size pool: per-job trajectories
    // must not depend on queue position either.
    {
        std::vector<Job> reversed(jobs.rbegin(), jobs.rend());
        sched::SchedulerConfig cfg;
        cfg.workers = 3;
        const sched::BatchReport report = sched::Scheduler::run_batch(reversed, cfg);
        ASSERT_TRUE(report.all_done()) << report.summary();
        for (std::size_t i = 0; i < reversed.size(); ++i)
            EXPECT_EQ(report.jobs[i].state_hash, expected[expected.size() - 1 - i])
                << "job " << reversed[i].name << " diverged under reversed submit order";
    }
}

// ---------------------------------------------------------------------------
// Lifecycle: cancellation, deadline, retry

TEST(Scheduler, CancelRunningJobStopsWithinOneStep) {
    sched::SchedulerConfig cfg;
    cfg.workers = 1;
    sched::Scheduler sched(cfg);
    // Big step budget: without the cancel this would run for a long time.
    sched::JobHandle h = sched.submit(make_job("long", 4, core::EngineMode::Serial, 1000000));
    while (h.state() == JobState::Queued)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    h.cancel();
    const sched::JobResult& r = h.result(); // blocks until terminal
    EXPECT_EQ(r.state, JobState::Cancelled);
    EXPECT_LT(r.steps_done, r.steps_requested);
    EXPECT_EQ(r.attempts, 1) << "cancellation must not trigger retries";
    (void)sched.drain();
}

TEST(Scheduler, CancelAllCoversQueuedJobs) {
    sched::SchedulerConfig cfg;
    cfg.workers = 1;
    sched::Scheduler sched(cfg);
    // First job holds the only worker long enough for cancel_all to land
    // while the second is still queued.
    Job slow = make_job("slow", 4, core::EngineMode::Serial, 1000000);
    sched::JobHandle h1 = sched.submit(std::move(slow));
    sched::JobHandle h2 = sched.submit(make_job("queued", 4, core::EngineMode::Serial, 50));
    while (h1.state() == JobState::Queued)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    sched.cancel_all();
    sched::BatchReport report = sched.drain();
    ASSERT_EQ(report.jobs.size(), 2u);
    EXPECT_EQ(report.cancelled, 2);
    EXPECT_EQ(report.jobs[1].steps_done, 0) << "queued job must never start";
    EXPECT_FALSE(h2.result().terminal_ok());
}

TEST(Scheduler, DeadlineExceededReportsPartialProgress) {
    sched::SchedulerConfig cfg;
    cfg.workers = 1;
    Job j = make_job("deadline", 4, core::EngineMode::Serial, 1000000);
    j.deadline_ms = 40.0;
    std::vector<Job> jobs;
    jobs.push_back(std::move(j));
    const sched::BatchReport report = sched::Scheduler::run_batch(std::move(jobs), cfg);
    ASSERT_EQ(report.jobs.size(), 1u);
    const sched::JobResult& r = report.jobs[0];
    EXPECT_EQ(r.state, JobState::DeadlineExceeded);
    EXPECT_EQ(report.deadline_exceeded, 1);
    EXPECT_GT(r.steps_done, 0) << "40 ms budget should fit at least one small step";
    EXPECT_LT(r.steps_done, r.steps_requested);
    EXPECT_EQ(static_cast<int>(r.step_ms.size()), r.steps_done)
        << "partial progress must keep its latency samples";
    EXPECT_GT(r.sim_time, 0.0);
    EXPECT_NE(r.state_hash, 0u) << "partial state still fingerprinted";
}

TEST(Scheduler, RetriesFailedSceneThenSucceeds) {
    pin_inner_parallelism();
    auto failures = std::make_shared<std::atomic<int>>(1);
    Job j;
    j.name = "flaky";
    j.scene = [failures] {
        if (failures->fetch_sub(1) > 0) throw std::runtime_error("transient scene failure");
        return models::make_column(4);
    };
    j.steps = 3;
    j.max_retries = 2;
    const std::uint64_t expected = solo_hash(make_job("ref", 4, core::EngineMode::Serial, 3));

    sched::SchedulerConfig cfg;
    cfg.workers = 1;
    std::vector<Job> jobs;
    jobs.push_back(std::move(j));
    const sched::BatchReport report = sched::Scheduler::run_batch(std::move(jobs), cfg);
    const sched::JobResult& r = report.jobs.at(0);
    EXPECT_EQ(r.state, JobState::Done);
    EXPECT_EQ(r.attempts, 2) << "one failure, one successful retry";
    EXPECT_EQ(r.steps_done, 3);
    EXPECT_EQ(r.state_hash, expected) << "retry must reproduce the clean run bitwise";
}

TEST(Scheduler, FailureWithoutRetriesIsTerminal) {
    Job j;
    j.name = "broken";
    j.scene = []() -> block::BlockSystem { throw std::runtime_error("no such scene"); };
    j.steps = 3;
    sched::SchedulerConfig cfg;
    cfg.workers = 2;
    std::vector<Job> jobs;
    jobs.push_back(std::move(j));
    const sched::BatchReport report = sched::Scheduler::run_batch(std::move(jobs), cfg);
    const sched::JobResult& r = report.jobs.at(0);
    EXPECT_EQ(r.state, JobState::Failed);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_NE(r.error.find("no such scene"), std::string::npos);
    EXPECT_FALSE(report.all_done());
}

TEST(Scheduler, LastResortStepsAndRetriesReachTheReport) {
    pin_inner_parallelism();
    // Seed 2 of the 60-block slope: the cold first step exhausts its
    // shrunken-dt retries and is accepted at dt_min as a last resort.
    Job j;
    j.name = "slope-cold";
    j.scene = [] {
        models::SlopeParams p;
        p.seed = 2;
        return models::make_slope_with_blocks(60, p);
    };
    j.steps = 3;
    long long nonconverged = 0;
    long long retries = 0;
    long long rejected_solves = 0, rejected_iters = 0, rejected_passes = 0, dt_min = 0;
    {
        block::BlockSystem sys = j.scene();
        core::DdaEngine engine(sys, j.config, j.mode);
        for (int s = 0; s < j.steps; ++s) {
            const core::StepStats st = engine.step();
            nonconverged += st.converged ? 0 : 1;
            retries += st.retries;
            rejected_solves += st.rejected_pcg_solves;
            rejected_iters += st.rejected_pcg_iterations;
            rejected_passes += st.rejected_open_close_iters;
            dt_min += st.hit_dt_min ? 1 : 0;
        }
    }
    ASSERT_GT(nonconverged, 0) << "the seeded cold step must take the dt_min path";
    ASSERT_GT(rejected_solves, 0);
    ASSERT_GT(dt_min, 0);

    sched::SchedulerConfig cfg;
    cfg.workers = 1;
    std::vector<Job> jobs;
    jobs.push_back(std::move(j));
    const sched::BatchReport report = sched::Scheduler::run_batch(std::move(jobs), cfg);
    const sched::JobResult& r = report.jobs.at(0);
    EXPECT_EQ(r.state, JobState::Done);
    EXPECT_EQ(r.nonconverged_steps, nonconverged);
    EXPECT_EQ(r.step_retries, retries);
    EXPECT_EQ(report.nonconverged_steps, nonconverged);
    EXPECT_EQ(report.step_retries, retries);
    EXPECT_NE(report.summary().find("last-resort step(s)"), std::string::npos);
    EXPECT_EQ(r.rejected_pcg_solves, rejected_solves);
    EXPECT_EQ(r.rejected_pcg_iterations, rejected_iters);
    EXPECT_EQ(r.rejected_open_close_iters, rejected_passes);
    EXPECT_EQ(r.dt_min_steps, dt_min);
    EXPECT_EQ(report.rejected_pcg_solves, rejected_solves);
    EXPECT_EQ(report.rejected_pcg_iterations, rejected_iters);
    EXPECT_EQ(report.rejected_open_close_iters, rejected_passes);
    EXPECT_EQ(report.dt_min_steps, dt_min);
    EXPECT_NE(report.summary().find("hit dt_min"), std::string::npos);

    const obs::JsonValue doc = report.to_json();
    EXPECT_EQ(doc.find("nonconverged_steps")->as_number(), static_cast<double>(nonconverged));
    EXPECT_EQ(doc.find("step_retries")->as_number(), static_cast<double>(retries));
    const obs::JsonValue& row = doc.find("jobs")->items().at(0);
    EXPECT_EQ(row.find("nonconverged_steps")->as_number(), static_cast<double>(nonconverged));
    EXPECT_EQ(row.find("step_retries")->as_number(), static_cast<double>(retries));
    EXPECT_EQ(doc.find("version")->as_number(), 5.0);
    for (const obs::JsonValue* d : {&doc, &row}) {
        EXPECT_EQ(d->find("rejected_pcg_solves")->as_number(),
                  static_cast<double>(rejected_solves));
        EXPECT_EQ(d->find("rejected_pcg_iterations")->as_number(),
                  static_cast<double>(rejected_iters));
        EXPECT_EQ(d->find("rejected_open_close_iters")->as_number(),
                  static_cast<double>(rejected_passes));
        EXPECT_EQ(d->find("dt_min_steps")->as_number(), static_cast<double>(dt_min));
    }
}

// ---------------------------------------------------------------------------
// Satellite 1: concurrent engines keep independent kernel ledgers

TEST(ConcurrentLedgers, TwoEnginesMatchTheirSoloRuns) {
    pin_inner_parallelism();
    constexpr int kSteps = 100;
    const auto run_solo = [](int height) {
        block::BlockSystem sys = models::make_column(height);
        core::DdaEngine engine(sys, {}, core::EngineMode::Gpu);
        for (int s = 0; s < kSteps; ++s) engine.step();
        return engine.ledgers().merged_total();
    };
    const simt::KernelCost solo_a = run_solo(5);
    const simt::KernelCost solo_b = run_solo(8);
    ASSERT_GT(solo_a.launches, 0);
    ASSERT_GT(solo_b.launches, 0);

    // Same two workloads, now racing on two threads. With the process-wide
    // hook slot this cross-credited kernels between engines; the per-thread
    // slot must keep each engine's ledger equal to its solo run.
    simt::KernelCost conc_a, conc_b;
    std::thread ta([&] {
        pin_inner_parallelism();
        block::BlockSystem sys = models::make_column(5);
        core::DdaEngine engine(sys, {}, core::EngineMode::Gpu);
        for (int s = 0; s < kSteps; ++s) engine.step();
        conc_a = engine.ledgers().merged_total();
    });
    std::thread tb([&] {
        pin_inner_parallelism();
        block::BlockSystem sys = models::make_column(8);
        core::DdaEngine engine(sys, {}, core::EngineMode::Gpu);
        for (int s = 0; s < kSteps; ++s) engine.step();
        conc_b = engine.ledgers().merged_total();
    });
    ta.join();
    tb.join();

    EXPECT_EQ(conc_a.launches, solo_a.launches);
    EXPECT_EQ(conc_b.launches, solo_b.launches);
    EXPECT_EQ(conc_a.flops, solo_a.flops);
    EXPECT_EQ(conc_b.flops, solo_b.flops);
    EXPECT_EQ(conc_a.bytes_coalesced + conc_a.bytes_texture + conc_a.bytes_random,
              solo_a.bytes_coalesced + solo_a.bytes_texture + solo_a.bytes_random);
    EXPECT_EQ(conc_b.bytes_coalesced + conc_b.bytes_texture + conc_b.bytes_random,
              solo_b.bytes_coalesced + solo_b.bytes_texture + solo_b.bytes_random);
    // The pair must also differ from each other, or the test proves nothing.
    EXPECT_NE(solo_a.launches, solo_b.launches);
}

// ---------------------------------------------------------------------------
// Satellite 2: one tracer shared by two threads keeps per-lane nesting valid

TEST(SharedTracer, TwoThreadsExportStructurallyValidLanes) {
    trace::TraceConfig cfg;
    cfg.enabled = true;
    cfg.ring_capacity = 1 << 14;
    trace::Tracer tracer(cfg);

    const auto worker = [&tracer](const char* outer, const char* inner) {
        for (int i = 0; i < 200; ++i) {
            const std::uint32_t o = tracer.begin(trace::Category::Step, outer);
            const std::uint32_t n = tracer.begin(trace::Category::Solve, inner);
            tracer.end(n);
            tracer.end(o);
        }
    };
    std::thread t1(worker, "outer-1", "inner-1");
    std::thread t2(worker, "outer-2", "inner-2");
    t1.join();
    t2.join();

    const std::vector<trace::Event> events = tracer.snapshot();
    ASSERT_EQ(events.size(), 2u * 200u * 4u);
    std::set<std::uint32_t> tids;
    for (const trace::Event& e : events) tids.insert(e.tid);
    EXPECT_EQ(tids.size(), 2u) << "each thread gets its own lane";

    // The interleaved export must still validate: nesting is checked per
    // (pid, tid) lane, and with the per-thread span stacks no lane can see
    // the other lane's begin/end pairs.
    const obs::JsonValue doc = trace::chrome_trace_document(tracer);
    const trace::TraceValidation v = trace::validate_trace_document(doc);
    EXPECT_TRUE(v.ok) << v.error << " (event " << v.bad_event << ")";
}

// ---------------------------------------------------------------------------
// BatchReport math

TEST(BatchReport, CensusPercentilesAndThroughput) {
    std::vector<sched::JobResult> jobs(4);
    jobs[0].state = JobState::Done;
    jobs[0].steps_done = 100;
    jobs[0].wall_ms = 400.0;
    for (int i = 1; i <= 100; ++i) jobs[0].step_ms.push_back(static_cast<double>(i));
    jobs[1].state = JobState::Failed;
    jobs[2].state = JobState::Cancelled;
    jobs[3].state = JobState::DeadlineExceeded;
    jobs[3].steps_done = 10;
    jobs[3].wall_ms = 100.0;

    const sched::BatchReport r = sched::BatchReport::from(
        std::move(jobs), 2, 1000.0, trace::device_profile_by_name("k40"));
    EXPECT_EQ(r.done, 1);
    EXPECT_EQ(r.failed, 1);
    EXPECT_EQ(r.cancelled, 1);
    EXPECT_EQ(r.deadline_exceeded, 1);
    EXPECT_FALSE(r.all_done());
    EXPECT_EQ(r.steps_total, 110);
    EXPECT_DOUBLE_EQ(r.jobs_per_s, 1.0);    // 1 done job / 1 s
    EXPECT_DOUBLE_EQ(r.steps_per_s, 110.0); // all completed steps count
    EXPECT_NEAR(r.p50_step_ms, 50.5, 1e-9); // samples 1..100
    EXPECT_NEAR(r.p95_step_ms, 95.05, 1e-9);
    EXPECT_DOUBLE_EQ(r.max_step_ms, 100.0);
    EXPECT_DOUBLE_EQ(r.busy_ms, 500.0);
    EXPECT_DOUBLE_EQ(r.worker_utilization, 0.25); // 500 busy / (2 * 1000)

    const obs::JsonValue doc = r.to_json();
    EXPECT_EQ(doc.find("schema")->as_string(), "gdda.sched.batch");
    EXPECT_EQ(doc.find("jobs")->items().size(), 4u);
}

// ---------------------------------------------------------------------------
// Manifest parsing

TEST(Manifest, ParsesSpecsStepsAndKeys) {
    std::istringstream in(
        "# comment line\n"
        "\n"
        "slope-1   slope:40    3\n"
        "rocks-1   rocks:24    4  mode=gpu\n"
        "col-1     column:5       deadline=250 retries=2\n"
        "inc-1     incline:20:30  steps=6\n"
        "floor-1   floor       2  # trailing comment\n");
    sched::ManifestDefaults defaults;
    defaults.steps = 7;
    const std::vector<Job> jobs = sched::parse_manifest(in, defaults);
    ASSERT_EQ(jobs.size(), 5u);
    EXPECT_EQ(jobs[0].name, "slope-1");
    EXPECT_EQ(jobs[0].steps, 3);
    EXPECT_EQ(jobs[0].mode, core::EngineMode::Serial);
    EXPECT_EQ(jobs[1].mode, core::EngineMode::Gpu);
    EXPECT_EQ(jobs[1].steps, 4);
    EXPECT_EQ(jobs[2].steps, 7) << "defaults apply when no step count given";
    EXPECT_DOUBLE_EQ(jobs[2].deadline_ms, 250.0);
    EXPECT_EQ(jobs[2].max_retries, 2);
    EXPECT_EQ(jobs[3].steps, 6);
    EXPECT_EQ(jobs[4].steps, 2);
    for (const Job& j : jobs) {
        ASSERT_TRUE(static_cast<bool>(j.scene));
        EXPECT_GT(j.scene().blocks.size(), 0u);
    }
}

TEST(Manifest, ParsesMetricsPostmortemAndFaultKeys) {
    std::istringstream in(
        "plain     slope:10   2\n"
        "observed  slope:10   2  metrics=on\n"
        "muted     slope:10   2  metrics=off\n"
        "bundled   column:4   3  postmortem=pm_dir\n"
        "drilled   column:4   5  fail_after=2 retries=0\n");
    sched::ManifestDefaults defaults;
    const std::vector<Job> jobs = sched::parse_manifest(in, defaults);
    ASSERT_EQ(jobs.size(), 5u);
    EXPECT_FALSE(jobs[0].config.metrics.enabled) << "metrics default off";
    EXPECT_TRUE(jobs[1].config.metrics.enabled);
    EXPECT_FALSE(jobs[2].config.metrics.enabled);
    EXPECT_TRUE(jobs[3].config.metrics.enabled) << "postmortem= implies metrics";
    EXPECT_EQ(jobs[3].config.metrics.postmortem_dir, "pm_dir");
    EXPECT_EQ(jobs[4].fail_after, 2);
    EXPECT_EQ(jobs[0].fail_after, 0) << "fault injection default off";

    // metrics=off after a scheduler-level default of enabled must win.
    std::istringstream in2("quiet slope:10 1 metrics=off\n");
    sched::ManifestDefaults on_defaults;
    on_defaults.config.metrics.enabled = true;
    const std::vector<Job> quiet = sched::parse_manifest(in2, on_defaults);
    ASSERT_EQ(quiet.size(), 1u);
    EXPECT_FALSE(quiet[0].config.metrics.enabled);
}

TEST(Manifest, KeyEdgeCases) {
    sched::ManifestDefaults defaults;
    const auto parse = [&](const std::string& text) {
        std::istringstream in(text);
        return sched::parse_manifest(in, defaults);
    };

    // Duplicate keys: last occurrence wins (plain left-to-right assignment).
    {
        const std::vector<Job> jobs = parse("dup slope:10 2 retries=1 retries=3\n");
        ASSERT_EQ(jobs.size(), 1u);
        EXPECT_EQ(jobs[0].max_retries, 3);
    }
    // Trailing whitespace and CRLF line endings are harmless.
    {
        const std::vector<Job> jobs =
            parse("ws slope:10 2 mode=gpu   \t \r\ncrlf slope:10 3\r\n");
        ASSERT_EQ(jobs.size(), 2u);
        EXPECT_EQ(jobs[0].mode, core::EngineMode::Gpu);
        EXPECT_EQ(jobs[1].steps, 3) << "CR must not corrupt the last token";
    }
    // Missing '=' value forms and bad values all throw with a line number.
    EXPECT_THROW(parse("j slope:10 2 metrics\n"), std::invalid_argument);
    EXPECT_THROW(parse("j slope:10 2 metrics=maybe\n"), std::invalid_argument);
    EXPECT_THROW(parse("j slope:10 2 postmortem=\n"), std::invalid_argument);
    EXPECT_THROW(parse("j slope:10 2 fail_after=-1\n"), std::invalid_argument);
    EXPECT_THROW(parse("j slope:10 2 fail_after=soon\n"), std::invalid_argument);
    try {
        parse("ok slope:10 1\nbad slope:10 1 metrics=sometimes\n");
        FAIL() << "expected throw";
    } catch (const std::invalid_argument& ex) {
        EXPECT_NE(std::string(ex.what()).find("line 2"), std::string::npos) << ex.what();
    }
}

TEST(Manifest, RejectsMalformedInput) {
    sched::ManifestDefaults defaults;
    const auto parse = [&](const char* text) {
        std::istringstream in(text);
        return sched::parse_manifest(in, defaults);
    };
    EXPECT_THROW(parse("job1 warp:9 3\n"), std::invalid_argument);
    EXPECT_THROW(parse("job1 slope 3\n"), std::invalid_argument);
    EXPECT_THROW(parse("job1 slope:40 many\n"), std::invalid_argument);
    EXPECT_THROW(parse("job1 slope:40 3 mode=quantum\n"), std::invalid_argument);
    EXPECT_THROW(parse("job1 slope:40 3 color=red\n"), std::invalid_argument);
    EXPECT_THROW(parse("lonely\n"), std::invalid_argument);
    EXPECT_THROW((void)sched::parse_scene_spec("incline:20"), std::invalid_argument);
    EXPECT_THROW((void)sched::load_manifest("/nonexistent/manifest.txt", defaults),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Scheduler misc

TEST(Scheduler, SubmitAfterDrainThrows) {
    sched::Scheduler sched;
    (void)sched.drain();
    EXPECT_THROW((void)sched.submit(make_job("late", 3, core::EngineMode::Serial, 1)),
                 std::runtime_error);
}

TEST(Scheduler, ConfigValidation) {
    sched::SchedulerConfig bad;
    bad.workers = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad.workers = 1;
    bad.queue_capacity = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
}
