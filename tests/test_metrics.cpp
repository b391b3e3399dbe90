// Tests for the gdda::metrics subsystem: registry/instrument semantics,
// Prometheus exposition + JSON snapshot rendering and their validators,
// every health-watchdog rule, the flight-recorder ring, post-mortem bundle
// round trips — and the acceptance criterion of the whole layer: bitwise
// trajectory identity with the full observer stack (metrics + watchdog +
// recorder) attached vs absent, in both engine modes.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "metrics/engine_observer.hpp"
#include "metrics/flight_recorder.hpp"
#include "metrics/health.hpp"
#include "metrics/registry.hpp"
#include "metrics/validate.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "sched/scheduler.hpp"

using namespace gdda;

namespace {

core::SimConfig small_cfg() {
    core::SimConfig cfg;
    cfg.dt = 5e-4;
    cfg.dt_max = 2e-3;
    cfg.precond = core::PrecondKind::BlockJacobi;
    return cfg;
}

obs::StepRecord record_for_step(int step) {
    obs::StepRecord rec;
    rec.mode = "serial";
    rec.step = step;
    rec.time = 1e-3 * step;
    rec.dt = 1e-3;
    rec.pcg_solves = 1;
    rec.pcg_iterations = 10;
    rec.contacts = 4;
    rec.converged = true;
    return rec;
}

metrics::HealthSample ok_sample(int step) {
    metrics::HealthSample s;
    s.step = step;
    s.latency_s = 1e-3;
    s.step_converged = true;
    s.open_close_cap = 8;
    s.open_close_iters = 1;
    s.length_scale = 1.0;
    return s;
}

} // namespace

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, InstrumentSemantics) {
    metrics::Registry reg;
    metrics::Counter& c = reg.counter("t_events_total", "events");
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    metrics::Gauge& g = reg.gauge("t_level", "level");
    g.set(1.5);
    g.add(-0.5);
    EXPECT_DOUBLE_EQ(g.value(), 1.0);

    metrics::Histogram& h = reg.histogram("t_latency_seconds", {0.1, 1.0}, "latency");
    h.observe(0.05);  // bucket 0 (le 0.1)
    h.observe(0.5);   // bucket 1 (le 1.0)
    h.observe(0.1);   // inclusive upper edge -> bucket 0
    h.observe(100.0); // +Inf bucket
    EXPECT_EQ(h.bucket_value(0), 2u);
    EXPECT_EQ(h.bucket_value(1), 1u);
    EXPECT_EQ(h.bucket_value(2), 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 100.65);

    EXPECT_EQ(reg.size(), 3u);
    EXPECT_EQ(reg.family_count(), 3u);

    reg.reset_values();
    EXPECT_EQ(c.value(), 0u) << "reset keeps the reference valid, zeroes the value";
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistry, GetOrCreateIsStableAndChecked) {
    metrics::Registry reg;
    metrics::Counter& a = reg.counter("t_total", "", {{"mode", "serial"}});
    metrics::Counter& b = reg.counter("t_total", "", {{"mode", "serial"}});
    EXPECT_EQ(&a, &b) << "same name+labels must return the same instrument";
    metrics::Counter& other = reg.counter("t_total", "", {{"mode", "gpu"}});
    EXPECT_NE(&a, &other) << "distinct labels are distinct series";
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.family_count(), 1u);

    EXPECT_THROW((void)reg.gauge("t_total"), std::invalid_argument) << "kind clash";
    EXPECT_THROW((void)reg.counter("7bad name"), std::invalid_argument);
    EXPECT_THROW((void)reg.histogram("t_h", {}), std::invalid_argument) << "empty bounds";
    EXPECT_THROW((void)reg.histogram("t_h", {2.0, 1.0}), std::invalid_argument)
        << "non-increasing bounds";
    (void)reg.histogram("t_h", {1.0, 2.0});
    EXPECT_THROW((void)reg.histogram("t_h", {1.0, 3.0}), std::invalid_argument)
        << "bounds mismatch with existing family";
}

TEST(MetricsRegistry, ConcurrentCountsAreExact) {
    metrics::Registry reg;
    metrics::Counter& c = reg.counter("t_hits_total");
    metrics::Histogram& h = reg.histogram("t_obs_seconds", {1.0});
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                h.observe(0.5);
            }
        });
    for (auto& t : pool) t.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 * kThreads * kIters);
}

TEST(MetricsRegistry, PrometheusRenderValidatesAndIsComplete) {
    metrics::Registry reg;
    reg.counter("t_steps_total", "Steps", {{"mode", "serial"}}).inc(3);
    reg.gauge("t_queue_depth", "Depth").set(2.0);
    metrics::Histogram& h = reg.histogram("t_step_seconds", {0.01, 0.1}, "Latency");
    h.observe(0.005);
    h.observe(0.5);

    const std::string text = reg.render_prometheus();
    EXPECT_NE(text.find("# TYPE t_steps_total counter"), std::string::npos) << text;
    EXPECT_NE(text.find("t_steps_total{mode=\"serial\"} 3"), std::string::npos) << text;
    EXPECT_NE(text.find("# TYPE t_step_seconds histogram"), std::string::npos);
    EXPECT_NE(text.find("t_step_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos) << text;
    EXPECT_NE(text.find("t_step_seconds_count 2"), std::string::npos);

    std::istringstream in(text);
    const metrics::ExpositionValidation val = metrics::validate_exposition(in);
    EXPECT_TRUE(val) << val.error;
    EXPECT_EQ(val.families, 3);

    // Label values with quotes/backslashes/newlines must render escaped and
    // still validate.
    reg.counter("t_weird_total", "", {{"path", "a\\b\"c\nd"}}).inc();
    std::istringstream in2(reg.render_prometheus());
    const metrics::ExpositionValidation val2 = metrics::validate_exposition(in2);
    EXPECT_TRUE(val2) << val2.error;
}

TEST(MetricsRegistry, ValidatorCatchesStructuralBreakage) {
    const auto validate = [](const std::string& text) {
        std::istringstream in(text);
        return metrics::validate_exposition(in);
    };
    EXPECT_FALSE(validate("")) << "empty exposition";
    EXPECT_FALSE(validate("orphan_sample 1\n")) << "sample without # TYPE";
    EXPECT_FALSE(validate("# TYPE a counter\na -3\n")) << "negative counter";
    EXPECT_FALSE(validate("# TYPE a counter\na 1.5\n")) << "non-integer counter";
    EXPECT_FALSE(validate("# TYPE h histogram\n"
                          "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n"
                          "h_sum 1\nh_count 3\n"))
        << "non-cumulative buckets";
    EXPECT_FALSE(validate("# TYPE h histogram\n"
                          "h_bucket{le=\"1\"} 1\n"
                          "h_sum 1\nh_count 1\n"))
        << "missing +Inf bucket";
    EXPECT_TRUE(validate("# TYPE ok gauge\nok 1.25\n"));
    // Semantic range check: the parallel-coverage gauge is a clamped
    // fraction of the step, so any value outside [0, 1] is instrumentation
    // breakage, not data.
    EXPECT_TRUE(validate("# TYPE gdda_engine_parallel_coverage gauge\n"
                         "gdda_engine_parallel_coverage{mode=\"serial\"} 0.42\n"));
    EXPECT_FALSE(validate("# TYPE gdda_engine_parallel_coverage gauge\n"
                          "gdda_engine_parallel_coverage{mode=\"serial\"} 1.5\n"))
        << "coverage above 1";
    EXPECT_FALSE(validate("# TYPE gdda_engine_parallel_coverage gauge\n"
                          "gdda_engine_parallel_coverage{mode=\"serial\"} -0.1\n"))
        << "negative coverage";
}

TEST(MetricsRegistry, SnapshotJsonShape) {
    metrics::Registry reg;
    reg.counter("t_total").inc(7);
    metrics::Histogram& h = reg.histogram("t_seconds", {1.0});
    h.observe(0.5);
    h.observe(2.0);

    const obs::JsonValue doc = reg.snapshot_json();
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->as_string(), std::string(metrics::kSnapshotSchemaName));
    EXPECT_EQ(static_cast<int>(doc.find("version")->as_number()), metrics::kMetricsSchemaVersion);
    EXPECT_EQ(static_cast<int>(doc.find("size")->as_number()), 2);
    const obs::JsonValue* families = doc.find("families");
    ASSERT_NE(families, nullptr);
    ASSERT_EQ(families->items().size(), 2u);
    const obs::JsonValue& hist = families->items()[1];
    EXPECT_EQ(hist.find("kind")->as_string(), "histogram");
    const obs::JsonValue& series = hist.find("series")->items()[0];
    EXPECT_EQ(static_cast<int>(series.find("count")->as_number()), 2);
    const auto& buckets = series.find("buckets")->items();
    ASSERT_EQ(buckets.size(), 2u);
    EXPECT_EQ(static_cast<int>(buckets[0].find("count")->as_number()), 1);
    EXPECT_EQ(static_cast<int>(buckets[1].find("count")->as_number()), 2)
        << "snapshot buckets are cumulative, +Inf == count";
}

// ------------------------------------------------------------------- health

TEST(MetricsHealth, PcgFailStreakEscalates) {
    metrics::HealthMonitor mon;
    metrics::HealthSample s = ok_sample(0);
    s.pcg_failed_solves = 1;
    EXPECT_EQ(mon.evaluate(s).grade, metrics::HealthGrade::Ok) << "streak of 1 < warn";
    s.step = 1;
    EXPECT_EQ(mon.evaluate(s).grade, metrics::HealthGrade::Warn);
    metrics::HealthVerdict v;
    for (int step = 2; step < 5; ++step) {
        s.step = step;
        v = mon.evaluate(s);
    }
    EXPECT_EQ(v.grade, metrics::HealthGrade::Critical);
    EXPECT_EQ(v.rule, "pcg_nonconverged_streak");
    EXPECT_EQ(mon.worst(), metrics::HealthGrade::Critical);

    // A clean step resets the streak.
    metrics::HealthSample clean = ok_sample(5);
    EXPECT_EQ(mon.evaluate(clean).grade, metrics::HealthGrade::Ok);
    EXPECT_EQ(mon.grade(), metrics::HealthGrade::Ok);
    EXPECT_EQ(mon.worst(), metrics::HealthGrade::Critical) << "worst() is sticky";
}

TEST(MetricsHealth, OpenCloseCapStreak) {
    metrics::HealthMonitor mon;
    metrics::HealthSample s = ok_sample(0);
    s.open_close_iters = s.open_close_cap = 8;
    metrics::HealthVerdict v;
    for (int step = 0; step < 3; ++step) {
        s.step = step;
        v = mon.evaluate(s);
    }
    EXPECT_EQ(v.grade, metrics::HealthGrade::Warn);
    EXPECT_EQ(v.rule, "open_close_cap_streak");
    for (int step = 3; step < 8; ++step) {
        s.step = step;
        v = mon.evaluate(s);
    }
    EXPECT_EQ(v.grade, metrics::HealthGrade::Critical);
}

TEST(MetricsHealth, EnergyGrowthStreak) {
    metrics::HealthMonitor mon;
    metrics::HealthSample s = ok_sample(0);
    s.has_energy = true;
    s.energy_total = 100.0;
    EXPECT_EQ(mon.evaluate(s).grade, metrics::HealthGrade::Ok) << "first sample: no prev";
    metrics::HealthVerdict v;
    for (int step = 1; step <= 3; ++step) {
        s.step = step;
        s.energy_total *= 1.10; // +10% per step >> 5% tolerance
        v = mon.evaluate(s);
    }
    EXPECT_EQ(v.grade, metrics::HealthGrade::Warn);
    EXPECT_EQ(v.rule, "energy_growth");

    // Dissipating energy is healthy, streak resets.
    s.step = 4;
    s.energy_total *= 0.5;
    EXPECT_EQ(mon.evaluate(s).grade, metrics::HealthGrade::Ok);
}

TEST(MetricsHealth, PenetrationSpikeIsImmediate) {
    metrics::HealthMonitor mon;
    metrics::HealthSample s = ok_sample(0);
    s.length_scale = 10.0;
    s.max_penetration = 0.2; // ratio 0.02: warn band
    metrics::HealthVerdict v = mon.evaluate(s);
    EXPECT_EQ(v.grade, metrics::HealthGrade::Warn);
    EXPECT_EQ(v.rule, "interpenetration_spike");
    s.step = 1;
    s.max_penetration = 0.6; // ratio 0.06 > 0.05: critical, no streak needed
    v = mon.evaluate(s);
    EXPECT_EQ(v.grade, metrics::HealthGrade::Critical);
}

TEST(MetricsHealth, LatencyOutlierWarnsAfterWarmup) {
    metrics::HealthMonitor mon;
    metrics::HealthSample s = ok_sample(0);
    // An early spike must NOT fire: fewer than min_latency_samples seen.
    s.latency_s = 1.0;
    EXPECT_EQ(mon.evaluate(s).grade, metrics::HealthGrade::Ok);
    for (int step = 1; step <= 10; ++step) {
        s.step = step;
        s.latency_s = 1e-3;
        EXPECT_EQ(mon.evaluate(s).grade, metrics::HealthGrade::Ok) << step;
    }
    s.step = 11;
    s.latency_s = 0.5; // 500x the median
    const metrics::HealthVerdict v = mon.evaluate(s);
    EXPECT_EQ(v.grade, metrics::HealthGrade::Warn) << "latency outliers never page Critical";
    EXPECT_EQ(v.rule, "step_latency_outlier");
}

TEST(MetricsHealth, RecentVerdictTailIsBounded) {
    metrics::HealthMonitor mon;
    metrics::HealthSample s = ok_sample(0);
    s.length_scale = 1.0;
    s.max_penetration = 0.02; // immediate warn every step
    for (int step = 0; step < 200; ++step) {
        s.step = step;
        (void)mon.evaluate(s);
    }
    EXPECT_LE(mon.recent().size(), 64u);
    EXPECT_EQ(mon.recent().back().step, 199) << "newest verdicts are the ones kept";
}

// --------------------------------------------------------- flight recorder

TEST(MetricsFlightRecorder, RingKeepsLastNOldestFirst) {
    metrics::FlightRecorder ring(4);
    EXPECT_EQ(ring.size(), 0u);
    for (int step = 0; step < 10; ++step) ring.push(record_for_step(step));
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 4u);
    const auto tail = ring.tail();
    ASSERT_EQ(tail.size(), 4u);
    EXPECT_EQ(tail.front()->step, 6);
    EXPECT_EQ(tail.back()->step, 9);
}

TEST(MetricsFlightRecorder, PostmortemBundleRoundTrips) {
    metrics::FlightRecorder ring(8);
    obs::Aggregator ledger;
    for (int step = 0; step < 5; ++step) {
        ring.push(record_for_step(step));
        ledger.on_step(record_for_step(step));
    }
    metrics::HealthMonitor health;
    metrics::HealthSample bad = ok_sample(4);
    bad.max_penetration = 0.06;
    (void)health.evaluate(bad);

    metrics::Registry reg;
    reg.counter("t_total").inc(5);

    metrics::PostmortemContext ctx;
    ctx.job = "unit-job";
    ctx.mode = "serial";
    ctx.reason = "failed";
    ctx.error = "synthetic failure";
    ctx.device = "k40";
    ctx.state_fingerprint = 0xdeadbeefcafef00dull;
    ctx.config.set("dt", obs::JsonValue::number(1e-3));
    ctx.recorder = &ring;
    ctx.health = &health;
    ctx.ledger = &ledger;
    ctx.registry = &reg;

    const obs::JsonValue doc = metrics::build_postmortem(ctx);
    const metrics::PostmortemValidation val = metrics::validate_postmortem(doc);
    ASSERT_TRUE(val) << val.error;
    EXPECT_EQ(val.records, 5);
    EXPECT_GE(val.verdicts, 1);
    EXPECT_EQ(doc.find("state_fingerprint")->as_string(), "deadbeefcafef00d");
    EXPECT_EQ(doc.find("health")->find("worst")->as_string(), "critical");
    ASSERT_NE(doc.find("metrics"), nullptr) << "registry snapshot embedded";
    ASSERT_NE(doc.find("kernel_ledger"), nullptr);

    // The validator rejects a tampered bundle.
    obs::JsonValue broken = doc;
    broken.set("version", obs::JsonValue::integer(99));
    EXPECT_FALSE(metrics::validate_postmortem(broken));
}

TEST(MetricsFlightRecorder, WriteBundleToDisk) {
    const std::string dir = ::testing::TempDir() + "gdda_pm_test";
    std::filesystem::remove_all(dir);

    metrics::FlightRecorder ring(4);
    ring.push(record_for_step(0));
    metrics::HealthMonitor health;
    metrics::PostmortemContext ctx;
    ctx.job = "job one/two"; // sanitized in the filename
    ctx.mode = "serial";
    ctx.reason = "deadline_exceeded";
    ctx.recorder = &ring;
    ctx.health = &health;

    EXPECT_EQ(metrics::postmortem_filename("job one/two", "deadline_exceeded"),
              "postmortem_job_one_two_deadline_exceeded.json");
    std::string path;
    std::string err;
    ASSERT_TRUE(metrics::write_postmortem(ctx, dir, &path, &err)) << err;
    EXPECT_NE(path.find("postmortem_job_one_two_deadline_exceeded.json"), std::string::npos);
    const metrics::PostmortemValidation val = metrics::validate_postmortem_file(path);
    EXPECT_TRUE(val) << val.error;
    EXPECT_EQ(val.records, 1);
    std::filesystem::remove_all(dir);
}

// -------------------------------------------------------- engine integration

TEST(MetricsEngine, ObserverPopulatesRegistry) {
    metrics::Registry::global().reset_values();
    core::SimConfig cfg = small_cfg();
    cfg.metrics.enabled = true;

    block::BlockSystem sys = models::make_slope_with_blocks(30);
    core::DdaEngine eng(sys, cfg, core::EngineMode::Serial);
    ASSERT_NE(eng.metrics(), nullptr);
    const int steps = 5;
    for (int s = 0; s < steps; ++s) eng.step();

    metrics::Registry& reg = metrics::Registry::global();
    EXPECT_EQ(reg.counter("gdda_engine_steps_total", "", {{"mode", "serial"}}).value(),
              static_cast<std::uint64_t>(steps));
    EXPECT_GT(reg.counter("gdda_pcg_iterations_total", "", {{"mode", "serial"}}).value(), 0u);
    EXPECT_GT(reg.counter("gdda_pcg_solves_total", "",
                          {{"mode", "serial"}, {"converged", "true"}})
                  .value(),
              0u);
    metrics::Histogram& lat = reg.histogram("gdda_engine_step_seconds",
                                            metrics::default_latency_buckets(), "",
                                            {{"mode", "serial"}});
    EXPECT_EQ(lat.count(), static_cast<std::uint64_t>(steps));
    EXPECT_GT(lat.sum(), 0.0);
    // Pair cache: first step is a rebuild (miss), warm steps may hit.
    const std::uint64_t hits =
        reg.counter("gdda_pair_cache_hits_total", "", {{"mode", "serial"}}).value();
    const std::uint64_t misses =
        reg.counter("gdda_pair_cache_misses_total", "", {{"mode", "serial"}}).value();
    EXPECT_EQ(hits + misses, static_cast<std::uint64_t>(steps));
    EXPECT_GE(misses, 1u);
    // Narrow-phase memo: counted per pair, and equal to the engine's own
    // counters.
    EXPECT_EQ(reg.counter("gdda_narrow_cache_hits_total", "", {{"mode", "serial"}}).value(),
              eng.narrow_memo().pairs_reused);
    EXPECT_EQ(reg.counter("gdda_narrow_cache_misses_total", "", {{"mode", "serial"}}).value(),
              eng.narrow_memo().pairs_rebuilt);
    EXPECT_GT(eng.narrow_memo().pairs_rebuilt, 0u);
    // Health ran and the engine is fine.
    EXPECT_EQ(eng.metrics()->health().worst(), metrics::HealthGrade::Ok);
    EXPECT_EQ(eng.metrics()->flight_recorder().size(), static_cast<std::size_t>(steps));

    // The populated global registry renders a valid exposition.
    std::istringstream in(reg.render_prometheus());
    const metrics::ExpositionValidation val = metrics::validate_exposition(in);
    EXPECT_TRUE(val) << val.error;
}

TEST(MetricsEngine, GpuModeKernelLaunchCountsMatchLedgers) {
    metrics::Registry::global().reset_values();
    core::SimConfig cfg = small_cfg();
    cfg.metrics.enabled = true;

    block::BlockSystem sys = models::make_slope_with_blocks(30);
    core::DdaEngine eng(sys, cfg, core::EngineMode::Gpu);
    for (int s = 0; s < 3; ++s) eng.step();

    metrics::Registry& reg = metrics::Registry::global();
    std::uint64_t total_from_metrics = 0;
    for (int m = 0; m < core::kModuleCount; ++m)
        total_from_metrics +=
            reg.counter("gdda_kernel_launches_total", "",
                        {{"mode", "gpu"}, {"module", std::string(obs::kModuleKeys[m])}})
                .value();
    std::uint64_t total_from_ledgers = 0;
    for (int m = 0; m < core::kModuleCount; ++m)
        total_from_ledgers +=
            eng.ledgers().ledger(static_cast<core::Module>(m)).total().launches;
    EXPECT_GT(total_from_metrics, 0u);
    EXPECT_EQ(total_from_metrics, total_from_ledgers)
        << "launch counters must agree with the engine's own cost ledgers";
}

TEST(MetricsEngine, TrajectoriesBitwiseIdenticalWithObserverOn) {
    for (const core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
        std::uint64_t fp_off = 0;
        std::uint64_t fp_on = 0;
        {
            block::BlockSystem sys = models::make_slope_with_blocks(40);
            core::DdaEngine eng(sys, small_cfg(), mode);
            for (int s = 0; s < 20; ++s) eng.step();
            fp_off = block::state_fingerprint(sys);
        }
        {
            core::SimConfig cfg = small_cfg();
            cfg.metrics.enabled = true;
            cfg.metrics.flight_recorder_capacity = 8;
            block::BlockSystem sys = models::make_slope_with_blocks(40);
            core::DdaEngine eng(sys, cfg, mode);
            for (int s = 0; s < 20; ++s) eng.step();
            fp_on = block::state_fingerprint(sys);
        }
        EXPECT_EQ(fp_off, fp_on) << "observer-only contract violated in mode "
                                 << (mode == core::EngineMode::Serial ? "serial" : "gpu");
    }
}

TEST(MetricsEngine, ForcedNonConvergenceIsCountedAndFlagged) {
    metrics::Registry::global().reset_values();
    core::SimConfig cfg = small_cfg();
    cfg.metrics.enabled = true;
    cfg.pcg.max_iters = 1; // every solve exits unconverged
    cfg.pcg.rel_tol = 1e-16;

    block::BlockSystem sys = models::make_slope_with_blocks(30);
    core::DdaEngine eng(sys, cfg, core::EngineMode::Serial);
    const core::StepStats stats = eng.step();
    EXPECT_GT(stats.pcg_failed_solves, 0) << "StepStats must flag silent solver failure";
    EXPECT_GT(metrics::Registry::global()
                  .counter("gdda_pcg_solves_total", "",
                           {{"mode", "serial"}, {"converged", "false"}})
                  .value(),
              0u);
}

TEST(MetricsEngine, CriticalHealthAutoDumpsPostmortem) {
    const std::string dir = ::testing::TempDir() + "gdda_pm_critical";
    std::filesystem::remove_all(dir);
    core::SimConfig cfg = small_cfg();
    cfg.metrics.enabled = true;
    cfg.metrics.postmortem_dir = dir;
    cfg.pcg.max_iters = 1; // persistent non-convergence -> Critical streak

    block::BlockSystem sys = models::make_slope_with_blocks(30);
    core::DdaEngine eng(sys, cfg, core::EngineMode::Serial);
    for (int s = 0; s < 8; ++s) eng.step();

    ASSERT_NE(eng.metrics(), nullptr);
    EXPECT_EQ(eng.metrics()->health().worst(), metrics::HealthGrade::Critical);
    ASSERT_TRUE(eng.metrics()->postmortem_written())
        << "first Critical step must dump a bundle";
    const metrics::PostmortemValidation val =
        metrics::validate_postmortem_file(eng.metrics()->postmortem_path());
    ASSERT_TRUE(val) << val.error;
    EXPECT_GT(val.records, 0);
    EXPECT_GT(val.verdicts, 0);

    obs::JsonValue doc;
    std::string err;
    std::ifstream in(eng.metrics()->postmortem_path());
    std::stringstream buf;
    buf << in.rdbuf();
    ASSERT_TRUE(obs::JsonValue::parse(buf.str(), doc, &err)) << err;
    EXPECT_EQ(doc.find("reason")->as_string(), "health_critical");
    EXPECT_NE(doc.find("state_fingerprint")->as_string(), "0000000000000000")
        << "engine-side dump has the live state to fingerprint";
    // The preconditioner travels by name, not by its enum's number.
    const obs::JsonValue* precond = doc.find("config")->find("precond");
    ASSERT_NE(precond, nullptr);
    EXPECT_EQ(precond->as_string(), "block_jacobi");
    std::filesystem::remove_all(dir);
}

TEST(MetricsEngine, ConfigValidationRejectsNonsense) {
    core::SimConfig cfg = small_cfg();
    cfg.metrics.enabled = true;
    cfg.metrics.flight_recorder_capacity = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.metrics.flight_recorder_capacity = 8;
    EXPECT_NO_THROW(cfg.validate());
}

// ------------------------------------------------------ scheduler integration

TEST(MetricsSched, SchedulerInstrumentsAndFailureBundle) {
    metrics::Registry::global().reset_values();
    const std::string dir = ::testing::TempDir() + "gdda_pm_sched";
    std::filesystem::remove_all(dir);

    sched::Job good;
    good.name = "good";
    good.scene = [] { return models::make_column(4); };
    good.steps = 3;
    good.config.metrics.enabled = true;
    good.config.metrics.postmortem_dir = dir;

    sched::Job doomed = good;
    doomed.name = "doomed";
    doomed.fail_after = 2; // fault injection: throws after step 2
    doomed.max_retries = 1;

    sched::SchedulerConfig cfg;
    cfg.workers = 2;
    const sched::BatchReport report =
        sched::Scheduler::run_batch({good, doomed}, cfg);

    ASSERT_EQ(report.jobs.size(), 2u);
    const sched::JobResult& ok = report.jobs[0];
    const sched::JobResult& bad = report.jobs[1];
    EXPECT_EQ(ok.state, sched::JobState::Done);
    EXPECT_TRUE(ok.postmortem_path.empty());
    EXPECT_EQ(bad.state, sched::JobState::Failed);
    EXPECT_EQ(bad.attempts, 2) << "fail_after fails every attempt";
    EXPECT_NE(bad.error.find("fault injection"), std::string::npos) << bad.error;

    // The failed job left a validating bundle with its last steps.
    ASSERT_FALSE(bad.postmortem_path.empty());
    const metrics::PostmortemValidation val =
        metrics::validate_postmortem_file(bad.postmortem_path);
    ASSERT_TRUE(val) << val.error;
    EXPECT_EQ(val.records, 2) << "ring holds the steps completed before the throw";

    obs::JsonValue doc;
    std::string err;
    std::ifstream in(bad.postmortem_path);
    std::stringstream buf;
    buf << in.rdbuf();
    ASSERT_TRUE(obs::JsonValue::parse(buf.str(), doc, &err)) << err;
    EXPECT_EQ(doc.find("reason")->as_string(), "failed");
    EXPECT_EQ(doc.find("job")->as_string(), "doomed");

    // Scheduler-level instruments counted both jobs and every engine step.
    metrics::Registry& reg = metrics::Registry::global();
    EXPECT_EQ(reg.counter("gdda_sched_jobs_total", "", {{"state", "done"}}).value(), 1u);
    EXPECT_EQ(reg.counter("gdda_sched_jobs_total", "", {{"state", "failed"}}).value(), 1u);
    // good: 3 steps; doomed: 2 steps x 2 attempts.
    EXPECT_EQ(reg.counter("gdda_sched_steps_total").value(), 7u);
    EXPECT_DOUBLE_EQ(reg.gauge("gdda_sched_busy_workers").value(), 0.0);

    // Batch report surfaces the bundle path and the schema carries it.
    const obs::JsonValue batch = report.to_json();
    EXPECT_EQ(static_cast<int>(batch.find("version")->as_number()), 5);
    ASSERT_NE(batch.find("jobs")->items()[1].find("postmortem_path"), nullptr);
    std::filesystem::remove_all(dir);
}

TEST(MetricsSched, DeadlineExceededDumpsWithLiveFingerprint) {
    const std::string dir = ::testing::TempDir() + "gdda_pm_deadline";
    std::filesystem::remove_all(dir);

    sched::Job slow;
    slow.name = "slow";
    slow.scene = [] { return models::make_column(4); };
    slow.steps = 100000;
    slow.deadline_ms = 1.0; // expires after a handful of steps at most
    slow.config.metrics.enabled = true;
    slow.config.metrics.postmortem_dir = dir;

    const sched::BatchReport report = sched::Scheduler::run_batch({slow});
    ASSERT_EQ(report.jobs.size(), 1u);
    const sched::JobResult& r = report.jobs[0];
    ASSERT_EQ(r.state, sched::JobState::DeadlineExceeded);
    ASSERT_FALSE(r.postmortem_path.empty());
    const metrics::PostmortemValidation val =
        metrics::validate_postmortem_file(r.postmortem_path);
    EXPECT_TRUE(val) << val.error;

    obs::JsonValue doc;
    std::string err;
    std::ifstream in(r.postmortem_path);
    std::stringstream buf;
    buf << in.rdbuf();
    ASSERT_TRUE(obs::JsonValue::parse(buf.str(), doc, &err)) << err;
    EXPECT_EQ(doc.find("reason")->as_string(), "deadline_exceeded");
    if (r.steps_done > 0)
        EXPECT_NE(doc.find("state_fingerprint")->as_string(), "0000000000000000")
            << "deadline kill leaves the state alive to fingerprint";
    std::filesystem::remove_all(dir);
}

TEST(MetricsSched, SchedulerRunsBitwiseIdenticalWithMetricsOn) {
    const auto run = [](bool metrics_on) {
        sched::Job j;
        j.name = "fp";
        j.scene = [] { return models::make_column(5); };
        j.steps = 10;
        j.config.metrics.enabled = metrics_on;
        const sched::BatchReport rep = sched::Scheduler::run_batch({j});
        return rep.jobs.at(0).state_hash;
    };
    EXPECT_EQ(run(false), run(true));
}
