// Tests for the gdda::obs telemetry subsystem: JSON encode/parse round trips,
// schema validation, sink behaviour, aggregator replay, and — the acceptance
// criterion of the subsystem — exact agreement between the telemetry stream
// and the engine's own ModuleTimers/ModuleLedgers accounting in both modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "models/large_scene.hpp"
#include "models/slope.hpp"
#include "obs/aggregator.hpp"
#include "obs/json.hpp"
#include "obs/record.hpp"
#include "obs/recorder.hpp"
#include "obs/sink.hpp"
#include "obs/validate.hpp"

using namespace gdda;

namespace {

/// Test sink capturing every record verbatim.
class MemorySink final : public obs::Sink {
public:
    void on_step(const obs::StepRecord& rec) override { records.push_back(rec); }
    std::vector<obs::StepRecord> records;
};

/// A fully populated record exercising every schema field.
obs::StepRecord sample_record() {
    obs::StepRecord rec;
    rec.mode = "gpu";
    rec.step = 7;
    rec.time = 0.008;
    rec.dt = 1e-3;
    rec.retries = 1;
    rec.open_close_iters = 3;
    rec.pcg_solves = 3;
    rec.pcg_iterations = 41;
    rec.pcg_failed_solves = 1;
    rec.rejected_pcg_solves = 1;
    rec.rejected_pcg_iterations = 12;
    rec.rejected_open_close_iters = 1;
    rec.hit_dt_min = true;
    rec.contacts = 12;
    rec.active_contacts = 9;
    rec.max_displacement = 2.5e-4;
    rec.max_penetration = 1.5e-6;
    rec.converged = true;
    rec.cls_candidates = 20;
    rec.cls_ve = 12;
    rec.cls_vv1 = 3;
    rec.cls_vv2 = 1;
    rec.cls_abandoned = 4;
    for (int m = 0; m < obs::kModuleCount; ++m) {
        obs::ModuleRecord& mr = rec.modules[m];
        mr.seconds = 1e-4 * (m + 1);
        mr.flops = 1000.0 * (m + 1);
        mr.bytes_coalesced = 4096.0 * (m + 1);
        mr.bytes_texture = 128.0 * m;
        mr.bytes_random = 64.0 * m;
        mr.depth = 2.0;
        mr.branch_slots = 96.0;
        mr.divergent_slots = 32.0;
        mr.launches = m + 1;
    }
    rec.solves.push_back({14, 3.2e-7, true, {1.0, 0.1, 3.2e-7}, 5, {0, 3, 1, 0, 0, 1}, 2e-6});
    rec.solves.push_back({27, 8.9e-7, true, {}, 0, {}, 1.5e-6});
    rec.attempts.push_back({2e-3, false, true, true, false, 4.5e-4, 3e-3});
    return rec;
}

core::SimConfig small_cfg() {
    core::SimConfig cfg;
    cfg.dt = 5e-4;
    cfg.dt_max = 2e-3;
    cfg.velocity_carry = 0.0;
    cfg.precond = core::PrecondKind::BlockJacobi;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------- JSON layer

TEST(ObsJson, NumberRoundTrip) {
    const double values[] = {0.0, 1.0, -3.5, 1e-12, 6.02214076e23, 0.1, 1.0 / 3.0};
    for (double v : values) {
        obs::JsonValue doc;
        std::string err;
        ASSERT_TRUE(obs::JsonValue::parse(obs::JsonValue::number(v).dump(), doc, &err)) << err;
        EXPECT_EQ(doc.as_number(), v) << "value " << v;
    }
}

TEST(ObsJson, IntegersPrintWithoutExponent) {
    EXPECT_EQ(obs::JsonValue::integer(0).dump(), "0");
    EXPECT_EQ(obs::JsonValue::integer(123456789).dump(), "123456789");
    EXPECT_EQ(obs::JsonValue::number(-42.0).dump(), "-42");
}

TEST(ObsJson, StringEscapes) {
    const std::string raw = "a\"b\\c\n\t\x01 end";
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::JsonValue::parse(obs::JsonValue::string(raw).dump(), doc, &err)) << err;
    EXPECT_EQ(doc.as_string(), raw);
}

TEST(ObsJson, ParseUnicodeEscape) {
    obs::JsonValue doc;
    ASSERT_TRUE(obs::JsonValue::parse("\"\\u00e9\\u0041\"", doc, nullptr));
    EXPECT_EQ(doc.as_string(), "\xc3\xa9"
                               "A");
}

TEST(ObsJson, ObjectPreservesOrderAndFinds) {
    obs::JsonValue obj = obs::JsonValue::object();
    obj.set("z", obs::JsonValue::integer(1));
    obj.set("a", obs::JsonValue::integer(2));
    EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":2}");
    ASSERT_NE(obj.find("a"), nullptr);
    EXPECT_EQ(obj.find("a")->as_number(), 2.0);
    EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(ObsJson, ParserRejectsMalformedInput) {
    const char* bad[] = {"",       "{",           "[1,]",        "{\"a\":}",
                         "tru",    "\"unclosed",  "{\"a\":1,}",  "01",
                         "1 2",    "{\"a\" 1}",   "nul",         "[1 2]"};
    for (const char* text : bad) {
        obs::JsonValue doc;
        std::string err;
        EXPECT_FALSE(obs::JsonValue::parse(text, doc, &err)) << "accepted: " << text;
        EXPECT_FALSE(err.empty()) << text;
    }
}

// ------------------------------------------------------------- record codec

TEST(ObsRecord, JsonRoundTripPreservesEveryField) {
    const obs::StepRecord rec = sample_record();
    const std::string line = obs::to_json(rec).dump();

    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::JsonValue::parse(line, doc, &err)) << err;
    obs::StepRecord back;
    ASSERT_TRUE(obs::from_json(doc, back, &err)) << err;

    EXPECT_EQ(back.mode, rec.mode);
    EXPECT_EQ(back.step, rec.step);
    EXPECT_EQ(back.time, rec.time);
    EXPECT_EQ(back.dt, rec.dt);
    EXPECT_EQ(back.retries, rec.retries);
    EXPECT_EQ(back.open_close_iters, rec.open_close_iters);
    EXPECT_EQ(back.pcg_solves, rec.pcg_solves);
    EXPECT_EQ(back.pcg_iterations, rec.pcg_iterations);
    EXPECT_EQ(back.pcg_failed_solves, rec.pcg_failed_solves);
    EXPECT_EQ(back.rejected_pcg_solves, rec.rejected_pcg_solves);
    EXPECT_EQ(back.rejected_pcg_iterations, rec.rejected_pcg_iterations);
    EXPECT_EQ(back.rejected_open_close_iters, rec.rejected_open_close_iters);
    EXPECT_EQ(back.hit_dt_min, rec.hit_dt_min);
    EXPECT_EQ(back.contacts, rec.contacts);
    EXPECT_EQ(back.active_contacts, rec.active_contacts);
    EXPECT_EQ(back.max_displacement, rec.max_displacement);
    EXPECT_EQ(back.max_penetration, rec.max_penetration);
    EXPECT_EQ(back.converged, rec.converged);
    EXPECT_EQ(back.cls_candidates, rec.cls_candidates);
    EXPECT_EQ(back.cls_ve, rec.cls_ve);
    EXPECT_EQ(back.cls_vv1, rec.cls_vv1);
    EXPECT_EQ(back.cls_vv2, rec.cls_vv2);
    EXPECT_EQ(back.cls_abandoned, rec.cls_abandoned);
    for (int m = 0; m < obs::kModuleCount; ++m) {
        EXPECT_EQ(back.modules[m].seconds, rec.modules[m].seconds) << m;
        EXPECT_EQ(back.modules[m].flops, rec.modules[m].flops) << m;
        EXPECT_EQ(back.modules[m].bytes_coalesced, rec.modules[m].bytes_coalesced) << m;
        EXPECT_EQ(back.modules[m].bytes_texture, rec.modules[m].bytes_texture) << m;
        EXPECT_EQ(back.modules[m].bytes_random, rec.modules[m].bytes_random) << m;
        EXPECT_EQ(back.modules[m].depth, rec.modules[m].depth) << m;
        EXPECT_EQ(back.modules[m].branch_slots, rec.modules[m].branch_slots) << m;
        EXPECT_EQ(back.modules[m].divergent_slots, rec.modules[m].divergent_slots) << m;
        EXPECT_EQ(back.modules[m].launches, rec.modules[m].launches) << m;
    }
    ASSERT_EQ(back.solves.size(), rec.solves.size());
    EXPECT_EQ(back.solves[0].iterations, 14);
    EXPECT_EQ(back.solves[0].final_residual, 3.2e-7);
    EXPECT_TRUE(back.solves[0].converged);
    EXPECT_EQ(back.solves[0].residuals, rec.solves[0].residuals);
    EXPECT_TRUE(back.solves[1].residuals.empty());
    for (std::size_t k = 0; k < rec.solves.size(); ++k) {
        EXPECT_EQ(back.solves[k].state_changes, rec.solves[k].state_changes) << k;
        EXPECT_EQ(back.solves[k].transitions, rec.solves[k].transitions) << k;
        EXPECT_EQ(back.solves[k].max_penetration, rec.solves[k].max_penetration) << k;
    }
    ASSERT_EQ(back.attempts.size(), rec.attempts.size());
    const obs::AttemptRecord& a = back.attempts[0];
    EXPECT_EQ(a.dt, rec.attempts[0].dt);
    EXPECT_FALSE(a.open_close_ok);
    EXPECT_TRUE(a.pcg_ok);
    EXPECT_TRUE(a.displacement_ok);
    EXPECT_FALSE(a.penetration_ok);
    EXPECT_EQ(a.max_displacement, rec.attempts[0].max_displacement);
    EXPECT_EQ(a.max_penetration, rec.attempts[0].max_penetration);
}

// ---------------------------------------------------------------- validation

TEST(ObsValidate, AcceptsEmittedRecord) {
    const std::string line = obs::to_json(sample_record()).dump();
    const obs::ValidationResult res = obs::validate_line(line);
    EXPECT_TRUE(res) << res.error;
}

TEST(ObsValidate, RejectsWrongSchemaOrVersion) {
    obs::JsonValue doc = obs::to_json(sample_record());
    doc.set("version", obs::JsonValue::integer(99));
    EXPECT_FALSE(obs::validate_line(doc.dump()));
    doc = obs::to_json(sample_record());
    doc.set("schema", obs::JsonValue::string("something.else"));
    EXPECT_FALSE(obs::validate_line(doc.dump()));
}

TEST(ObsValidate, DecodesV4DocumentIgnoringItsSolverCounters) {
    // v4 carried three mixed-precision counters that v5 dropped; a v4
    // document must still decode, with those fields simply not read.
    obs::JsonValue doc = obs::to_json(sample_record());
    doc.set("version", obs::JsonValue::integer(4));
    doc.set("pcg_refine_iterations", obs::JsonValue::integer(5));
    doc.set("pcg_fp32_iterations", obs::JsonValue::integer(40));
    doc.set("pcg_mixed_fallbacks", obs::JsonValue::integer(1));
    obs::StepRecord back;
    std::string err;
    ASSERT_TRUE(obs::from_json(doc, back, &err)) << err;
    EXPECT_EQ(back.pcg_solves, 3);
    EXPECT_EQ(back.pcg_iterations, 41);
    EXPECT_EQ(back.pcg_failed_solves, 1);
    EXPECT_TRUE(obs::validate_line(doc.dump()));
}

TEST(ObsValidate, DecodesV5DocumentWithoutRejectedCounts) {
    // v5 predates the rejected-attempt counts: a v5 document decodes with
    // them defaulted, and a v6 one must carry them within the totals.
    obs::JsonValue doc = obs::to_json(sample_record());
    doc.set("version", obs::JsonValue::integer(5));
    obs::StepRecord back;
    std::string err;
    ASSERT_TRUE(obs::from_json(doc, back, &err)) << err;
    EXPECT_EQ(back.rejected_pcg_solves, 0);
    EXPECT_EQ(back.rejected_pcg_iterations, 0);
    EXPECT_EQ(back.rejected_open_close_iters, 0);
    EXPECT_FALSE(back.hit_dt_min);

    obs::JsonValue too_many = obs::to_json(sample_record());
    too_many.set("rejected_pcg_solves", obs::JsonValue::integer(4));
    EXPECT_FALSE(obs::validate_line(too_many.dump()));
    too_many = obs::to_json(sample_record());
    too_many.set("rejected_pcg_iterations", obs::JsonValue::integer(42));
    EXPECT_FALSE(obs::validate_line(too_many.dump()));
    obs::JsonValue missing = obs::to_json(sample_record());
    missing.set("hit_dt_min", obs::JsonValue::integer(1));
    EXPECT_FALSE(obs::validate_line(missing.dump()));
}

TEST(ObsValidate, DecodesV6DocumentWithoutPassOutcomesOrAttempts) {
    // v6 predates the per-pass open-close outcome and the attempt entries:
    // a v6 document without them decodes with them defaulted.
    obs::JsonValue doc = obs::to_json(sample_record());
    doc.set("version", obs::JsonValue::integer(6));
    obs::JsonValue solves = obs::JsonValue::array();
    for (const obs::JsonValue& sj : doc.find("solves")->items()) {
        obs::JsonValue v6 = obs::JsonValue::object();
        for (const auto& [key, value] : sj.members())
            if (key != "state_changes" && key != "transitions" && key != "max_penetration")
                v6.set(key, obs::JsonValue(value));
        solves.push(std::move(v6));
    }
    doc.set("solves", std::move(solves));
    obs::JsonValue stripped = obs::JsonValue::object();
    for (const auto& [key, value] : doc.members())
        if (key != "attempts") stripped.set(key, obs::JsonValue(value));
    obs::StepRecord back;
    std::string err;
    ASSERT_TRUE(obs::from_json(stripped, back, &err)) << err;
    ASSERT_EQ(back.solves.size(), 2u);
    EXPECT_EQ(back.solves[0].iterations, 14);
    EXPECT_EQ(back.solves[0].state_changes, 0);
    EXPECT_EQ(back.solves[0].transitions, (std::array<int, obs::kTransitionCount>{}));
    EXPECT_EQ(back.solves[0].max_penetration, 0.0);
    EXPECT_TRUE(back.attempts.empty());
    EXPECT_EQ(back.rejected_pcg_solves, 1);

    // The same document claiming v7 lacks the v7 fields.
    stripped.set("version", obs::JsonValue::integer(7));
    EXPECT_FALSE(obs::validate_line(stripped.dump()));

    // v7: transitions must sum to state_changes, and a rejected attempt
    // must fail at least one acceptance test.
    obs::StepRecord bad = sample_record();
    bad.solves[0].state_changes = 6;
    EXPECT_FALSE(obs::validate_line(obs::to_json(bad).dump()));
    bad = sample_record();
    bad.attempts[0].open_close_ok = true;
    bad.attempts[0].penetration_ok = true;
    EXPECT_FALSE(obs::validate_line(obs::to_json(bad).dump()));
}

TEST(ObsValidate, RejectsMissingOrMistypedField) {
    // Missing "dt".
    obs::JsonValue doc;
    std::string line = obs::to_json(sample_record()).dump();
    ASSERT_TRUE(obs::JsonValue::parse(line, doc, nullptr));
    obs::JsonValue stripped = obs::JsonValue::object();
    for (const auto& [key, value] : doc.members())
        if (key != "dt") stripped.set(key, obs::JsonValue(value));
    EXPECT_FALSE(obs::validate_line(stripped.dump()));

    // Mistyped "contacts" (negative count).
    obs::JsonValue doc2 = obs::to_json(sample_record());
    doc2.set("contacts", obs::JsonValue::number(-3));
    EXPECT_FALSE(obs::validate_line(doc2.dump()));

    // Garbage is invalid, with a parse error message.
    const obs::ValidationResult res = obs::validate_line("not json at all");
    EXPECT_FALSE(res);
    EXPECT_FALSE(res.error.empty());
}

TEST(ObsValidate, StreamStopsAtFirstBadLineWithLineNumber) {
    const std::string good = obs::to_json(sample_record()).dump();
    std::stringstream ss;
    ss << good << "\n\n" << good << "\n{\"schema\":\"bogus\"}\n" << good << "\n";
    const obs::ValidationResult res = obs::validate_stream(ss);
    EXPECT_FALSE(res);
    EXPECT_EQ(res.records, 2);
    EXPECT_EQ(res.bad_line, 4);
}

TEST(ObsValidate, MissingFileFailsAndSchemaDocParses) {
    EXPECT_FALSE(obs::validate_file("/nonexistent/telemetry.jsonl"));
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::JsonValue::parse(obs::schema_json(), doc, &err)) << err;
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->as_string(), std::string(obs::kStepSchemaName));
}

// -------------------------------------------------------------------- sinks

TEST(ObsSinks, CsvHeaderMatchesRowShape) {
    const std::string path = ::testing::TempDir() + "obs_test.csv";
    {
        obs::CsvSink csv(path);
        csv.on_step(sample_record());
        csv.on_step(sample_record());
        csv.flush();
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header, obs::CsvSink::header());
    const auto commas = [](const std::string& s) {
        return std::count(s.begin(), s.end(), ',');
    };
    std::string row;
    int rows = 0;
    while (std::getline(in, row)) {
        ++rows;
        EXPECT_EQ(commas(row), commas(header)) << "row " << rows;
    }
    EXPECT_EQ(rows, 2);
    std::remove(path.c_str());
}

TEST(ObsSinks, RecorderFromConfigDisabledIsNull) {
    obs::TelemetryConfig cfg; // enabled = false
    EXPECT_EQ(obs::Recorder::from_config(cfg), nullptr);
    cfg.enabled = true;
    cfg.jsonl_path = "/nonexistent-dir/x/y.jsonl";
    EXPECT_THROW(obs::Recorder::from_config(cfg), std::runtime_error);
}

// --------------------------------------------------- engine integration

TEST(ObsEngine, AggregatorMatchesModuleTimersExactly) {
    block::BlockSystem sys = models::make_slope_with_blocks(30);
    core::DdaEngine eng(sys, small_cfg(), core::EngineMode::Serial);
    auto rec = std::make_shared<obs::Recorder>();
    rec->ensure_aggregator();
    eng.attach_recorder(rec);
    for (int s = 0; s < 5; ++s) eng.step();

    const obs::Aggregator& agg = *rec->aggregator();
    EXPECT_EQ(agg.steps(), 5);
    EXPECT_NEAR(agg.total_seconds(), eng.timers().total(), 1e-9);
    for (int m = 0; m < core::kModuleCount; ++m)
        EXPECT_NEAR(agg.module_seconds(m), eng.timers().seconds(static_cast<core::Module>(m)),
                    1e-9)
            << core::kModuleNames[m];
}

TEST(ObsEngine, RejectedAttemptsAreCounted) {
    // The floored 40x10 lattice retries around its impact; slope:40's first
    // step retries twice; slope:300's and the seed-2 slope:60's cold first
    // steps shrink dt to dt_min and end in the last-resort pass.
    struct Scene {
        const char* name;
        block::BlockSystem (*make)();
        int steps;
        int first_retries; ///< step 0's retries, -1 when not pinned
    };
    const Scene scenes[] = {
        {"floored 40x10 lattice",
         [] {
             models::LatticeParams lp;
             lp.cols = 40;
             lp.rows = 10;
             return models::make_block_lattice(lp);
         },
         150, -1},
        {"slope:300", [] { return models::make_slope_with_blocks(300); }, 1, -1},
        {"slope:40", [] { return models::make_slope_with_blocks(40); }, 1, 2},
        {"seed-2 slope:60",
         [] {
             models::SlopeParams p;
             p.seed = 2;
             return models::make_slope_with_blocks(60, p);
         },
         1, 7},
    };
    int rejected_solves = 0;
    int dt_min_hits = 0;
    for (const Scene& scene : scenes) {
        block::BlockSystem sys = scene.make();
        core::DdaEngine eng(sys, {}, core::EngineMode::Serial);
        auto rec = std::make_shared<obs::Recorder>();
        auto mem = std::make_unique<MemorySink>();
        MemorySink* raw = mem.get();
        rec->add_sink(std::move(mem));
        eng.attach_recorder(rec);
        for (int s = 0; s < scene.steps; ++s) {
            SCOPED_TRACE(std::string(scene.name) + " step " + std::to_string(s));
            const core::StepStats st = eng.step();
            const obs::StepRecord& r = raw->records.back();
            EXPECT_EQ(r.rejected_pcg_solves, st.rejected_pcg_solves);
            EXPECT_EQ(r.rejected_pcg_iterations, st.rejected_pcg_iterations);
            EXPECT_EQ(r.rejected_open_close_iters, st.rejected_open_close_iters);
            EXPECT_EQ(r.hit_dt_min, st.hit_dt_min);
            EXPECT_TRUE(obs::validate_line(obs::to_json(r).dump()));
            if (s == 0 && scene.first_retries >= 0) {
                EXPECT_EQ(st.retries, scene.first_retries);
            }
            // One attempts entry per rejected attempt: one per retry, and
            // one more when the step ended in the last-resort pass.
            EXPECT_EQ(static_cast<int>(r.attempts.size()), st.retries + (st.converged ? 0 : 1));
            for (std::size_t a = 0; a < r.attempts.size(); ++a) {
                const obs::AttemptRecord& at = r.attempts[a];
                EXPECT_FALSE(at.open_close_ok && at.pcg_ok && at.displacement_ok &&
                             at.penetration_ok);
                const double next_dt = a + 1 < r.attempts.size() ? r.attempts[a + 1].dt : r.dt;
                EXPECT_GE(at.dt, next_dt) << "a retry never grows dt";
            }
            // One solves entry per pass, whose transitions sum to its state
            // changes; the committed attempt (the accepted one's last
            // open_close_iters passes, or the last-resort pass) sets the
            // step's penetration.
            ASSERT_EQ(static_cast<int>(r.solves.size()), st.pcg_solves);
            int iterations = 0;
            for (const obs::PcgSolveRecord& p : r.solves) {
                int sum = 0;
                for (int t : p.transitions) sum += t;
                EXPECT_EQ(sum, p.state_changes);
                iterations += p.iterations;
            }
            EXPECT_EQ(iterations, st.pcg_iterations);
            const std::size_t committed = st.converged ? r.open_close_iters : 1;
            double committed_pen = 0.0;
            for (std::size_t k = r.solves.size() - committed; k < r.solves.size(); ++k)
                committed_pen = std::max(committed_pen, r.solves[k].max_penetration);
            EXPECT_EQ(committed_pen, r.max_penetration);
            // A step without retries threw nothing away; a retried step
            // threw away at least one solve per rejected attempt.
            if (st.retries == 0 && st.converged) {
                EXPECT_EQ(st.rejected_pcg_solves, 0);
                EXPECT_EQ(st.rejected_pcg_iterations, 0);
                EXPECT_EQ(st.rejected_open_close_iters, 0);
            } else {
                EXPECT_GE(st.rejected_pcg_solves, st.retries);
            }
            // The committed attempt ran open_close_iters solves (one, the
            // last-resort pass, when the step did not converge).
            EXPECT_EQ(st.pcg_solves - st.rejected_pcg_solves,
                      st.converged ? st.open_close_iters : 1);
            EXPECT_LE(st.rejected_pcg_iterations, st.pcg_iterations);
            if (st.hit_dt_min) {
                EXPECT_FALSE(st.converged);
            }
            rejected_solves += st.rejected_pcg_solves;
            dt_min_hits += st.hit_dt_min ? 1 : 0;
        }
    }
    EXPECT_GT(rejected_solves, 0);
    EXPECT_EQ(dt_min_hits, 2);
}

TEST(ObsEngine, SerialAndGpuRecordsAgreeOnPhysics) {
    const core::SimConfig cfg = small_cfg();
    auto serial_sink = std::make_shared<MemorySink>();
    auto gpu_sink = std::make_shared<MemorySink>();
    std::vector<obs::StepRecord> serial_recs;
    std::vector<obs::StepRecord> gpu_recs;
    {
        block::BlockSystem sys = models::make_slope_with_blocks(30);
        core::DdaEngine eng(sys, cfg, core::EngineMode::Serial);
        auto rec = std::make_shared<obs::Recorder>();
        auto mem = std::make_unique<MemorySink>();
        MemorySink* raw = mem.get();
        rec->add_sink(std::move(mem));
        eng.attach_recorder(rec);
        for (int s = 0; s < 4; ++s) eng.step();
        serial_recs = raw->records;
    }
    {
        block::BlockSystem sys = models::make_slope_with_blocks(30);
        core::DdaEngine eng(sys, cfg, core::EngineMode::Gpu);
        auto rec = std::make_shared<obs::Recorder>();
        auto mem = std::make_unique<MemorySink>();
        MemorySink* raw = mem.get();
        rec->add_sink(std::move(mem));
        eng.attach_recorder(rec);
        for (int s = 0; s < 4; ++s) eng.step();
        gpu_recs = raw->records;
    }
    ASSERT_EQ(serial_recs.size(), 4u);
    ASSERT_EQ(gpu_recs.size(), 4u);
    for (std::size_t i = 0; i < serial_recs.size(); ++i) {
        const obs::StepRecord& s = serial_recs[i];
        const obs::StepRecord& g = gpu_recs[i];
        EXPECT_EQ(s.mode, "serial");
        EXPECT_EQ(g.mode, "gpu");
        EXPECT_EQ(s.step, static_cast<int>(i));
        EXPECT_EQ(g.step, static_cast<int>(i));
        // Numerically identical trajectories => identical discrete telemetry.
        EXPECT_EQ(s.dt, g.dt) << "step " << i;
        EXPECT_EQ(s.contacts, g.contacts) << "step " << i;
        EXPECT_EQ(s.active_contacts, g.active_contacts) << "step " << i;
        EXPECT_EQ(s.open_close_iters, g.open_close_iters) << "step " << i;
        EXPECT_EQ(s.pcg_iterations, g.pcg_iterations) << "step " << i;
        EXPECT_EQ(s.cls_candidates, g.cls_candidates) << "step " << i;
        EXPECT_DOUBLE_EQ(s.max_displacement, g.max_displacement) << "step " << i;
        // Only the GPU pipeline accrues analytic kernel costs.
        double serial_bytes = 0.0;
        double gpu_bytes = 0.0;
        double gpu_launches = 0.0;
        for (int m = 0; m < obs::kModuleCount; ++m) {
            serial_bytes += s.modules[m].bytes_coalesced + s.modules[m].bytes_random;
            gpu_bytes += g.modules[m].bytes_coalesced + g.modules[m].bytes_random;
            gpu_launches += static_cast<double>(g.modules[m].launches);
        }
        EXPECT_EQ(serial_bytes, 0.0) << "step " << i;
        EXPECT_GT(gpu_bytes, 0.0) << "step " << i;
        EXPECT_GT(gpu_launches, 0.0) << "step " << i;
    }
}

TEST(ObsEngine, JsonlFileReplaysToSameAggregate) {
    const std::string path = ::testing::TempDir() + "obs_replay.jsonl";
    core::SimConfig cfg = small_cfg();
    cfg.telemetry.enabled = true;
    cfg.telemetry.jsonl_path = path;
    cfg.telemetry.pcg_residuals = true;

    block::BlockSystem sys = models::make_slope_with_blocks(30);
    core::DdaEngine eng(sys, cfg, core::EngineMode::Serial);
    ASSERT_NE(eng.recorder(), nullptr);
    for (int s = 0; s < 5; ++s) eng.step();
    eng.recorder()->flush();
    const obs::Aggregator& live = *eng.recorder()->aggregator();

    // The file validates, and replaying it reproduces the live aggregate.
    const obs::ValidationResult res = obs::validate_file(path);
    ASSERT_TRUE(res) << "line " << res.bad_line << ": " << res.error;
    EXPECT_EQ(res.records, 5);

    std::ifstream in(path);
    std::string err;
    const auto replayed = obs::Aggregator::replay(in, &err);
    ASSERT_TRUE(replayed.has_value()) << err;
    EXPECT_EQ(replayed->steps(), live.steps());
    EXPECT_EQ(replayed->pcg_iterations(), live.pcg_iterations());
    EXPECT_EQ(replayed->pcg_solves(), live.pcg_solves());
    EXPECT_EQ(replayed->open_close_iters(), live.open_close_iters());
    EXPECT_EQ(replayed->mode(), "serial");
    for (int m = 0; m < obs::kModuleCount; ++m)
        EXPECT_EQ(replayed->module_seconds(m), live.module_seconds(m)) << m;
    EXPECT_NEAR(live.total_seconds(), eng.timers().total(), 1e-9);

    // pcg_residuals=true put per-iteration curves in the stream.
    std::ifstream in2(path);
    std::string first_line;
    ASSERT_TRUE(std::getline(in2, first_line));
    EXPECT_NE(first_line.find("\"residuals\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(ObsEngine, GpuAggregateMatchesModuleLedgers) {
    block::BlockSystem sys = models::make_slope_with_blocks(30);
    core::DdaEngine eng(sys, small_cfg(), core::EngineMode::Gpu);
    auto rec = std::make_shared<obs::Recorder>();
    rec->ensure_aggregator();
    eng.attach_recorder(rec);
    for (int s = 0; s < 4; ++s) eng.step();

    const obs::Aggregator& agg = *rec->aggregator();
    for (int m = 0; m < core::kModuleCount; ++m) {
        const simt::KernelCost from_obs = agg.module_cost(m);
        const simt::KernelCost from_engine =
            eng.ledgers().ledger(static_cast<core::Module>(m)).total();
        EXPECT_NEAR(from_obs.flops, from_engine.flops, 1e-6) << m;
        EXPECT_NEAR(from_obs.bytes_coalesced, from_engine.bytes_coalesced, 1e-6) << m;
        EXPECT_NEAR(from_obs.bytes_random, from_engine.bytes_random, 1e-6) << m;
        EXPECT_EQ(from_obs.launches, from_engine.launches) << m;
        EXPECT_NEAR(agg.modeled_ms(m, simt::tesla_k40()),
                    eng.ledgers().modeled_ms(static_cast<core::Module>(m), simt::tesla_k40()),
                    1e-9)
            << m;
    }
}

// ------------------------------------------------------- replay edge cases

TEST(ObsReplay, TruncatedFinalLineErrorsCleanly) {
    const std::string good = obs::to_json(sample_record()).dump();
    std::stringstream ss;
    // A crash mid-write leaves the last record cut off; replay must refuse
    // with a line-numbered error rather than total a partial file silently.
    ss << good << "\n" << good.substr(0, good.size() / 2);
    std::string err;
    const auto agg = obs::Aggregator::replay(ss, &err);
    EXPECT_FALSE(agg.has_value());
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(ObsReplay, BlankAndWhitespaceLinesAreSkipped) {
    const std::string good = obs::to_json(sample_record()).dump();
    std::stringstream ss;
    ss << "\n" << good << "\n\n   \t \n" << good << "\n \r\n";
    std::string err;
    const auto agg = obs::Aggregator::replay(ss, &err);
    ASSERT_TRUE(agg.has_value()) << err;
    EXPECT_EQ(agg->steps(), 2);
    EXPECT_EQ(agg->replay_skipped(), 0);
}

TEST(ObsReplay, NewerSchemaVersionSkippedWithCount) {
    const std::string good = obs::to_json(sample_record()).dump();
    obs::JsonValue future = obs::to_json(sample_record());
    future.set("version", obs::JsonValue::integer(obs::kSchemaVersion + 1));
    std::stringstream ss;
    ss << good << "\n" << future.dump() << "\n" << good << "\n";
    std::string err;
    const auto agg = obs::Aggregator::replay(ss, &err);
    ASSERT_TRUE(agg.has_value()) << err;
    EXPECT_EQ(agg->steps(), 2) << "future-version record must not be totaled";
    EXPECT_EQ(agg->replay_skipped(), 1);
}

TEST(ObsReplay, UnknownSchemaNameErrors) {
    obs::JsonValue alien = obs::to_json(sample_record());
    alien.set("schema", obs::JsonValue::string("some.other.stream"));
    std::stringstream ss;
    ss << alien.dump() << "\n";
    std::string err;
    const auto agg = obs::Aggregator::replay(ss, &err);
    EXPECT_FALSE(agg.has_value());
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
}

TEST(ObsReplay, AccumulatesFailedSolveCount) {
    const std::string good = obs::to_json(sample_record()).dump(); // 1 failed
    std::stringstream ss;
    ss << good << "\n" << good << "\n" << good << "\n";
    std::string err;
    const auto agg = obs::Aggregator::replay(ss, &err);
    ASSERT_TRUE(agg.has_value()) << err;
    EXPECT_EQ(agg->pcg_failed_solves(), 3);
}
