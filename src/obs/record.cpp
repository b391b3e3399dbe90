#include "obs/record.hpp"

#include <cmath>

namespace gdda::obs {

namespace {

JsonValue module_to_json(const ModuleRecord& m) {
    JsonValue j = JsonValue::object();
    j.set("seconds", JsonValue::number(m.seconds));
    j.set("flops", JsonValue::number(m.flops));
    j.set("bytes_coalesced", JsonValue::number(m.bytes_coalesced));
    j.set("bytes_texture", JsonValue::number(m.bytes_texture));
    j.set("bytes_random", JsonValue::number(m.bytes_random));
    j.set("depth", JsonValue::number(m.depth));
    j.set("branch_slots", JsonValue::number(m.branch_slots));
    j.set("divergent_slots", JsonValue::number(m.divergent_slots));
    j.set("launches", JsonValue::integer(m.launches));
    return j;
}

/// Field-extraction helpers shared by from_json(); each fails with a path'd
/// message so validate() errors point at the offending field.
struct Reader {
    std::string* err;

    bool fail(const std::string& msg) {
        if (err) *err = msg;
        return false;
    }

    bool number(const JsonValue& obj, std::string_view key, double& out,
                bool require_nonneg = true) {
        const JsonValue* v = obj.find(key);
        if (!v || !v->is_number())
            return fail("missing or non-numeric field '" + std::string(key) + "'");
        if (!std::isfinite(v->as_number()))
            return fail("non-finite field '" + std::string(key) + "'");
        if (require_nonneg && v->as_number() < 0.0)
            return fail("negative field '" + std::string(key) + "'");
        out = v->as_number();
        return true;
    }

    template <typename Int>
    bool count(const JsonValue& obj, std::string_view key, Int& out) {
        const JsonValue* v = obj.find(key);
        if (!v || !v->is_count())
            return fail("missing or non-count field '" + std::string(key) + "'");
        out = static_cast<Int>(v->as_number());
        return true;
    }

    bool boolean(const JsonValue& obj, std::string_view key, bool& out) {
        const JsonValue* v = obj.find(key);
        if (!v || !v->is_bool())
            return fail("missing or non-boolean field '" + std::string(key) + "'");
        out = v->as_bool();
        return true;
    }
};

bool module_from_json(const JsonValue& j, std::string_view key, ModuleRecord& m,
                      std::string* err) {
    if (!j.is_object()) {
        if (err) *err = "module '" + std::string(key) + "' is not an object";
        return false;
    }
    Reader r{err};
    return r.number(j, "seconds", m.seconds) && r.number(j, "flops", m.flops) &&
           r.number(j, "bytes_coalesced", m.bytes_coalesced) &&
           r.number(j, "bytes_texture", m.bytes_texture) &&
           r.number(j, "bytes_random", m.bytes_random) && r.number(j, "depth", m.depth) &&
           r.number(j, "branch_slots", m.branch_slots) &&
           r.number(j, "divergent_slots", m.divergent_slots) &&
           r.count(j, "launches", m.launches);
}

} // namespace

JsonValue to_json(const StepRecord& rec) {
    JsonValue j = JsonValue::object();
    j.set("schema", JsonValue::string(std::string(kStepSchemaName)));
    j.set("version", JsonValue::integer(kSchemaVersion));
    j.set("mode", JsonValue::string(rec.mode));
    j.set("step", JsonValue::integer(rec.step));
    j.set("time", JsonValue::number(rec.time));
    j.set("dt", JsonValue::number(rec.dt));
    j.set("retries", JsonValue::integer(rec.retries));
    j.set("open_close_iters", JsonValue::integer(rec.open_close_iters));
    j.set("pcg_solves", JsonValue::integer(rec.pcg_solves));
    j.set("pcg_iterations", JsonValue::integer(rec.pcg_iterations));
    j.set("pcg_failed_solves", JsonValue::integer(rec.pcg_failed_solves));
    j.set("rejected_pcg_solves", JsonValue::integer(rec.rejected_pcg_solves));
    j.set("rejected_pcg_iterations", JsonValue::integer(rec.rejected_pcg_iterations));
    j.set("rejected_open_close_iters", JsonValue::integer(rec.rejected_open_close_iters));
    j.set("hit_dt_min", JsonValue::boolean(rec.hit_dt_min));
    j.set("contacts", JsonValue::integer(static_cast<long long>(rec.contacts)));
    j.set("active_contacts", JsonValue::integer(static_cast<long long>(rec.active_contacts)));
    j.set("max_displacement", JsonValue::number(rec.max_displacement));
    j.set("max_penetration", JsonValue::number(rec.max_penetration));
    j.set("converged", JsonValue::boolean(rec.converged));
    j.set("trace_span", JsonValue::integer(static_cast<long long>(rec.trace_span)));

    JsonValue cls = JsonValue::object();
    cls.set("candidates", JsonValue::integer(static_cast<long long>(rec.cls_candidates)));
    cls.set("ve", JsonValue::integer(static_cast<long long>(rec.cls_ve)));
    cls.set("vv1", JsonValue::integer(static_cast<long long>(rec.cls_vv1)));
    cls.set("vv2", JsonValue::integer(static_cast<long long>(rec.cls_vv2)));
    cls.set("abandoned", JsonValue::integer(static_cast<long long>(rec.cls_abandoned)));
    j.set("classification", std::move(cls));

    JsonValue modules = JsonValue::object();
    for (int m = 0; m < kModuleCount; ++m)
        modules.set(std::string(kModuleKeys[m]), module_to_json(rec.modules[m]));
    j.set("modules", std::move(modules));

    JsonValue solves = JsonValue::array();
    for (const PcgSolveRecord& s : rec.solves) {
        JsonValue sj = JsonValue::object();
        sj.set("iterations", JsonValue::integer(s.iterations));
        sj.set("final_residual", JsonValue::number(s.final_residual));
        sj.set("converged", JsonValue::boolean(s.converged));
        if (!s.residuals.empty()) {
            JsonValue res = JsonValue::array();
            for (double r : s.residuals) res.push(JsonValue::number(r));
            sj.set("residuals", std::move(res));
        }
        sj.set("state_changes", JsonValue::integer(s.state_changes));
        JsonValue tr = JsonValue::object();
        for (int t = 0; t < kTransitionCount; ++t)
            tr.set(std::string(kTransitionKeys[t]), JsonValue::integer(s.transitions[t]));
        sj.set("transitions", std::move(tr));
        sj.set("max_penetration", JsonValue::number(s.max_penetration));
        solves.push(std::move(sj));
    }
    j.set("solves", std::move(solves));

    JsonValue attempts = JsonValue::array();
    for (const AttemptRecord& a : rec.attempts) {
        JsonValue aj = JsonValue::object();
        aj.set("dt", JsonValue::number(a.dt));
        aj.set("open_close_ok", JsonValue::boolean(a.open_close_ok));
        aj.set("pcg_ok", JsonValue::boolean(a.pcg_ok));
        aj.set("displacement_ok", JsonValue::boolean(a.displacement_ok));
        aj.set("penetration_ok", JsonValue::boolean(a.penetration_ok));
        aj.set("max_displacement", JsonValue::number(a.max_displacement));
        aj.set("max_penetration", JsonValue::number(a.max_penetration));
        attempts.push(std::move(aj));
    }
    j.set("attempts", std::move(attempts));
    return j;
}

bool from_json(const JsonValue& doc, StepRecord& rec, std::string* err) {
    Reader r{err};
    if (!doc.is_object()) return r.fail("record is not a JSON object");

    const JsonValue* schema = doc.find("schema");
    if (!schema || !schema->is_string() || schema->as_string() != kStepSchemaName)
        return r.fail("missing or unexpected 'schema' (want '" +
                      std::string(kStepSchemaName) + "')");
    long long version = 0;
    if (!r.count(doc, "version", version)) return false;
    // v1 predates span tracing, v2 predates pcg_failed_solves, v5 the
    // rejected-attempt counts, v6 the per-pass open-close outcome and the
    // attempt entries; each decodes with the missing fields defaulted to 0
    // (false, empty). v4's mixed-precision counters are not read.
    if (version < 1 || version > kSchemaVersion)
        return r.fail("unsupported schema version " + std::to_string(version) +
                      " (this build reads v1-v" + std::to_string(kSchemaVersion) + ")");

    const JsonValue* mode = doc.find("mode");
    if (!mode || !mode->is_string() ||
        (mode->as_string() != "serial" && mode->as_string() != "gpu"))
        return r.fail("field 'mode' must be \"serial\" or \"gpu\"");
    rec.mode = mode->as_string();

    if (!r.count(doc, "step", rec.step)) return false;
    if (!r.number(doc, "time", rec.time, /*require_nonneg=*/false)) return false;
    if (!r.number(doc, "dt", rec.dt)) return false;
    if (rec.dt <= 0.0) return r.fail("field 'dt' must be positive");
    if (!r.count(doc, "retries", rec.retries)) return false;
    if (!r.count(doc, "open_close_iters", rec.open_close_iters)) return false;
    if (!r.count(doc, "pcg_solves", rec.pcg_solves)) return false;
    if (!r.count(doc, "pcg_iterations", rec.pcg_iterations)) return false;
    rec.pcg_failed_solves = 0;
    if (version >= 3) {
        if (!r.count(doc, "pcg_failed_solves", rec.pcg_failed_solves)) return false;
        if (rec.pcg_failed_solves > rec.pcg_solves)
            return r.fail("'pcg_failed_solves' exceeds 'pcg_solves'");
    }
    rec.rejected_pcg_solves = 0;
    rec.rejected_pcg_iterations = 0;
    rec.rejected_open_close_iters = 0;
    rec.hit_dt_min = false;
    if (version >= 6) {
        if (!r.count(doc, "rejected_pcg_solves", rec.rejected_pcg_solves)) return false;
        if (rec.rejected_pcg_solves > rec.pcg_solves)
            return r.fail("'rejected_pcg_solves' exceeds 'pcg_solves'");
        if (!r.count(doc, "rejected_pcg_iterations", rec.rejected_pcg_iterations)) return false;
        if (rec.rejected_pcg_iterations > rec.pcg_iterations)
            return r.fail("'rejected_pcg_iterations' exceeds 'pcg_iterations'");
        if (!r.count(doc, "rejected_open_close_iters", rec.rejected_open_close_iters))
            return false;
        if (!r.boolean(doc, "hit_dt_min", rec.hit_dt_min)) return false;
    }
    if (!r.count(doc, "contacts", rec.contacts)) return false;
    if (!r.count(doc, "active_contacts", rec.active_contacts)) return false;
    if (!r.number(doc, "max_displacement", rec.max_displacement)) return false;
    if (!r.number(doc, "max_penetration", rec.max_penetration)) return false;
    if (!r.boolean(doc, "converged", rec.converged)) return false;
    rec.trace_span = 0;
    if (version >= 2) {
        if (!r.count(doc, "trace_span", rec.trace_span)) return false;
    }

    const JsonValue* cls = doc.find("classification");
    if (!cls || !cls->is_object()) return r.fail("missing 'classification' object");
    if (!r.count(*cls, "candidates", rec.cls_candidates)) return false;
    if (!r.count(*cls, "ve", rec.cls_ve)) return false;
    if (!r.count(*cls, "vv1", rec.cls_vv1)) return false;
    if (!r.count(*cls, "vv2", rec.cls_vv2)) return false;
    if (!r.count(*cls, "abandoned", rec.cls_abandoned)) return false;

    const JsonValue* modules = doc.find("modules");
    if (!modules || !modules->is_object()) return r.fail("missing 'modules' object");
    if (modules->members().size() != kModuleCount)
        return r.fail("'modules' must hold exactly " + std::to_string(kModuleCount) +
                      " entries");
    for (int m = 0; m < kModuleCount; ++m) {
        const JsonValue* mj = modules->find(kModuleKeys[m]);
        if (!mj) return r.fail("missing module '" + std::string(kModuleKeys[m]) + "'");
        if (!module_from_json(*mj, kModuleKeys[m], rec.modules[m], err)) return false;
    }

    const JsonValue* solves = doc.find("solves");
    if (!solves || !solves->is_array()) return r.fail("missing 'solves' array");
    rec.solves.clear();
    for (const JsonValue& sj : solves->items()) {
        if (!sj.is_object()) return r.fail("'solves' entry is not an object");
        PcgSolveRecord s;
        if (!r.count(sj, "iterations", s.iterations)) return false;
        if (!r.number(sj, "final_residual", s.final_residual)) return false;
        if (!r.boolean(sj, "converged", s.converged)) return false;
        if (const JsonValue* res = sj.find("residuals")) {
            if (!res->is_array()) return r.fail("'residuals' is not an array");
            for (const JsonValue& rv : res->items()) {
                if (!rv.is_number()) return r.fail("'residuals' entry is not a number");
                s.residuals.push_back(rv.as_number());
            }
        }
        if (version >= 7) {
            if (!r.count(sj, "state_changes", s.state_changes)) return false;
            const JsonValue* tr = sj.find("transitions");
            if (!tr || !tr->is_object()) return r.fail("missing 'transitions' object");
            long long sum = 0;
            for (int t = 0; t < kTransitionCount; ++t) {
                if (!r.count(*tr, kTransitionKeys[t], s.transitions[t])) return false;
                sum += s.transitions[t];
            }
            if (sum != s.state_changes)
                return r.fail("'transitions' do not sum to 'state_changes'");
            if (!r.number(sj, "max_penetration", s.max_penetration)) return false;
        }
        rec.solves.push_back(std::move(s));
    }

    rec.attempts.clear();
    if (version >= 7) {
        const JsonValue* attempts = doc.find("attempts");
        if (!attempts || !attempts->is_array()) return r.fail("missing 'attempts' array");
        for (const JsonValue& aj : attempts->items()) {
            if (!aj.is_object()) return r.fail("'attempts' entry is not an object");
            AttemptRecord a;
            if (!r.number(aj, "dt", a.dt) || !r.boolean(aj, "open_close_ok", a.open_close_ok) ||
                !r.boolean(aj, "pcg_ok", a.pcg_ok) ||
                !r.boolean(aj, "displacement_ok", a.displacement_ok) ||
                !r.boolean(aj, "penetration_ok", a.penetration_ok) ||
                !r.number(aj, "max_displacement", a.max_displacement) ||
                !r.number(aj, "max_penetration", a.max_penetration))
                return false;
            if (a.open_close_ok && a.pcg_ok && a.displacement_ok && a.penetration_ok)
                return r.fail("'attempts' entry passes all four acceptance tests");
            rec.attempts.push_back(a);
        }
    }
    return true;
}

} // namespace gdda::obs
