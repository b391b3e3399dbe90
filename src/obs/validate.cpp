#include "obs/validate.hpp"

#include <fstream>
#include <istream>

#include "obs/record.hpp"

namespace gdda::obs {

ValidationResult validate_line(std::string_view json_line) {
    ValidationResult res;
    JsonValue doc;
    std::string err;
    if (!JsonValue::parse(json_line, doc, &err)) {
        res.error = "JSON parse error: " + err;
        res.bad_line = 1;
        return res;
    }
    StepRecord rec;
    if (!from_json(doc, rec, &err)) {
        res.error = "schema error: " + err;
        res.bad_line = 1;
        return res;
    }
    res.ok = true;
    res.records = 1;
    return res;
}

ValidationResult validate_stream(std::istream& in) {
    ValidationResult res;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        const ValidationResult one = validate_line(line);
        if (!one.ok) {
            res.error = one.error;
            res.bad_line = lineno;
            return res;
        }
        ++res.records;
    }
    res.ok = true;
    return res;
}

ValidationResult validate_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        ValidationResult res;
        res.error = "cannot open '" + path + "'";
        return res;
    }
    return validate_stream(in);
}

std::string schema_json() {
    JsonValue fields = JsonValue::object();
    auto field = [&](std::string_view name, std::string_view type, std::string_view unit,
                     std::string_view desc) {
        JsonValue f = JsonValue::object();
        f.set("type", JsonValue::string(std::string(type)));
        if (!unit.empty()) f.set("unit", JsonValue::string(std::string(unit)));
        f.set("description", JsonValue::string(std::string(desc)));
        fields.set(std::string(name), std::move(f));
    };
    field("schema", "string", "", "record type; always \"gdda.obs.step\"");
    field("version", "count", "", "schema layout revision; this build writes v7, reads v1-v7");
    field("mode", "string", "", "\"serial\" or \"gpu\" pipeline");
    field("step", "count", "", "0-based step index within the run");
    field("time", "number", "s", "simulated time after the step");
    field("dt", "number", "s", "physical time step used (positive)");
    field("retries", "count", "", "whole-step retries after dt shrinks");
    field("open_close_iters", "count", "", "loop-3 passes of the accepted attempt");
    field("pcg_solves", "count", "", "linear solves performed (all attempts)");
    field("pcg_iterations", "count", "", "PCG iterations summed over solves");
    field("pcg_failed_solves", "count", "",
          "of pcg_solves, how many exited without reaching tolerance (v3+; "
          "never exceeds pcg_solves)");
    field("rejected_pcg_solves", "count", "",
          "of pcg_solves, those of rejected attempts, thrown away by a retry (v6+; never "
          "exceeds pcg_solves)");
    field("rejected_pcg_iterations", "count", "",
          "of pcg_iterations, those of rejected attempts (v6+; never exceeds "
          "pcg_iterations)");
    field("rejected_open_close_iters", "count", "",
          "loop-3 passes of rejected attempts, counted as open_close_iters counts the "
          "accepted one's (v6+)");
    field("hit_dt_min", "bool", "",
          "a retry shrank dt to dt_min, so the step ended in the last-resort pass (v6+)");
    field("contacts", "count", "", "contact points carried by the step");
    field("active_contacts", "count", "", "of which non-open (spring engaged)");
    field("max_displacement", "number", "m", "max vertex displacement of the step");
    field("max_penetration", "number", "m", "max contact penetration observed");
    field("converged", "bool", "", "false when the step was forced at dt_min");
    field("trace_span", "count", "",
          "gdda::trace Step span id joining this record to the exported Chrome "
          "trace; 0 when the run is untraced (v2+)");
    field("classification", "object", "",
          "narrow-phase counts: candidates, ve, vv1, vv2, abandoned");
    field("modules", "object", "",
          "exactly six entries keyed contact_detection, diag_build, nondiag_build, "
          "equation_solving, interpenetration_check, data_update; each holds seconds (s), "
          "flops, bytes_coalesced/bytes_texture/bytes_random (bytes), depth, "
          "branch_slots, divergent_slots, launches (GPU-mode analytic costs, zero in "
          "serial mode)");
    field("solves", "array", "",
          "per linear solve: iterations, final_residual (|r|/|b|), converged, an "
          "optional residuals array (per-iteration |r|/|b|), and the open-close update "
          "after it (v7+): state_changes, transitions (open_to_slide, open_to_lock, "
          "slide_to_open, slide_to_lock, lock_to_open, lock_to_slide; they sum to "
          "state_changes) and max_penetration (m)");
    field("attempts", "array", "",
          "per rejected attempt, in order (v7+): dt (s), open_close_ok, pcg_ok, "
          "displacement_ok, penetration_ok (at least one false), max_displacement (m), "
          "max_penetration (m)");

    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue::string(std::string(kStepSchemaName)));
    doc.set("version", JsonValue::integer(kSchemaVersion));
    doc.set("fields", std::move(fields));
    return doc.dump();
}

} // namespace gdda::obs
