#include "obs/aggregator.hpp"

#include <cstdio>
#include <istream>

namespace gdda::obs {

void Aggregator::on_step(const StepRecord& rec) {
    ++steps_;
    pcg_iterations_ += rec.pcg_iterations;
    pcg_solves_ += rec.pcg_solves;
    pcg_failed_solves_ += rec.pcg_failed_solves;
    open_close_iters_ += rec.open_close_iters;
    retries_ += rec.retries;
    if (!rec.converged) ++unconverged_steps_;
    last_time_ = rec.time;
    mode_ = rec.mode;
    for (int m = 0; m < kModuleCount; ++m) {
        ModuleRecord& a = modules_[m];
        const ModuleRecord& s = rec.modules[m];
        a.seconds += s.seconds;
        a.flops += s.flops;
        a.bytes_coalesced += s.bytes_coalesced;
        a.bytes_texture += s.bytes_texture;
        a.bytes_random += s.bytes_random;
        a.depth += s.depth;
        a.branch_slots += s.branch_slots;
        a.divergent_slots += s.divergent_slots;
        a.launches += s.launches;
    }
}

double Aggregator::total_seconds() const {
    double t = 0.0;
    for (const ModuleRecord& m : modules_) t += m.seconds;
    return t;
}

simt::KernelCost Aggregator::module_cost(int m) const {
    const ModuleRecord& a = modules_[m];
    simt::KernelCost c;
    c.name = std::string(kModuleKeys[m]);
    c.flops = a.flops;
    c.bytes_coalesced = a.bytes_coalesced;
    c.bytes_texture = a.bytes_texture;
    c.bytes_random = a.bytes_random;
    c.depth = a.depth;
    c.branch_slots = a.branch_slots;
    c.divergent_slots = a.divergent_slots;
    c.launches = static_cast<int>(a.launches);
    return c;
}

double Aggregator::total_modeled_ms(const simt::DeviceProfile& dev) const {
    double t = 0.0;
    for (int m = 0; m < kModuleCount; ++m) t += modeled_ms(m, dev);
    return t;
}

std::string Aggregator::render_measured_table(std::string_view title) const {
    const double total = total_seconds();
    char line[160];
    std::string out;
    out += std::string(title) + "\n";
    std::snprintf(line, sizeof line, "%-30s %10s %8s\n", "Module", "time (s)", "share");
    out += line;
    for (int m = 0; m < kModuleCount; ++m) {
        std::snprintf(line, sizeof line, "%-30s %10.3f %7.1f%%\n",
                      std::string(kModuleTitles[m]).c_str(), modules_[m].seconds,
                      total > 0.0 ? 100.0 * modules_[m].seconds / total : 0.0);
        out += line;
    }
    std::snprintf(line, sizeof line, "%-30s %10.3f %7.1f%%  (%d steps)\n", "Total", total,
                  100.0, steps_);
    out += line;
    return out;
}

std::optional<Aggregator> Aggregator::replay(std::istream& in, std::string* err) {
    Aggregator agg;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        JsonValue doc;
        std::string perr;
        if (!JsonValue::parse(line, doc, &perr)) {
            if (err) *err = "line " + std::to_string(lineno) + ": " + perr;
            return std::nullopt;
        }
        // A record of this schema written by a *newer* build is skipped with
        // a count (forward compatibility); anything else malformed aborts.
        const JsonValue* schema = doc.find("schema");
        const JsonValue* version = doc.find("version");
        if (schema && schema->is_string() && schema->as_string() == kStepSchemaName &&
            version && version->is_count() && version->as_number() > kSchemaVersion) {
            ++agg.replay_skipped_;
            continue;
        }
        StepRecord rec;
        if (!from_json(doc, rec, &perr)) {
            if (err) *err = "line " + std::to_string(lineno) + ": " + perr;
            return std::nullopt;
        }
        agg.on_step(rec);
    }
    return agg;
}

std::string render_case_table(std::string_view title, const Aggregator& serial,
                              const Aggregator& gpu,
                              std::span<const simt::DeviceProfile* const> devices) {
    std::string out;
    char line[256];
    out += std::string(title) + "\n";

    std::snprintf(line, sizeof line, "%-30s %12s", "Module", "serial (s)");
    out += line;
    for (const simt::DeviceProfile* dev : devices) {
        std::snprintf(line, sizeof line, " %13s %8s", (dev->name + " (s)").c_str(), "SU");
        out += line;
    }
    out += '\n';

    std::vector<double> dev_totals(devices.size(), 0.0);
    double serial_total = 0.0;
    for (int m = 0; m < kModuleCount; ++m) {
        const double s = serial.module_seconds(m);
        serial_total += s;
        std::snprintf(line, sizeof line, "%-30s %12.3f",
                      std::string(kModuleTitles[m]).c_str(), s);
        out += line;
        for (std::size_t d = 0; d < devices.size(); ++d) {
            const double g = gpu.modeled_ms(m, *devices[d]) / 1e3;
            dev_totals[d] += g;
            std::snprintf(line, sizeof line, " %13.4f %8.2f", g, g > 0.0 ? s / g : 0.0);
            out += line;
        }
        out += '\n';
    }
    std::snprintf(line, sizeof line, "%-30s %12.3f", "Total", serial_total);
    out += line;
    for (std::size_t d = 0; d < devices.size(); ++d) {
        std::snprintf(line, sizeof line, " %13.4f %8.2f", dev_totals[d],
                      dev_totals[d] > 0.0 ? serial_total / dev_totals[d] : 0.0);
        out += line;
    }
    out += '\n';
    return out;
}

} // namespace gdda::obs
