#include "obs/sink.hpp"

#include <cstdio>
#include <stdexcept>

namespace gdda::obs {

namespace {

std::ofstream open_or_throw(const std::string& path) {
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out) throw std::runtime_error("obs: cannot open telemetry file '" + path + "'");
    return out;
}

void append_number(std::string& row, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    row += buf;
}

} // namespace

JsonlSink::JsonlSink(const std::string& path) : out_(open_or_throw(path)) {}

void JsonlSink::on_step(const StepRecord& rec) {
    out_ << to_json(rec).dump() << '\n';
}

CsvSink::CsvSink(const std::string& path) : out_(open_or_throw(path)) {
    out_ << header() << '\n';
}

std::string CsvSink::header() {
    std::string h =
        "step,mode,time,dt,retries,open_close_iters,pcg_solves,pcg_iterations,"
        "pcg_failed_solves,contacts,active_contacts,max_displacement,max_penetration,converged,"
        "cls_candidates,cls_ve,cls_vv1,cls_vv2,cls_abandoned";
    for (std::string_view key : kModuleKeys) {
        h += ',';
        h += key;
        h += "_seconds";
    }
    h += ",gpu_flops,gpu_bytes,gpu_launches";
    return h;
}

void CsvSink::on_step(const StepRecord& rec) {
    std::string row;
    row += std::to_string(rec.step);
    row += ',';
    row += rec.mode;
    row += ',';
    append_number(row, rec.time);
    row += ',';
    append_number(row, rec.dt);
    row += ',' + std::to_string(rec.retries);
    row += ',' + std::to_string(rec.open_close_iters);
    row += ',' + std::to_string(rec.pcg_solves);
    row += ',' + std::to_string(rec.pcg_iterations);
    row += ',' + std::to_string(rec.pcg_failed_solves);
    row += ',' + std::to_string(rec.contacts);
    row += ',' + std::to_string(rec.active_contacts);
    row += ',';
    append_number(row, rec.max_displacement);
    row += ',';
    append_number(row, rec.max_penetration);
    row += rec.converged ? ",1" : ",0";
    row += ',' + std::to_string(rec.cls_candidates);
    row += ',' + std::to_string(rec.cls_ve);
    row += ',' + std::to_string(rec.cls_vv1);
    row += ',' + std::to_string(rec.cls_vv2);
    row += ',' + std::to_string(rec.cls_abandoned);

    double flops = 0.0;
    double bytes = 0.0;
    long long launches = 0;
    for (const ModuleRecord& m : rec.modules) {
        row += ',';
        append_number(row, m.seconds);
        flops += m.flops;
        bytes += m.bytes_coalesced + m.bytes_texture + m.bytes_random;
        launches += m.launches;
    }
    row += ',';
    append_number(row, flops);
    row += ',';
    append_number(row, bytes);
    row += ',' + std::to_string(launches);
    out_ << row << '\n';
}

} // namespace gdda::obs
