#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "core/timing.hpp"

namespace perfbench {

using gdda::trace::Category;
using gdda::trace::Event;
using gdda::trace::Phase;

std::string layer_of(const Event& e) {
    if (e.cat == Category::Other) return "bench";
    if (e.cat == Category::Solve || e.cat == Category::PcgIteration) return "solver";
    if (e.cat != Category::Module) return "core";
    switch (static_cast<gdda::core::Module>(e.module)) {
        case gdda::core::Module::ContactDetection: return "contact";
        case gdda::core::Module::DiagBuild:
        case gdda::core::Module::NondiagBuild: return "assembly";
        case gdda::core::Module::EquationSolving: return "solver";
        case gdda::core::Module::InterpenetrationCheck:
        case gdda::core::Module::DataUpdate: return "core";
    }
    return "core";
}

std::uint64_t SpanLog::add(std::string name, std::string layer, std::uint64_t op,
                           double t0_us, double t1_us, std::uint64_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t id = next_id_++;
    spans_.push_back({id, parent, op, std::move(name), std::move(layer), t0_us, t1_us});
    return id;
}

void SpanLog::import(const std::vector<Event>& events, std::uint64_t op) {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<std::uint32_t, std::size_t> open; // tracer id -> index
    std::unordered_map<std::uint32_t, std::uint64_t> ids;
    const auto remap = [&](std::uint32_t tracer_id) -> std::uint64_t {
        auto it = ids.find(tracer_id);
        return it == ids.end() ? 0 : it->second;
    };
    for (const Event& e : events) {
        if (e.cat == Category::Kernel || e.cat == Category::Warp) continue;
        if (e.phase == Phase::Begin || e.phase == Phase::Complete) {
            const std::uint64_t id = next_id_++;
            ids[e.id] = id;
            const double t1 = e.phase == Phase::Complete ? e.t_us + e.dur_us : e.t_us;
            spans_.push_back({id, remap(e.parent), op, e.name, layer_of(e), e.t_us, t1});
            if (e.phase == Phase::Begin) open[e.id] = spans_.size() - 1;
        } else if (e.phase == Phase::End) {
            auto it = open.find(e.id);
            if (it == open.end()) continue;
            spans_[it->second].t1_us = e.t_us;
            open.erase(it);
        }
    }
    // A span whose end fell out of a wrapped ring counts with zero duration.
    for (const auto& [tid, idx] : open) spans_[idx].t1_us = spans_[idx].t0_us;
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<std::uint64_t, double> child_us;
    std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
    for (const SpanRecord& s : spans_) by_id[s.id] = &s;
    for (const SpanRecord& s : spans_) {
        if (s.parent == 0) continue;
        auto it = by_id.find(s.parent);
        if (it == by_id.end()) continue;
        const SpanRecord& p = *it->second;
        const double lo = std::max(s.t0_us, p.t0_us);
        const double hi = std::min(s.t1_us, p.t1_us);
        if (hi > lo) child_us[p.id] += hi - lo;
    }
    std::map<std::string, double> out;
    for (const SpanRecord& s : spans_) {
        const double self = std::max(0.0, (s.t1_us - s.t0_us) - child_us[s.id]);
        out[s.layer] += self * 1e-3;
    }
    return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (const SpanRecord& s : spans_) {
        std::fprintf(f,
                     "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\",\"layer\":\"%s\","
                     "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.op), s.name.c_str(), s.layer.c_str(),
                     s.t0_us, s.t1_us);
    }
    return std::fclose(f) == 0;
}

std::size_t SpanLog::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

} // namespace perfbench
