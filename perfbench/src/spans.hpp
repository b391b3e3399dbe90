#pragma once
// In-memory span log of a traced benchmark run. Holds the benchmark's own
// spans (around its calls into models, the engine constructor, step(),
// Session::submit / SessionHandle::result and the verification pass) and the
// engine's Step/Pass/OpenClose/Module/Solve spans imported from
// trace::Tracer snapshots, all under one id space. Spans of one step or job
// share an operation id. Written out as JSON lines when the run ends.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "trace/tracer.hpp"

namespace perfbench {

struct SpanRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t op = 0;     ///< step or job this span belongs to
    std::string name;
    std::string layer;        ///< layer the span's self time is charged to
    double t0_us = 0.0;
    double t1_us = 0.0;
};

class SpanLog {
public:
    /// Record a finished benchmark span (thread-safe); returns its id.
    std::uint64_t add(std::string name, std::string layer, std::uint64_t op, double t0_us,
                      double t1_us, std::uint64_t parent = 0);

    /// Import the wall-clock spans of one tracer snapshot (kernel and warp
    /// events carry modeled durations and are skipped). Tracer ids are
    /// remapped into this log's id space.
    void import(const std::vector<gdda::trace::Event>& events, std::uint64_t op);

    /// Self time per layer (ms): each span's duration minus the part of it
    /// its children cover.
    [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

    /// One JSON object per span. Returns false if the file cannot be written.
    bool write_jsonl(const std::string& path) const;

    [[nodiscard]] std::size_t size() const;

private:
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
    std::uint64_t next_id_ = 1;
};

/// Layer a traced engine span belongs to (module rows map to their layer,
/// loop spans to the engine core).
std::string layer_of(const gdda::trace::Event& e);

} // namespace perfbench
