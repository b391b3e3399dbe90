#include "obs/recorder.hpp"

namespace gdda::obs {

std::shared_ptr<Recorder> Recorder::from_config(const TelemetryConfig& cfg) {
    if (!cfg.enabled) return nullptr;
    auto rec = std::make_shared<Recorder>();
    rec->record_pcg_residuals = cfg.pcg_residuals;
    if (!cfg.jsonl_path.empty()) rec->add_sink(std::make_unique<JsonlSink>(cfg.jsonl_path));
    if (!cfg.csv_path.empty()) rec->add_sink(std::make_unique<CsvSink>(cfg.csv_path));
    rec->ensure_aggregator();
    return rec;
}

void Recorder::add_sink(std::unique_ptr<Sink> sink) {
    sinks_.push_back(std::move(sink));
}

Aggregator& Recorder::ensure_aggregator() {
    if (!aggregator_) {
        auto agg = std::make_unique<Aggregator>();
        aggregator_ = agg.get();
        sinks_.push_back(std::move(agg));
    }
    return *aggregator_;
}

void Recorder::on_step(const StepRecord& rec) {
    ++steps_;
    for (auto& s : sinks_) s->on_step(rec);
}

void Recorder::flush() {
    for (auto& s : sinks_) s->flush();
}

} // namespace gdda::obs
