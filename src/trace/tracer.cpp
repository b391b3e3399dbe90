#include "trace/tracer.hpp"

#include <algorithm>

namespace gdda::trace {

std::string_view category_name(Category c) {
    switch (c) {
        case Category::Step: return "step";
        case Category::Pass: return "pass";
        case Category::OpenClose: return "open_close";
        case Category::Module: return "module";
        case Category::Solve: return "solve";
        case Category::PcgIteration: return "pcg_iteration";
        case Category::Kernel: return "kernel";
        case Category::Warp: return "warp";
        case Category::Other: return "other";
    }
    return "other";
}

const simt::DeviceProfile& device_profile_by_name(std::string_view name) {
    if (name == "k20" || name == "K20" || name == simt::tesla_k20().name)
        return simt::tesla_k20();
    return simt::tesla_k40();
}

Tracer::Tracer(TraceConfig cfg)
    : cfg_(std::move(cfg)), dev_(&device_profile_by_name(cfg_.device)) {
    if (cfg_.ring_capacity < 4) cfg_.ring_capacity = 4;
    ring_.reserve(std::min<std::size_t>(cfg_.ring_capacity, 1024));
}

Tracer::~Tracer() { uninstall_kernel_hook(); }

std::shared_ptr<Tracer> Tracer::from_config(const TraceConfig& cfg) {
    if (!cfg.enabled) return nullptr;
    return std::make_shared<Tracer>(cfg);
}

void Tracer::install_kernel_hook() { simt::set_kernel_trace_hook(this); }

void Tracer::uninstall_kernel_hook() {
    // Clear only the calling thread's slot, and only if it still points at
    // this tracer: an engine destroyed on the thread that stepped it leaves
    // other threads' hooks untouched.
    if (simt::kernel_trace_hook() == this) simt::set_kernel_trace_hook(nullptr);
}

Tracer::ThreadLane& Tracer::lane_locked() {
    ThreadLane& lane = lanes_[std::this_thread::get_id()];
    if (lane.tid == 0) lane.tid = next_tid_++;
    return lane;
}

const Tracer::ThreadLane* Tracer::lane_of_caller_locked() const {
    const auto it = lanes_.find(std::this_thread::get_id());
    return it == lanes_.end() ? nullptr : &it->second;
}

void Tracer::push_locked(Event&& e) {
    e.seq = seq_++;
    if (ring_.size() < cfg_.ring_capacity) {
        ring_.push_back(std::move(e));
    } else {
        ring_[head_] = std::move(e);
        head_ = (head_ + 1) % ring_.size();
        ++dropped_;
    }
}

std::uint32_t Tracer::begin(Category cat, std::string_view name, int module, double t_us) {
    if (t_us < 0.0) t_us = now_us();
    std::lock_guard<std::mutex> lock(mu_);
    ThreadLane& lane = lane_locked();
    Event e;
    e.phase = Phase::Begin;
    e.cat = cat;
    e.id = next_id_++;
    e.parent = lane.stack.empty() ? 0 : lane.stack.back().id;
    e.module = module;
    e.t_us = t_us;
    e.tid = lane.tid;
    e.name = std::string(name);
    lane.stack.push_back({e.id, module});
    push_locked(std::move(e));
    return lane.stack.back().id;
}

void Tracer::end(std::uint32_t id, double t_us) {
    if (t_us < 0.0) t_us = now_us();
    std::lock_guard<std::mutex> lock(mu_);
    ThreadLane& lane = lane_locked();
    // Pop through any spans abandoned without an explicit end (moved-from
    // handles); the matching id is the common case and pops exactly one.
    // Only this thread's lane is touched: another worker's open spans can
    // never be closed from here.
    while (!lane.stack.empty()) {
        const std::uint32_t top = lane.stack.back().id;
        lane.stack.pop_back();
        if (top == id) break;
    }
    Event e;
    e.phase = Phase::End;
    e.id = id;
    e.parent = lane.stack.empty() ? 0 : lane.stack.back().id;
    e.t_us = t_us;
    e.tid = lane.tid;
    push_locked(std::move(e));
}

void Tracer::instant(Category cat, std::string_view name) {
    const double t = now_us();
    std::lock_guard<std::mutex> lock(mu_);
    ThreadLane& lane = lane_locked();
    Event e;
    e.phase = Phase::Instant;
    e.cat = cat;
    e.parent = lane.stack.empty() ? 0 : lane.stack.back().id;
    e.t_us = t;
    e.tid = lane.tid;
    e.name = std::string(name);
    push_locked(std::move(e));
}

void Tracer::on_kernel(const simt::KernelCost& cost, int module) {
    const simt::ModeledTimeParts parts = simt::modeled_parts(cost, *dev_);
    const double total_ms = parts.total_ms();
    const double t = now_us();
    std::lock_guard<std::mutex> lock(mu_);
    ThreadLane& lane = lane_locked();
    Event e;
    e.phase = Phase::Complete;
    e.cat = Category::Kernel;
    e.id = next_id_++;
    e.parent = lane.stack.empty() ? 0 : lane.stack.back().id;
    e.module = module >= 0 ? module : module_of(lane.stack);
    e.tid = lane.tid;
    e.t_us = t;
    e.dur_us = total_ms * 1e3;
    e.name = cost.name.empty() ? std::string("kernel") : cost.name;
    e.kernel.modeled_us = total_ms * 1e3;
    e.kernel.flops = cost.flops;
    e.kernel.bytes_coalesced = cost.bytes_coalesced;
    e.kernel.bytes_texture = cost.bytes_texture;
    e.kernel.bytes_random = cost.bytes_random;
    e.kernel.depth = cost.depth;
    e.kernel.branch_slots = cost.branch_slots;
    e.kernel.divergent_slots = cost.divergent_slots;
    // Analytic kernels do not carry a thread count; warp-branch slots per
    // launch are the closest per-launch warp-activity proxy available.
    e.kernel.warps = cost.launches > 0 ? cost.branch_slots / cost.launches
                                       : cost.branch_slots;
    e.kernel.occupancy = total_ms > 0.0 ? parts.work_ms / total_ms : 0.0;
    e.kernel.launches = cost.launches;
    push_locked(std::move(e));
}

void Tracer::on_warp_launch(std::string_view name, std::size_t threads, int warp_size,
                            const simt::WarpStats& stats) {
    const double t = now_us();
    std::lock_guard<std::mutex> lock(mu_);
    ThreadLane& lane = lane_locked();
    Event e;
    e.phase = Phase::Complete;
    e.cat = Category::Warp;
    e.id = next_id_++;
    e.parent = lane.stack.empty() ? 0 : lane.stack.back().id;
    e.module = module_of(lane.stack);
    e.tid = lane.tid;
    e.t_us = t;
    e.dur_us = 0.0;
    e.name = std::string(name);
    const std::size_t ws = warp_size > 0 ? static_cast<std::size_t>(warp_size) : 32;
    const double warps = static_cast<double>((threads + ws - 1) / ws);
    e.kernel.warps = warps;
    // Lane occupancy of the launch: full warps over allocated warp slots.
    e.kernel.occupancy =
        warps > 0.0 ? static_cast<double>(threads) / (warps * static_cast<double>(ws)) : 0.0;
    e.kernel.branch_slots = static_cast<double>(stats.branch_slots);
    e.kernel.divergent_slots = static_cast<double>(stats.divergent_slots);
    // Measured 128B transactions stand in for the byte split: the minimum
    // possible transaction count is "coalesced", the excess is "random".
    const double requests = static_cast<double>(stats.mem_requests);
    const double transactions = static_cast<double>(stats.mem_transactions);
    e.kernel.bytes_coalesced = requests * 128.0;
    e.kernel.bytes_random = std::max(transactions - requests, 0.0) * 128.0;
    e.kernel.flops = static_cast<double>(stats.warp_op_slots);
    e.kernel.launches = 1;
    push_locked(std::move(e));
}

std::uint32_t Tracer::current_span() const {
    std::lock_guard<std::mutex> lock(mu_);
    const ThreadLane* lane = lane_of_caller_locked();
    return (lane && !lane->stack.empty()) ? lane->stack.back().id : 0;
}

int Tracer::current_module() const {
    std::lock_guard<std::mutex> lock(mu_);
    const ThreadLane* lane = lane_of_caller_locked();
    return lane ? module_of(lane->stack) : -1;
}

std::vector<Event> Tracer::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Event> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

std::uint64_t Tracer::events_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seq_;
}

std::uint64_t Tracer::events_dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

} // namespace gdda::trace
