#pragma once
// gdda::trace — hierarchical span tracing + SIMT kernel-launch capture for
// the DDA pipeline. One span per time step (loop 1), displacement-control
// pass (loop 2), open-close iteration (loop 3), module, linear solve, and
// PCG iteration, plus one complete event per SIMT kernel launch (captured
// through the simt::KernelTraceHook that record_kernel and
// WarpExecutor::launch feed). Events land in a thread-safe ring buffer;
// exporters (chrome_export.hpp) and the profile aggregator (profile.hpp)
// consume chronological snapshots. Span nesting is tracked on a per-thread
// stack (one lane per emitting thread, stamped into Event::tid), so a tracer
// shared by several threads — or one tracer per sched worker merged later —
// yields structurally valid parent/child chains for every lane.
//
// Overhead contract: with no tracer attached, a Span construction is one
// null check; with the tracer attached but the ring disabled-sized, each
// span costs two small mutex-guarded pushes. bench_trace_overhead guards
// this.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "simt/cost_model.hpp"
#include "simt/trace_hook.hpp"
#include "simt/warp_executor.hpp"
#include "trace/clock.hpp"
#include "trace/config.hpp"

namespace gdda::trace {

/// Event taxonomy; category_name() gives the strings used in exported files
/// and validated by validate.hpp. Step/Pass/OpenClose mirror the paper's
/// three nested loops.
enum class Category : std::uint8_t {
    Step = 0,      ///< loop 1: one physical time step
    Pass,          ///< loop 2: one displacement-control attempt
    OpenClose,     ///< loop 3: one open-close iteration (assemble+solve)
    Module,        ///< one of the six Table II/III pipeline modules
    Solve,         ///< one linear solve (PCG call)
    PcgIteration,  ///< one PCG iteration
    Kernel,        ///< analytic SIMT kernel launch (modeled duration)
    Warp,          ///< lane-accurate WarpExecutor launch (measured stats)
    Other,
};
inline constexpr int kCategoryCount = 9;
[[nodiscard]] std::string_view category_name(Category c);

enum class Phase : std::uint8_t { Begin, End, Complete, Instant };

/// Per-launch payload of Kernel/Warp events.
struct KernelStats {
    double modeled_us = 0.0;       ///< SIMT-modeled device time (Kernel only)
    double flops = 0.0;
    double bytes_coalesced = 0.0;
    double bytes_texture = 0.0;
    double bytes_random = 0.0;
    double depth = 0.0;
    double branch_slots = 0.0;
    double divergent_slots = 0.0;
    double warps = 0.0;            ///< warp count (measured or est. from slots)
    /// Throughput-bound share of the modeled time: 1 means the launch is
    /// pure roofline work, 0 means pure launch overhead + latency chain.
    double occupancy = 0.0;
    long long launches = 0;

    [[nodiscard]] double divergent_fraction() const {
        return branch_slots > 0.0 ? divergent_slots / branch_slots : 0.0;
    }
    /// Coalesced share of the global-memory traffic (texture counts as
    /// coalesced: the paper routes irregular gathers through texture
    /// precisely to restore coalescing-grade bandwidth).
    [[nodiscard]] double coalesced_fraction() const {
        const double total = bytes_coalesced + bytes_texture + bytes_random;
        return total > 0.0 ? (bytes_coalesced + bytes_texture) / total : 1.0;
    }
};

struct Event {
    Phase phase = Phase::Instant;
    Category cat = Category::Other;
    std::uint32_t id = 0;      ///< span id (Begin/End/Complete); 0 otherwise
    std::uint32_t parent = 0;  ///< enclosing span id at emission (0 = root)
    int module = -1;           ///< core::Module row when known
    double t_us = 0.0;         ///< trace::now_us() timestamp (End: close time)
    double dur_us = 0.0;       ///< Complete events only
    std::uint64_t seq = 0;     ///< global emission order (survives wraparound)
    /// Emitting thread's lane within this tracer (1-based, assigned in
    /// first-emission order; 0 in hand-built events means lane 1). Span
    /// nesting is only meaningful within one tid: each thread keeps its own
    /// span stack, so spans from concurrent workers never adopt each other
    /// as parents and exported traces stay structurally valid per lane.
    std::uint32_t tid = 0;
    std::string name;
    KernelStats kernel;        ///< Kernel/Warp events only
};

class Tracer final : public simt::KernelTraceHook {
public:
    explicit Tracer(TraceConfig cfg = {});
    ~Tracer() override;

    /// Mirror of obs::Recorder::from_config: nullptr when cfg.enabled is
    /// false. Does NOT install the kernel hook — engines do that so the hook
    /// ownership follows the engine actually running.
    static std::shared_ptr<Tracer> from_config(const TraceConfig& cfg);

    // -- span API -----------------------------------------------------------
    /// Open a span; returns its id. `t_us < 0` samples the trace clock —
    /// callers that already read the clock (ScopedTimer) pass their sample so
    /// timer seconds and span durations are computed from identical reads.
    std::uint32_t begin(Category cat, std::string_view name, int module = -1,
                        double t_us = -1.0);
    void end(std::uint32_t id, double t_us = -1.0);
    void instant(Category cat, std::string_view name);

    // -- simt::KernelTraceHook ----------------------------------------------
    void on_kernel(const simt::KernelCost& cost, int module) override;
    void on_warp_launch(std::string_view name, std::size_t threads, int warp_size,
                        const simt::WarpStats& stats) override;

    /// Register as the CALLING THREAD's simt kernel hook (replacing any
    /// other); the destructor (and uninstall) clear the calling thread's
    /// slot only if it still points here. Engines re-install at the top of
    /// every step(), so the hook follows the thread actually stepping.
    void install_kernel_hook();
    void uninstall_kernel_hook();

    // -- inspection ---------------------------------------------------------
    /// Innermost open span of the CALLING thread's span stack; 0 when none.
    [[nodiscard]] std::uint32_t current_span() const;
    /// Innermost open span carrying a module row (calling thread); -1 when none.
    [[nodiscard]] int current_module() const;
    /// Chronological copy of the retained events (oldest first).
    [[nodiscard]] std::vector<Event> snapshot() const;
    [[nodiscard]] std::uint64_t events_seen() const;
    [[nodiscard]] std::uint64_t events_dropped() const;
    [[nodiscard]] const TraceConfig& config() const { return cfg_; }
    [[nodiscard]] const simt::DeviceProfile& device() const { return *dev_; }

private:
    struct OpenSpan {
        std::uint32_t id;
        int module;
    };
    /// Per-thread span lane: its 1-based tid and its own open-span stack.
    /// All access happens under mu_; the map is keyed by std::thread::id so
    /// any thread emitting through a shared tracer gets (and keeps) its lane.
    struct ThreadLane {
        std::uint32_t tid = 0;
        std::vector<OpenSpan> stack;
    };

    void push_locked(Event&& e);
    [[nodiscard]] ThreadLane& lane_locked();
    [[nodiscard]] const ThreadLane* lane_of_caller_locked() const;
    [[nodiscard]] static int module_of(const std::vector<OpenSpan>& stack) {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it)
            if (it->module >= 0) return it->module;
        return -1;
    }

    TraceConfig cfg_;
    const simt::DeviceProfile* dev_;
    mutable std::mutex mu_;
    std::vector<Event> ring_;
    std::size_t head_ = 0;  ///< oldest retained event once the ring is full
    std::uint64_t seq_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint32_t next_id_ = 1;
    std::uint32_t next_tid_ = 1;
    std::unordered_map<std::thread::id, ThreadLane> lanes_;
};

/// RAII span handle. Every operation is a single branch when `tracer` is
/// null, so untraced runs pay near-zero cost. Movable (the moved-from handle
/// becomes inert); copying is deleted because a span must close exactly once.
class Span {
public:
    Span() = default;
    Span(Tracer* tracer, Category cat, std::string_view name, int module = -1)
        : tracer_(tracer), id_(tracer ? tracer->begin(cat, name, module) : 0) {}
    Span(Span&& o) noexcept : tracer_(o.tracer_), id_(o.id_) { o.tracer_ = nullptr; }
    Span& operator=(Span&& o) noexcept {
        if (this != &o) {
            close();
            tracer_ = o.tracer_;
            id_ = o.id_;
            o.tracer_ = nullptr;
        }
        return *this;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { close(); }

    /// End the span early (idempotent). `t_us < 0` samples the trace clock.
    void close(double t_us = -1.0) {
        if (tracer_) {
            tracer_->end(id_, t_us);
            tracer_ = nullptr;
        }
    }
    [[nodiscard]] std::uint32_t id() const { return id_; }

private:
    Tracer* tracer_ = nullptr;
    std::uint32_t id_ = 0;
};

/// Resolve "k20"/"k40" (or a full profile name) to the built-in device
/// profiles; unknown names fall back to the K40.
[[nodiscard]] const simt::DeviceProfile& device_profile_by_name(std::string_view name);

} // namespace gdda::trace
