// Whole-step thread-count invariance: the PR-10 contract that EVERY stage
// of the pre-solve pipeline — spatial-hash build, candidate generation,
// narrow phase, pair-cache revalidation, contact transfer, and both
// assembly refill paths — produces bitwise-identical results for ANY step
// team size (1, 2, 4, 8), in both engine modes, warm or cold cache paths.
// Also pins the candidate-sequence order-identity contract of the parallel
// hash build and the step_threads / solver_threads alias rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "assembly/assembler.hpp"
#include "assembly/gpu_assembler.hpp"
#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "contact/open_close.hpp"
#include "contact/transfer.hpp"
#include "contact/spatial_hash.hpp"
#include "core/engine.hpp"
#include "models/falling_rocks.hpp"
#include "models/large_scene.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "models/tunnel.hpp"
#include "par/deterministic_reduce.hpp"
#include "par/thread_budget.hpp"

using namespace gdda;

namespace {

const int kTeams[] = {1, 2, 4, 8};

block::BlockSystem zoo_slope() { return models::make_slope_with_blocks(40); }
block::BlockSystem zoo_rocks() { return models::make_falling_rocks_with_blocks(16); }
block::BlockSystem zoo_column() { return models::make_column(6); }
block::BlockSystem zoo_tunnel() { return models::make_tunnel(); }

struct ZooEntry {
    const char* name;
    block::BlockSystem (*make)();
};
const ZooEntry kZoo[] = {
    {"slope", zoo_slope},
    {"rocks", zoo_rocks},
    {"column", zoo_column},
    {"tunnel", zoo_tunnel},
};

bool same_mat_bits(const std::vector<sparse::Mat6>& a, const std::vector<sparse::Mat6>& b) {
    return a.size() == b.size() &&
           (a.empty() || !std::memcmp(a.data(), b.data(), a.size() * sizeof(sparse::Mat6)));
}
bool same_vec_bits(const sparse::BlockVec& a, const sparse::BlockVec& b) {
    return a.size() == b.size() &&
           (a.empty() || !std::memcmp(a.data(), b.data(), a.size() * sizeof(sparse::Vec6)));
}

/// Every field of every contact as raw words (Contact has padding bytes, so
/// the vectors cannot be memcmp'd directly).
std::vector<std::uint64_t> contact_words(const std::vector<contact::Contact>& cs) {
    std::vector<std::uint64_t> w;
    w.reserve(cs.size() * 10);
    for (const contact::Contact& c : cs) {
        w.push_back(static_cast<std::uint64_t>(c.kind) | static_cast<std::uint64_t>(c.state) << 8 |
                    static_cast<std::uint64_t>(c.prev_state) << 16 |
                    static_cast<std::uint64_t>(static_cast<std::uint8_t>(c.p1)) << 24 |
                    static_cast<std::uint64_t>(static_cast<std::uint8_t>(c.p2)) << 32);
        for (std::int32_t v : {c.bi, c.vi, c.bj, c.e1, c.e2})
            w.push_back(static_cast<std::uint32_t>(v));
        for (double v : {c.shear_disp, c.slide_sign, c.last_gap, c.edge_ratio})
            w.push_back(std::bit_cast<std::uint64_t>(v));
    }
    return w;
}

} // namespace

// ---------------------------------------------------------------------------
// Parallel spatial-hash build: order identity, not just set identity

TEST(SpatialHashOrder, RawCandidateSequenceIdenticalForAnyTeam) {
    const block::BlockSystem sys = models::make_slope_with_blocks(150);
    const double rho = 0.02 * sys.characteristic_length();

    std::vector<contact::BlockPair> base_raw;
    std::vector<contact::BlockPair> base_pairs;
    {
        par::ScopedTeamSize one(1);
        base_pairs = contact::broad_phase_spatial_hash(sys, rho, 0.0, nullptr, nullptr,
                                                       &base_raw);
    }
    ASSERT_FALSE(base_raw.empty());
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        std::vector<contact::BlockPair> raw;
        const auto pairs =
            contact::broad_phase_spatial_hash(sys, rho, 0.0, nullptr, nullptr, &raw);
        // The PRE-sort emission sequence must be element-for-element the
        // serial one — the chunked emission concatenates in chunk order, so
        // the sequence is a pure function of the scene, never the team.
        EXPECT_EQ(base_raw, raw) << "raw candidate sequence changed at team " << team;
        EXPECT_EQ(base_pairs, pairs) << "final candidate set changed at team " << team;
    }
}

TEST(SpatialHashOrder, HashMatchesTriangularSet) {
    const block::BlockSystem sys = models::make_slope_with_blocks(150);
    const double rho = 0.02 * sys.characteristic_length();
    const auto tri = contact::broad_phase_triangular(sys, rho);
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        EXPECT_EQ(tri, contact::broad_phase_spatial_hash(sys, rho))
            << "hash-vs-triangular set mismatch at team " << team;
    }
}

TEST(SpatialHashOrder, StatsInvariantAcrossTeams) {
    const block::BlockSystem sys = models::make_slope_with_blocks(120);
    const double rho = 0.02 * sys.characteristic_length();
    contact::SpatialHashStats base;
    {
        par::ScopedTeamSize one(1);
        contact::broad_phase_spatial_hash(sys, rho, 0.0, &base);
    }
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        contact::SpatialHashStats s;
        contact::broad_phase_spatial_hash(sys, rho, 0.0, &s);
        EXPECT_EQ(base.cells_touched, s.cells_touched) << "team " << team;
        EXPECT_EQ(base.candidate_pairs, s.candidate_pairs) << "team " << team;
    }
}

// ---------------------------------------------------------------------------
// Assembly refill: both plans bit-identical to the serial reference at any
// team size

TEST(StepThreads, AssemblyBitwiseInvariantAcrossTeams) {
    block::BlockSystem sys = models::make_slope_with_blocks(80);
    const double rho = 0.02 * sys.characteristic_length();
    const auto pairs = contact::broad_phase_triangular(sys, rho);
    auto np = contact::narrow_phase(sys, pairs, rho);
    for (auto& c : np.contacts) c.state = contact::ContactState::Lock;
    const auto geo = contact::init_all_contacts(sys, np.contacts);
    ASSERT_FALSE(np.contacts.empty());

    assembly::StepParams sp;
    sp.dt = 1e-3;
    sp.contact.penalty = 10.0 * sys.max_young();
    sp.contact.shear_penalty = sp.contact.penalty;
    sp.fixed_penalty = sp.contact.penalty;
    const auto att = assembly::index_attachments(sys);
    const int n = static_cast<int>(sys.size());

    assembly::AssembledSystem ref;
    {
        par::ScopedTeamSize one(1);
        ref = assembly::assemble_serial(sys, att, np.contacts, geo, sp);
    }

    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        const std::string tag = "team " + std::to_string(team);

        const assembly::AssemblyPlan plan(n, np.contacts);
        const auto serial = plan.assemble(sys, att, np.contacts, geo, sp);
        EXPECT_TRUE(same_mat_bits(ref.k.diag, serial.k.diag)) << "plan diag, " << tag;
        EXPECT_TRUE(same_mat_bits(ref.k.vals, serial.k.vals)) << "plan vals, " << tag;
        EXPECT_TRUE(same_vec_bits(ref.f, serial.f)) << "plan f, " << tag;

        assembly::GpuAssemblyPlan gplan;
        gplan.build(n, np.contacts);
        assembly::AssembledSystem gpu;
        gplan.assemble_into(gpu, sys, att, np.contacts, geo, sp);
        EXPECT_TRUE(same_mat_bits(ref.k.diag, gpu.k.diag)) << "gpu diag, " << tag;
        EXPECT_TRUE(same_mat_bits(ref.k.vals, gpu.k.vals)) << "gpu vals, " << tag;
        EXPECT_TRUE(same_vec_bits(ref.f, gpu.f)) << "gpu f, " << tag;

        // Warm refill (diag cache + memo populated by the first pass) must
        // stay bit-identical too — the cached path is the common one.
        assembly::DiagPhysicsCache cache;
        assembly::AssembledSystem cold, warm;
        gplan.assemble_into(cold, sys, att, np.contacts, geo, sp, nullptr, nullptr, &cache);
        gplan.assemble_into(warm, sys, att, np.contacts, geo, sp, nullptr, nullptr, &cache,
                            /*warm=*/true);
        EXPECT_TRUE(same_mat_bits(cold.k.diag, warm.k.diag)) << "warm diag, " << tag;
        EXPECT_TRUE(same_mat_bits(ref.k.diag, warm.k.diag)) << "warm-vs-ref diag, " << tag;
        EXPECT_TRUE(same_mat_bits(ref.k.vals, warm.k.vals)) << "warm-vs-ref vals, " << tag;
        EXPECT_TRUE(same_vec_bits(ref.f, warm.f)) << "warm-vs-ref f, " << tag;
    }
}

// ---------------------------------------------------------------------------
// Whole-engine trajectories: the model zoo x both modes x the documented
// bitwise-equivalent configuration variants, at every team size

TEST(StepThreads, FingerprintInvariantAcrossTeamsModesAndConfigs) {
    constexpr int kSteps = 5;
    struct Variant {
        const char* name;
        void (*tweak)(core::SimConfig&);
    };
    const Variant variants[] = {
        {"cache_off", [](core::SimConfig& c) { c.broad_phase_cache = false; }},
        {"classify_off", [](core::SimConfig& c) { c.classify_pairs = false; }},
        {"hash", [](core::SimConfig& c) { c.broad_phase = core::BroadPhase::Hash; }},
        {"allpairs", [](core::SimConfig& c) { c.broad_phase = core::BroadPhase::AllPairs; }},
    };

    for (const ZooEntry& zoo : kZoo) {
        for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
            const std::string where = std::string(zoo.name) + "/" +
                                      (mode == core::EngineMode::Gpu ? "gpu" : "serial");
            std::uint64_t baseline = 0;
            {
                block::BlockSystem sys = zoo.make();
                core::SimConfig cfg;
                cfg.step_threads = 1;
                core::DdaEngine engine(sys, cfg, mode);
                for (int s = 0; s < kSteps; ++s) engine.step();
                baseline = block::state_fingerprint(sys);
            }
            for (int threads : kTeams) {
                block::BlockSystem sys = zoo.make();
                core::SimConfig cfg;
                cfg.step_threads = threads;
                core::DdaEngine engine(sys, cfg, mode);
                for (int s = 0; s < kSteps; ++s) engine.step();
                EXPECT_EQ(baseline, block::state_fingerprint(sys))
                    << where << " step_threads " << threads;
            }
            // Variants run with a 4-wide team: every one is documented
            // bitwise-equivalent to the default path, so the fingerprint
            // must not move.
            for (const Variant& v : variants) {
                block::BlockSystem sys = zoo.make();
                core::SimConfig cfg;
                cfg.step_threads = 4;
                v.tweak(cfg);
                core::DdaEngine engine(sys, cfg, mode);
                for (int s = 0; s < kSteps; ++s) engine.step();
                EXPECT_EQ(baseline, block::state_fingerprint(sys))
                    << where << " variant " << v.name;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Contact pipeline stages (narrow phase, transfer, open-close update, spring
// commit, data update) on more than one reduction chunk, at every team size

TEST(ContactPipelineThreads, StagesBitwiseInvariantAcrossTeams) {
    const block::BlockSystem sys = models::make_block_lattice_with_blocks(2000);
    const double rho = 0.05 * sys.characteristic_length();
    // A shuffled schedule with repeats takes the counting-sort dedupe path.
    std::vector<contact::BlockPair> pairs = contact::broad_phase_triangular(sys, 2.0 * rho);
    std::mt19937 rng(3);
    std::shuffle(pairs.begin(), pairs.end(), rng);
    pairs.insert(pairs.end(), pairs.begin(), pairs.begin() + pairs.size() / 4);

    struct Outcome {
        std::vector<std::uint64_t> detected, transferred, updated, committed;
        contact::ClassificationStats stats;
        int changes = 0;
        std::uint64_t max_penetration = 0;
    };
    auto run = [&] {
        Outcome o;
        const contact::NarrowPhaseResult np = contact::narrow_phase(sys, pairs, rho);
        o.detected = contact_words(np.contacts);
        o.stats = np.stats;
        // A previous step in which every other contact was closed.
        std::vector<contact::Contact> previous = np.contacts;
        for (std::size_t i = 0; i < previous.size(); i += 2) {
            previous[i].state = contact::ContactState::Lock;
            previous[i].shear_disp = 1e-7 * static_cast<double>(i % 11);
        }
        std::vector<contact::Contact> contacts = np.contacts;
        contact::transfer_contacts(previous, contacts);
        o.transferred = contact_words(contacts);
        const auto geo = contact::init_all_contacts(sys, contacts);
        sparse::BlockVec d(sys.size());
        for (std::size_t i = 0; i < d.size(); ++i)
            for (int k = 0; k < 6; ++k)
                d[i][k] = 1e-4 * std::sin(static_cast<double>(7 * i + k));
        contact::OpenCloseParams params;
        params.penalty = 10.0 * sys.max_young();
        params.shear_penalty = params.penalty;
        params.max_closing_depth = 0.2;
        const contact::OpenCloseResult oc =
            contact::update_contact_states(sys, geo, contacts, d, params);
        o.updated = contact_words(contacts);
        o.changes = oc.state_changes;
        o.max_penetration = std::bit_cast<std::uint64_t>(oc.max_penetration);
        contact::commit_contact_springs(geo, contacts, d);
        o.committed = contact_words(contacts);
        return o;
    };

    Outcome base;
    {
        par::ScopedTeamSize one(1);
        base = run();
    }
    ASSERT_GT(base.detected.size() / 10, 2 * par::kReduceChunk);
    ASSERT_GT(base.changes, 0);
    for (int team : kTeams) {
        par::ScopedTeamSize scope(team);
        const Outcome o = run();
        const std::string tag = "team " + std::to_string(team);
        EXPECT_EQ(base.detected, o.detected) << tag;
        EXPECT_EQ(base.stats.candidates, o.stats.candidates) << tag;
        EXPECT_EQ(base.stats.ve, o.stats.ve) << tag;
        EXPECT_EQ(base.stats.vv1, o.stats.vv1) << tag;
        EXPECT_EQ(base.stats.vv2, o.stats.vv2) << tag;
        EXPECT_EQ(base.stats.abandoned, o.stats.abandoned) << tag;
        EXPECT_EQ(base.transferred, o.transferred) << tag;
        EXPECT_EQ(base.updated, o.updated) << tag;
        EXPECT_EQ(base.changes, o.changes) << tag;
        EXPECT_EQ(base.max_penetration, o.max_penetration) << tag;
        EXPECT_EQ(base.committed, o.committed) << tag;
    }
}

TEST(ContactPipelineThreads, LatticeStepsBitwiseAcrossTeams) {
    // More blocks than one reduction chunk, so the parallel data update and
    // the displacement max run on several chunks.
    for (bool floor : {true, false}) {
        for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
            const std::string where = std::string(floor ? "floor" : "freefall") + "/" +
                                      (mode == core::EngineMode::Gpu ? "gpu" : "serial");
            std::uint64_t base_fp = 0;
            std::vector<std::uint64_t> base_contacts;
            std::vector<std::uint64_t> base_disp;
            for (int team : kTeams) {
                models::LatticeParams lp;
                lp.fixed_floor = floor;
                block::BlockSystem sys = models::make_block_lattice_with_blocks(1500, lp);
                ASSERT_GT(sys.size(), par::kReduceChunk);
                core::SimConfig cfg;
                cfg.step_threads = team;
                core::DdaEngine engine(sys, cfg, mode);
                std::vector<std::uint64_t> disp;
                for (int s = 0; s < 3; ++s)
                    disp.push_back(std::bit_cast<std::uint64_t>(engine.step().max_displacement));
                if (team == 1) {
                    base_fp = block::state_fingerprint(sys);
                    base_contacts = contact_words(engine.contacts());
                    base_disp = disp;
                    continue;
                }
                EXPECT_EQ(base_fp, block::state_fingerprint(sys)) << where << " team " << team;
                EXPECT_EQ(base_contacts, contact_words(engine.contacts()))
                    << where << " team " << team;
                EXPECT_EQ(base_disp, disp) << where << " team " << team;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Config plumbing: the step_threads knob and its deprecated alias

TEST(StepThreads, StepThreadsWinsOverDeprecatedAlias) {
    core::SimConfig cfg;
    EXPECT_EQ(cfg.effective_step_threads(), 0);
    cfg.solver_threads = 2;
    EXPECT_EQ(cfg.effective_step_threads(), 2) << "alias alone must still work";
    cfg.step_threads = 4;
    EXPECT_EQ(cfg.effective_step_threads(), 4) << "step_threads wins when both are set";
}

TEST(StepThreads, NegativeStepThreadsRejected) {
    core::SimConfig cfg;
    cfg.step_threads = -1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.step_threads = 0;
    cfg.solver_threads = -3;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(StepThreads, AliasRunsBitIdenticalToStepThreads) {
    std::uint64_t via_alias = 0, via_step = 0;
    {
        block::BlockSystem sys = zoo_column();
        core::SimConfig cfg;
        cfg.solver_threads = 4;
        core::DdaEngine engine(sys, cfg, core::EngineMode::Serial);
        for (int s = 0; s < 6; ++s) engine.step();
        via_alias = block::state_fingerprint(sys);
    }
    {
        block::BlockSystem sys = zoo_column();
        core::SimConfig cfg;
        cfg.step_threads = 4;
        core::DdaEngine engine(sys, cfg, core::EngineMode::Serial);
        for (int s = 0; s < 6; ++s) engine.step();
        via_step = block::state_fingerprint(sys);
    }
    EXPECT_EQ(via_alias, via_step);
}
