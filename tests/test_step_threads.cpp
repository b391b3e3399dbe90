// Whole-step thread-count invariance: the PR-10 contract that EVERY stage
// of the pre-solve pipeline — spatial-hash build, candidate generation,
// narrow phase, pair-cache revalidation, contact transfer, and the assembly
// refill (cold and memo-warm) — produces bitwise-identical results for ANY step
// team size (1, 2, 4, 8), in both engine modes, warm or cold cache paths.
// Also pins the candidate-sequence order-identity contract of the parallel
// hash build and the step_threads validation rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "assembly/assembler.hpp"
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
block::BlockSystem zoo_slope60() { return models::make_slope_with_blocks(60); }
block::BlockSystem zoo_rocks() { return models::make_falling_rocks_with_blocks(16); }
block::BlockSystem zoo_column() { return models::make_column(6); }
block::BlockSystem zoo_tunnel() { return models::make_tunnel(); }

struct ZooEntry {
    const char* name;
    block::BlockSystem (*make)();
};
const ZooEntry kZoo[] = {
    {"slope", zoo_slope},
    {"slope60", zoo_slope60},
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
// Assembly refill: the plan bit-identical to the serial reference at any
// team size, cold and memo-warm

TEST(StepThreads, AssemblyBitwiseInvariantAcrossTeams) {
    block::BlockSystem sys = models::make_slope_with_blocks(80);
    const double rho = 0.02 * sys.characteristic_length();
    const auto pairs = contact::broad_phase_triangular(sys, rho);
    auto np = contact::narrow_phase(sys, pairs, rho);
    for (auto& c : np.contacts) c.state = contact::ContactState::Lock;
    auto geo = contact::contact_geometry(sys, np.contacts);
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

        // Warm refill (diag cache + memo populated by the first pass) must
        // stay bit-identical too — the cached path is the common one.
        assembly::DiagPhysicsCache cache;
        assembly::AssembledSystem cold, warm;
        for (assembly::AssembledSystem* out : {&cold, &warm}) {
            assembly::assemble_diagonal(*out, sys, att, sp, &cache);
            plan.assemble_contacts(*out, sys, np.contacts, geo, sp, &cache);
        }
        EXPECT_TRUE(same_mat_bits(cold.k.diag, warm.k.diag)) << "warm diag, " << tag;
        EXPECT_TRUE(same_mat_bits(ref.k.diag, warm.k.diag)) << "warm-vs-ref diag, " << tag;
        EXPECT_TRUE(same_mat_bits(ref.k.vals, warm.k.vals)) << "warm-vs-ref vals, " << tag;
        EXPECT_TRUE(same_vec_bits(ref.f, warm.f)) << "warm-vs-ref f, " << tag;
    }
}

// ---------------------------------------------------------------------------
// Whole-engine trajectories: the model zoo x both modes x every step_threads
// team size. Engine mode only prices the run, so the two modes' baselines
// must agree as well. That the pair cache over either broad-phase backend
// serves the exact candidate set is checked at the contact layer
// (BroadPhasePipeline.PairCachesEqualTriangularEveryStep).

TEST(StepThreads, FingerprintInvariantAcrossTeamsModesAndConfigs) {
    constexpr int kSteps = 5;

    for (const ZooEntry& zoo : kZoo) {
        std::uint64_t mode_baseline[2] = {};
        core::SolveWorkspaceStats mode_stats[2];
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
                mode_baseline[static_cast<int>(mode)] = baseline;
                mode_stats[static_cast<int>(mode)] = engine.solve_workspace().stats();
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
        }
        EXPECT_EQ(mode_baseline[0], mode_baseline[1])
            << zoo.name << ": Serial and Gpu trajectories differ";
        EXPECT_TRUE(mode_stats[0] == mode_stats[1])
            << zoo.name << ": Serial and Gpu solve workspaces did different work";
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
        std::array<std::array<int, 3>, 3> transitions{};
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
        auto geo = contact::contact_geometry(sys, contacts);
        sparse::BlockVec d(sys.size());
        for (std::size_t i = 0; i < d.size(); ++i)
            for (int k = 0; k < 6; ++k)
                d[i][k] = 1e-4 * std::sin(static_cast<double>(7 * i + k));
        contact::OpenCloseParams params;
        params.penalty = 10.0 * sys.max_young();
        params.shear_penalty = params.penalty;
        params.max_closing_depth = 0.2;
        std::vector<contact::BlockMotion> motion(sys.size());
        const contact::OpenCloseResult oc =
            contact::update_contact_states(sys, geo, contacts, d, motion, params);
        o.updated = contact_words(contacts);
        o.changes = oc.state_changes;
        o.transitions = oc.transitions;
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
    int transitions = 0;
    for (int from = 0; from < 3; ++from)
        for (int to = 0; to < 3; ++to) transitions += base.transitions[from][to];
    EXPECT_EQ(transitions, base.changes);
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
        EXPECT_EQ(base.transitions, o.transitions) << tag;
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

TEST(ContactPipelineThreads, FreefallLatticeCacheStaysWarmAndBitwiseExact) {
    // A floorless lattice falls as one rigid body: the translation-aware
    // pair cache builds once and stays warm, and the run lands on the same
    // state and contact list in both modes at every team size. That the
    // warm cache serves the exact candidate set is checked at the contact
    // layer (BroadPhasePipeline.PairCachesEqualTriangularEveryStep).
    struct Outcome {
        std::uint64_t fingerprint = 0;
        std::vector<std::uint64_t> contacts;
    };
    auto run = [](core::EngineMode mode, int team) {
        models::LatticeParams lp;
        lp.fixed_floor = false;
        block::BlockSystem sys = models::make_block_lattice_with_blocks(2000, lp);
        core::SimConfig cfg;
        cfg.step_threads = team;
        core::DdaEngine engine(sys, cfg, mode);
        for (int s = 0; s < 30; ++s) engine.step();
        EXPECT_EQ(engine.pair_cache().stats().rebuilds, 1u);
        return Outcome{block::state_fingerprint(sys), contact_words(engine.contacts())};
    };
    const Outcome ref = run(core::EngineMode::Serial, 1);
    EXPECT_FALSE(ref.contacts.empty());
    for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
        for (int team : {1, 2}) {
            if (mode == core::EngineMode::Serial && team == 1) continue; // the reference
            const std::string where = std::string(mode == core::EngineMode::Gpu ? "gpu" : "serial") +
                                      " team " + std::to_string(team);
            const Outcome out = run(mode, team);
            EXPECT_EQ(out.fingerprint, ref.fingerprint) << where;
            EXPECT_EQ(out.contacts, ref.contacts) << where;
        }
    }
}

// ---------------------------------------------------------------------------
// Config plumbing: the step_threads knob

TEST(StepThreads, NegativeStepThreadsRejected) {
    core::SimConfig cfg;
    cfg.step_threads = -1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}
