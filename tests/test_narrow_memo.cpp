// The narrow-phase memo (contact/narrow_phase.hpp, docs/CONTACTS.md): a
// pair's cached result is reused only while its blocks' relative motion
// stays below the certified robustness radius of its decisions, so every
// memoised call must equal a fresh narrow_phase element by element, with
// its statistics and priced kernel. Checked on adversarial pairs that sit
// at each decision's threshold, on a seeded fuzz of small motions, and on
// whole engine runs against runs that drop the memo before every step, and
// the steady step's in-place transfer against emission plus transfer.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "contact/transfer.hpp"
#include "core/engine.hpp"
#include "models/falling_rocks.hpp"
#include "models/large_scene.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "models/tunnel.hpp"
#include "par/thread_budget.hpp"

namespace ct = gdda::contact;
namespace bl = gdda::block;
namespace core = gdda::core;
namespace models = gdda::models;
namespace simt = gdda::simt;
using gdda::geom::Vec2;

namespace {

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_contact(const ct::Contact& x, const ct::Contact& y) {
    return x.kind == y.kind && x.bi == y.bi && x.vi == y.vi && x.bj == y.bj && x.e1 == y.e1 &&
           x.e2 == y.e2 && x.state == y.state && x.prev_state == y.prev_state &&
           same_bits(x.shear_disp, y.shear_disp) && same_bits(x.slide_sign, y.slide_sign) &&
           same_bits(x.last_gap, y.last_gap) && same_bits(x.edge_ratio, y.edge_ratio) &&
           x.p1 == y.p1 && x.p2 == y.p2;
}

/// One narrow-phase answer: contacts, statistics and the priced kernel
/// (whose flops carry the distance-test and VV-candidate counts).
struct Answer {
    std::vector<ct::Contact> contacts;
    ct::ClassificationStats stats;
    simt::KernelCost cost = simt::KernelCost::accumulator();
};

::testing::AssertionResult same_answer(const Answer& a, const Answer& b) {
    if (a.contacts.size() != b.contacts.size())
        return ::testing::AssertionFailure()
               << "sizes " << a.contacts.size() << " vs " << b.contacts.size();
    for (std::size_t i = 0; i < a.contacts.size(); ++i)
        if (!same_contact(a.contacts[i], b.contacts[i]))
            return ::testing::AssertionFailure() << "contact " << i;
    const ct::ClassificationStats& s = a.stats;
    const ct::ClassificationStats& t = b.stats;
    if (s.candidates != t.candidates || s.ve != t.ve || s.vv1 != t.vv1 || s.vv2 != t.vv2 ||
        s.abandoned != t.abandoned)
        return ::testing::AssertionFailure() << "classification statistics differ";
    if (!same_bits(a.cost.flops, b.cost.flops) ||
        !same_bits(a.cost.bytes_coalesced, b.cost.bytes_coalesced) ||
        !same_bits(a.cost.bytes_texture, b.cost.bytes_texture) ||
        !same_bits(a.cost.branch_slots, b.cost.branch_slots))
        return ::testing::AssertionFailure() << "priced kernel differs";
    return ::testing::AssertionSuccess();
}

Answer fresh(const bl::BlockSystem& sys, std::span<const ct::BlockPair> pairs, double rho) {
    Answer a;
    ct::NarrowPhaseResult r = ct::narrow_phase(sys, pairs, rho, &a.cost);
    a.contacts = std::move(r.contacts);
    a.stats = r.stats;
    return a;
}

Answer memoised(ct::NarrowPhaseWorkspace& ws, const bl::BlockSystem& sys,
                std::span<const ct::BlockPair> pairs, double rho) {
    Answer a;
    ct::NarrowPhaseResult r;
    ct::narrow_phase(sys, pairs, rho, ws, r, &a.cost);
    a.contacts = std::move(r.contacts);
    a.stats = r.stats;
    return a;
}

// ---------------------------------------------------------------------------
// Adversarial pairs: block 0 is the unit square, block 1 a probe whose
// position or shape is a function of s. Each family puts one decision's
// threshold inside its interval; bisection on the fresh answer finds it.

constexpr double kRho = 0.1;

using Shape = std::vector<Vec2>;

Shape translated(Shape poly, Vec2 by) {
    for (Vec2& p : poly) p += by;
    return poly;
}

Vec2 dir(double deg) {
    const double r = deg * 3.14159265358979323846 / 180.0;
    return {std::cos(r), std::sin(r)};
}

/// Diamond whose left vertex is p.
Shape diamond_left(Vec2 p) { return {p, p + Vec2{0.3, -0.3}, p + Vec2{0.6, 0.0}, p + Vec2{0.3, 0.3}}; }

/// Thin spike whose tip q points along -axis.
Shape spike(Vec2 q, double axis_deg) {
    return {q, q + 0.5 * dir(axis_deg - 10.0), q + 0.5 * dir(axis_deg + 10.0)};
}

struct Family {
    const char* decision;
    std::function<Shape(double)> probe;
    double lo, hi;
};

std::vector<Family> families() {
    return {
        {"inflated-box test",
         [](double s) {
             const Vec2 p{1.0 + kRho + s, 1.0 + 0.5 * kRho};
             return Shape{p, p + Vec2{0.5, 0.0}, p + Vec2{0.5, 0.5}, p + Vec2{0.0, 0.5}};
         },
         -0.01, 0.01},
        {"dist < rho", [](double s) { return diamond_left({1.0 + s, 0.5}); }, 0.09, 0.11},
        {"corner band tend", [](double s) { return diamond_left({1.05, s}); }, 0.09, 0.11},
        {"penetrating side", [](double s) { return diamond_left({1.0 - s, 0.05}); }, -1e-3, 1e-3},
        {"penetrating band", [](double s) { return diamond_left({0.99, s}); }, 0.0015, 0.0025},
        {"angle test admissible",
         [](double s) {
             // Wedge with apex p and bisector b, cos(b, +x) = -0.1 + s.
             const double c = -0.1 + s;
             const Vec2 b{c, std::sqrt(1.0 - c * c)};
             const Vec2 n = b.perp();
             const Vec2 p{1.05, 0.5};
             return Shape{p, p - b * 0.3 + n * 0.03, p - b * 0.3 - n * 0.03};
         },
         -0.02, 0.02},
        {"VV1 parallel",
         [](double phi) {
             const Vec2 q{1.02, 1.02};
             const Vec2 u{std::cos(phi), std::sin(phi)};
             return Shape{q, q + u * 0.5, q + (u + u.perp()) * 0.5, q + u.perp() * 0.5};
         },
         0.04, 0.06},
        {"VV2 entrance-edge argmax", [](double s) { return spike({1.03 + s, 1.03}, 45.0); },
         -1e-3, 1e-3},
        {"containment", [](double s) { return spike({5e-4, s}, 225.0); }, -1e-4, 1e-4},
        {"containment nearest edge", [](double s) { return spike({4e-4 + s, 4e-4}, 225.0); },
         -5e-5, 5e-5},
        {"containment, slanted edge",
         [](double s) {
             // The square's corner (1, 1) sits s inside a 30-degree edge of
             // the probe, next to its end, where no box side is near.
             const Vec2 u = dir(30.0);
             const Vec2 q = Vec2{1.0, 1.0} - u * 5e-4 - u.perp() * s;
             return Shape{q, q + u * 0.5, q + (u + u.perp()) * 0.5, q + u.perp() * 0.5};
         },
         -1e-4, 1e-4},
    };
}

bl::BlockSystem pair_scene(const Shape& probe, Vec2 shift) {
    bl::BlockSystem sys;
    sys.add_block(translated({{0, 0}, {1, 0}, {1, 1}, {0, 1}}, shift));
    sys.add_block(translated(probe, shift));
    return sys;
}

} // namespace

TEST(NarrowMemo, AdversarialDecisionsMatchFresh) {
    const std::vector<ct::BlockPair> pairs = {{0, 1}};
    for (const Family& f : families()) {
        for (const Vec2 shift : {Vec2{0.0, 0.0}, Vec2{1e3, -1e3}}) {
            SCOPED_TRACE(std::string(f.decision) + (shift.x != 0.0 ? ", 1e3 m away" : ""));
            auto answer = [&](double s) { return fresh(pair_scene(f.probe(s), shift), pairs, kRho); };
            double lo = f.lo;
            double hi = f.hi;
            ASSERT_FALSE(same_answer(answer(lo), answer(hi))) << "no threshold in the interval";
            const Answer at_lo = answer(lo);
            for (int it = 0; it < 200; ++it) {
                const double mid = 0.5 * (lo + hi);
                if (mid <= lo || mid >= hi) break;
                (same_answer(answer(mid), at_lo) ? lo : hi) = mid;
            }
            for (double eps : {1e-9, 1e-11}) {
                const bl::BlockSystem below = pair_scene(f.probe(lo - eps), shift);
                const bl::BlockSystem above = pair_scene(f.probe(lo + eps), shift);
                const Answer want_below = fresh(below, pairs, kRho);
                const Answer want_above = fresh(above, pairs, kRho);
                ASSERT_FALSE(same_answer(want_below, want_above)) << "eps " << eps;

                ct::NarrowPhaseWorkspace up;
                EXPECT_TRUE(same_answer(memoised(up, below, pairs, kRho), want_below));
                EXPECT_TRUE(same_answer(memoised(up, below, pairs, kRho), want_below));
                // An unmoved pair is reused, unless its radius is within the
                // rounding slack of 1e3 m coordinates.
                if (shift.x == 0.0) {
                    EXPECT_EQ(up.memo_stats.steady_calls, 1u);
                }
                EXPECT_TRUE(same_answer(memoised(up, above, pairs, kRho), want_above));
                EXPECT_TRUE(same_answer(memoised(up, below, pairs, kRho), want_below));

                ct::NarrowPhaseWorkspace down;
                EXPECT_TRUE(same_answer(memoised(down, above, pairs, kRho), want_above));
                EXPECT_TRUE(same_answer(memoised(down, below, pairs, kRho), want_below));
                EXPECT_TRUE(same_answer(memoised(down, above, pairs, kRho), want_above));
            }
        }
    }
}

TEST(NarrowMemo, SlowDriftAcrossAThresholdIsCaught) {
    // One probe creeps toward the square in steps far below its radius and
    // crosses dist = rho; a far pair churns and re-references the memo on
    // every call. Only the offsets carried across re-references can notice
    // the accumulated drift.
    ct::NarrowPhaseWorkspace ws;
    const std::vector<ct::BlockPair> pairs = {{0, 1}, {2, 3}};
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> jiggle(-0.05, 0.05);
    std::size_t reused = 0;
    for (int k = 0; k <= 100; ++k) {
        bl::BlockSystem sys;
        sys.add_block({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
        sys.add_block(diamond_left({1.0 + 0.105 - 1e-4 * k, 0.5}));
        sys.add_block({{10, 0}, {11, 0}, {11, 1}, {10, 1}});
        sys.add_block(diamond_left({11.0 + 0.05 + jiggle(rng), 0.5 + jiggle(rng)}));
        const std::uint64_t before = ws.memo_stats.pairs_reused;
        ASSERT_TRUE(same_answer(memoised(ws, sys, pairs, kRho), fresh(sys, pairs, kRho)))
            << "step " << k;
        reused += ws.memo_stats.pairs_reused - before;
    }
    EXPECT_GT(reused, 50u) << "the creeping pair is reused between re-references";
}

TEST(NarrowMemo, SeededFuzzMatchesFresh) {
    // Jittered convex polygons a few rho apart, moved by a common
    // translation plus per-vertex noise at scales from one ulp-ish to a
    // fraction of rho, with occasional small block rotations; the pair
    // list follows the motion and is sometimes handed over shuffled with
    // repeats.
    const double scales[] = {0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 3e-2};
    std::size_t reused = 0;
    for (unsigned seed : {1u, 2u, 3u}) {
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        std::normal_distribution<double> gauss(0.0, 1.0);
        bl::BlockSystem sys;
        for (int r = 0; r < 3; ++r) {
            for (int c = 0; c < 4; ++c) {
                const Vec2 centre{c * (1.0 + 0.08) + 0.03 * unit(rng), r * (1.0 + 0.08)};
                const int n = 3 + static_cast<int>(unit(rng) * 3.0);
                const double turn = unit(rng) * 6.28;
                Shape poly;
                for (int k = 0; k < n; ++k) {
                    const double ang = turn + 6.2831853 * (k + 0.3 * unit(rng)) / n;
                    poly.push_back(centre + dir(ang * 57.29577951308232) * (0.5 + 0.05 * unit(rng)));
                }
                sys.add_block(poly);
            }
        }
        ct::NarrowPhaseWorkspace ws;
        for (int it = 0; it < 40; ++it) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " iteration " + std::to_string(it));
            const double scale = scales[static_cast<std::size_t>(unit(rng) * 7.0) % 7];
            const Vec2 common{gauss(rng), gauss(rng)};
            for (bl::Block& b : sys.blocks) {
                const bool rotate = unit(rng) < 0.1;
                const double angle = rotate ? 1e-3 * gauss(rng) : 0.0;
                const Vec2 pivot = b.verts[0];
                for (Vec2& p : b.verts) {
                    const Vec2 arm = p - pivot;
                    const Vec2 turned = pivot + Vec2{arm.x * std::cos(angle) - arm.y * std::sin(angle),
                                                     arm.x * std::sin(angle) + arm.y * std::cos(angle)};
                    p = turned + common + Vec2{gauss(rng), gauss(rng)} * scale;
                }
                b.update_geometry();
            }
            std::vector<ct::BlockPair> pairs = ct::broad_phase_triangular(sys, kRho);
            if (unit(rng) < 0.25 && !pairs.empty()) {
                pairs.push_back(pairs[static_cast<std::size_t>(unit(rng) * pairs.size()) % pairs.size()]);
                std::shuffle(pairs.begin(), pairs.end(), rng);
            }
            const std::uint64_t before = ws.memo_stats.pairs_reused;
            EXPECT_TRUE(same_answer(memoised(ws, sys, pairs, kRho), fresh(sys, pairs, kRho)));
            reused += ws.memo_stats.pairs_reused - before;
        }
    }
    EXPECT_GT(reused, 0u) << "small motions must leave some pairs reused";
}

namespace {

struct ZooScene {
    const char* name;
    std::function<bl::BlockSystem()> build;
    int steps;
};

std::vector<ZooScene> zoo() {
    return {
        {"slope", [] { return models::make_slope_with_blocks(40); }, 12},
        {"rocks", [] { return models::make_falling_rocks_with_blocks(16); }, 12},
        {"column", [] { return models::make_column(6); }, 12},
        {"tunnel", [] { return models::make_tunnel(); }, 6},
        {"lattice", [] {
             models::LatticeParams lp;
             lp.fixed_floor = false;
             return models::make_block_lattice_with_blocks(2000, lp);
         },
         10},
    };
}

} // namespace

TEST(NarrowMemo, EngineStepsMatchRunsThatDropTheMemo) {
    for (const ZooScene& scene : zoo()) {
        for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
            for (int team : {1, 2}) {
                SCOPED_TRACE(std::string(scene.name) +
                             (mode == core::EngineMode::Gpu ? " gpu" : " serial") + " team " +
                             std::to_string(team));
                core::SimConfig cfg;
                cfg.step_threads = team;
                bl::BlockSystem warm_sys = scene.build();
                bl::BlockSystem cold_sys = scene.build();
                core::DdaEngine warm(warm_sys, cfg, mode);
                core::DdaEngine cold(cold_sys, cfg, mode);
                std::uint64_t rebuilt_after_first = 0;
                for (int s = 0; s < scene.steps; ++s) {
                    cold.restore(cold.capture()); // drops the memo (and every cache)
                    warm.step();
                    cold.step();
                    if (s == 0) rebuilt_after_first = warm.narrow_memo().pairs_rebuilt;
                    const auto& a = warm.contacts();
                    const auto& b = cold.contacts();
                    ASSERT_EQ(a.size(), b.size()) << "step " << s;
                    for (std::size_t i = 0; i < a.size(); ++i)
                        ASSERT_TRUE(same_contact(a[i], b[i])) << "step " << s << " contact " << i;
                }
                EXPECT_EQ(bl::state_fingerprint(warm_sys), bl::state_fingerprint(cold_sys));
                EXPECT_EQ(cold.narrow_memo().pairs_reused, 0u);
                if (std::string(scene.name) != "lattice") continue;

                // The floorless lattice falls as one body: after the cold
                // first step every pair is reused and every later step is
                // steady, the collinear bottom edges of each row included.
                const ct::NarrowMemoStats& st = warm.narrow_memo();
                EXPECT_EQ(st.pairs_rebuilt, rebuilt_after_first);
                EXPECT_EQ(st.steady_calls, static_cast<std::uint64_t>(scene.steps - 1));
                EXPECT_EQ(st.pairs_reused, static_cast<std::uint64_t>(scene.steps - 1) * rebuilt_after_first);
                std::size_t collinear = 0;
                const bl::BlockSystem start = scene.build();
                double lo = 1e300, hi = -1e300;
                for (const bl::Block& b : start.blocks)
                    for (const Vec2 p : b.verts) {
                        lo = std::min(lo, p.y);
                        hi = std::max(hi, p.y);
                    }
                const double rho = cfg.search_factor * cfg.max_disp_ratio * 0.5 * (hi - lo);
                for (const ct::BlockPair& p : ct::broad_phase_triangular(warm_sys, rho)) {
                    const auto& va = warm_sys.blocks[p.a].verts;
                    const auto& vb = warm_sys.blocks[p.b].verts;
                    if (std::abs(va[0].y - vb[0].y) < 1e-9 && std::abs(va[1].y - vb[1].y) < 1e-9)
                        ++collinear;
                }
                EXPECT_GT(collinear, 0u) << "row neighbours with collinear bottom edges are pairs";
            }
        }
    }
}

TEST(NarrowMemo, SteadyStepKeepsContactsInPlace) {
    // A steady step neither emits nor transfers its contact list: it updates
    // the list it holds in place (contact::transfer_steady). Two oracles per
    // step. At the step's entry positions, a copy of the previous step's
    // list (with the fields no transfer carries poisoned) run through the engine's detection sequence (a memoised
    // narrow_phase that does not emit a steady list, then the in-place or
    // the searching transfer) must equal another copy run through
    // narrow_phase on a fresh workspace and transfer_contacts, entry states
    // included. After the step, the engine must equal a twin restored from
    // its entry capture, whose dropped memo makes its detection emit and
    // transfer.
    struct Scene {
        const char* name;
        std::function<bl::BlockSystem()> build;
        int steps;
        std::uint64_t min_steady; ///< engine steady steps over the run
        bool mixed;               ///< rebuilding steps after the first, closed contacts
    };
    const Scene scenes[] = {
        {"floorless lattice",
         [] {
             models::LatticeParams lp;
             lp.fixed_floor = false;
             return models::make_block_lattice_with_blocks(2000, lp);
         },
         30, 25, false},
        // Impact on the floor at about step 12: steady and rebuilding
        // steps mix, and some contacts are closed at entry.
        {"floored 40x10 lattice",
         [] {
             models::LatticeParams lp;
             lp.cols = 40;
             lp.rows = 10;
             return models::make_block_lattice(lp);
         },
         40, 1, true},
    };
    for (const Scene& scene : scenes) {
        for (core::EngineMode mode : {core::EngineMode::Serial, core::EngineMode::Gpu}) {
            for (int team : {1, 2}) {
                SCOPED_TRACE(std::string(scene.name) +
                             (mode == core::EngineMode::Gpu ? " gpu" : " serial") + " team " +
                             std::to_string(team));
                core::SimConfig cfg;
                cfg.step_threads = team;
                bl::BlockSystem sys = scene.build();
                bl::BlockSystem twin_sys = scene.build();
                core::DdaEngine engine(sys, cfg, mode);
                core::DdaEngine twin(twin_sys, cfg, mode);
                ct::NarrowPhaseWorkspace ws;
                ct::NarrowPhaseResult out;
                std::vector<ct::Contact> held;
                std::vector<ct::EntryState> entry;
                int steady = 0;
                int rebuilding = 0;
                std::size_t closed_at_entry = 0;
                for (int s = 0; s < scene.steps; ++s) {
                    const core::EngineCheckpoint at = engine.capture();
                    const double rho = cfg.search_factor * cfg.max_disp_ratio * at.w0;
                    const std::vector<ct::BlockPair> pairs = ct::broad_phase_triangular(at.sys, rho);
                    // The fields a transfer does not carry are poisoned: the
                    // in-place pass must rewrite them all.
                    std::vector<ct::Contact> previous = at.contacts;
                    for (ct::Contact& c : previous) {
                        c.prev_state = c.state == ct::ContactState::Open ? ct::ContactState::Lock
                                                                          : ct::ContactState::Open;
                        c.p1 = c.p2 = -1;
                        c.edge_ratio = std::nan("");
                    }
                    std::vector<ct::Contact> want = ct::narrow_phase(at.sys, pairs, rho).contacts;
                    ct::transfer_contacts(previous, want);
                    {
                        gdda::par::ScopedTeamSize scope(team);
                        ct::narrow_phase(at.sys, pairs, rho, ws, out, nullptr, false,
                                         /*emit_steady=*/false);
                        if (out.steady) {
                            ++steady;
                            held = previous;
                            entry.resize(held.size());
                            ct::transfer_steady(at.sys, ws.canon, held, entry);
                        } else {
                            ++rebuilding;
                            held = out.contacts;
                            entry.resize(held.size());
                            ct::transfer_contacts(previous, held, nullptr, entry);
                        }
                    }
                    ASSERT_EQ(held.size(), want.size()) << "step " << s;
                    for (std::size_t i = 0; i < want.size(); ++i) {
                        ASSERT_TRUE(same_contact(held[i], want[i])) << "step " << s << " contact " << i;
                        ASSERT_TRUE(entry[i].state == want[i].state &&
                                    same_bits(entry[i].slide_sign, want[i].slide_sign) &&
                                    same_bits(entry[i].last_gap, want[i].last_gap))
                            << "step " << s << " entry " << i;
                        closed_at_entry += want[i].state != ct::ContactState::Open ? 1 : 0;
                    }

                    twin.restore(at);
                    engine.step();
                    twin.step();
                    const auto& a = engine.contacts();
                    const auto& b = twin.contacts();
                    ASSERT_EQ(a.size(), b.size()) << "step " << s;
                    for (std::size_t i = 0; i < a.size(); ++i)
                        ASSERT_TRUE(same_contact(a[i], b[i])) << "step " << s << " contact " << i;
                    ASSERT_EQ(bl::state_fingerprint(sys), bl::state_fingerprint(twin_sys))
                        << "step " << s;
                }
                EXPECT_GE(engine.narrow_memo().steady_calls, scene.min_steady);
                EXPECT_EQ(twin.narrow_memo().steady_calls, 0u);
                EXPECT_GT(steady, 0);
                if (!scene.mixed) continue;
                EXPECT_GT(rebuilding, 1) << "the first call and at least one more rebuild";
                EXPECT_GT(closed_at_entry, 0u) << "the run must reach its floor";
            }
        }
    }
}

TEST(NarrowMemo, ScheduleStatsFollowThePairList) {
    // A call asked for the divergence-aware schedule serves its statistics
    // from the workspace only while the memo finds the sorted pair list
    // element-wise unchanged; every call prices both kernels as a fresh
    // call would. The list changes by a dropped pair, by a block gaining a
    // (collinear) vertex and by arriving unsorted.
    bl::BlockSystem sys = models::make_falling_rocks_with_blocks(60);
    const double rho = 0.02 * sys.characteristic_length();
    std::vector<ct::BlockPair> pairs = ct::broad_phase_triangular(sys, rho);
    ASSERT_GT(pairs.size(), 4u);
    ct::NarrowPhaseWorkspace ws;
    auto check = [&](std::span<const ct::BlockPair> list, const std::string& tag) {
        simt::KernelCost got = simt::KernelCost::accumulator();
        ct::NarrowPhaseResult r;
        ct::narrow_phase(sys, list, rho, ws, r, &got, true);
        simt::KernelCost want = simt::KernelCost::accumulator();
        (void)ct::narrow_phase(sys, list, rho, &want, true);
        const ct::PairScheduleStats st = ct::pair_schedule_stats(sys, list);
        EXPECT_EQ(ws.schedule.pairs, st.pairs) << tag;
        EXPECT_EQ(ws.schedule.buckets, st.buckets) << tag;
        EXPECT_EQ(ws.schedule.work, st.work) << tag;
        EXPECT_EQ(ws.schedule.slots_unsorted, st.slots_unsorted) << tag;
        EXPECT_EQ(ws.schedule.slots_sorted, st.slots_sorted) << tag;
        EXPECT_TRUE(same_bits(got.flops, want.flops) &&
                    same_bits(got.bytes_coalesced, want.bytes_coalesced) &&
                    same_bits(got.bytes_random, want.bytes_random) &&
                    same_bits(got.divergent_slots, want.divergent_slots) &&
                    same_bits(got.launches, want.launches))
            << tag;
    };
    check(pairs, "first call");
    check(pairs, "unchanged list");
    pairs.erase(pairs.begin() + static_cast<std::ptrdiff_t>(pairs.size() / 2));
    check(pairs, "a pair dropped");
    check(pairs, "unchanged again");
    bl::Block& grown = sys.blocks[static_cast<std::size_t>(pairs.front().a)];
    grown.verts.insert(grown.verts.begin() + 1, 0.5 * (grown.verts[0] + grown.verts[1]));
    sys.update_all_geometry();
    check(pairs, "a block gained a vertex");
    std::vector<ct::BlockPair> reversed(pairs.rbegin(), pairs.rend());
    check(reversed, "unsorted list");
    check(reversed, "unsorted list again");
    check(pairs, "sorted list after an unsorted one");
}
