// Contact module: broad phase (triangular vs balanced), narrow phase
// classification (VE/VV1/VV2), contact geometry gradients, transfer, and the
// open-close state machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <numbers>
#include <random>
#include <set>

#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "contact/open_close.hpp"
#include "contact/transfer.hpp"
#include "core/engine.hpp"
#include "models/falling_rocks.hpp"
#include "models/large_scene.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"
#include "par/thread_budget.hpp"

namespace ct = gdda::contact;
namespace bl = gdda::block;
using gdda::geom::Vec2;

namespace {
bl::BlockSystem two_squares(double gap) {
    bl::BlockSystem sys;
    sys.add_block({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
    sys.add_block({{0, 1 + gap}, {1, 1 + gap}, {1, 2 + gap}, {0, 2 + gap}});
    return sys;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Field-by-field bitwise equality (Contact has padding, so no memcmp).
bool same_contact(const ct::Contact& x, const ct::Contact& y) {
    return x.kind == y.kind && x.bi == y.bi && x.vi == y.vi && x.bj == y.bj && x.e1 == y.e1 &&
           x.e2 == y.e2 && x.state == y.state && x.prev_state == y.prev_state &&
           same_bits(x.shear_disp, y.shear_disp) && same_bits(x.slide_sign, y.slide_sign) &&
           same_bits(x.last_gap, y.last_gap) && same_bits(x.edge_ratio, y.edge_ratio) &&
           x.p1 == y.p1 && x.p2 == y.p2;
}

::testing::AssertionResult same_contacts(const std::vector<ct::Contact>& a,
                                         const std::vector<ct::Contact>& b) {
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!same_contact(a[i], b[i])) return ::testing::AssertionFailure() << "contact " << i;
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_stats(const ct::ClassificationStats& a,
                                      const ct::ClassificationStats& b) {
    if (a.candidates == b.candidates && a.ve == b.ve && a.vv1 == b.vv1 && a.vv2 == b.vv2 &&
        a.abandoned == b.abandoned)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "candidates " << a.candidates << "/" << b.candidates << " ve " << a.ve << "/"
           << b.ve << " vv1 " << a.vv1 << "/" << b.vv1 << " vv2 " << a.vv2 << "/" << b.vv2
           << " abandoned " << a.abandoned << "/" << b.abandoned;
}
} // namespace

TEST(BroadPhase, BalancedMappingVisitsEachPairOnce) {
    for (std::int64_t n : {2, 3, 4, 5, 8, 9, 16, 33}) {
        std::set<std::pair<int, int>> seen;
        const std::int64_t cols = ct::balanced_columns(n);
        for (std::int64_t r = 0; r < n; ++r) {
            for (std::int64_t k = 0; k < cols; ++k) {
                ct::BlockPair p{};
                if (!ct::balanced_cell_pair(n, r, k, p)) continue;
                EXPECT_LT(p.a, p.b);
                EXPECT_TRUE(seen.insert({p.a, p.b}).second)
                    << "duplicate pair " << p.a << "," << p.b << " n=" << n;
            }
        }
        EXPECT_EQ(static_cast<std::int64_t>(seen.size()), n * (n - 1) / 2) << "n=" << n;
    }
}

TEST(BroadPhase, TriangularAndBalancedAgree) {
    const bl::BlockSystem sys = gdda::models::make_column(6);
    const auto tri = ct::broad_phase_triangular(sys, 0.1);
    const auto bal = ct::broad_phase_balanced(sys, 0.1);
    ASSERT_EQ(tri.size(), bal.size());
    for (std::size_t i = 0; i < tri.size(); ++i) {
        EXPECT_EQ(tri[i].a, bal[i].a);
        EXPECT_EQ(tri[i].b, bal[i].b);
    }
    EXPECT_FALSE(tri.empty()); // neighbors in the column must appear
}

TEST(BroadPhase, MarginControlsCandidates) {
    const bl::BlockSystem sys = two_squares(0.5);
    EXPECT_TRUE(ct::broad_phase_triangular(sys, 0.1).empty());
    EXPECT_EQ(ct::broad_phase_triangular(sys, 1.0).size(), 1u);
}

TEST(NarrowPhase, StackedSquaresGiveContacts) {
    const bl::BlockSystem sys = two_squares(0.005);
    const auto pairs = ct::broad_phase_triangular(sys, 0.05);
    const auto np = ct::narrow_phase(sys, pairs, 0.05);
    // The two facing edges are parallel: corner candidates classify as VV1.
    EXPECT_GT(np.contacts.size(), 0u);
    bool has_vv1 = false;
    for (const ct::Contact& c : np.contacts)
        if (c.kind == ct::ContactKind::VV1) has_vv1 = true;
    EXPECT_TRUE(has_vv1);
    // All contacts start open until open-close closes them.
    for (const ct::Contact& c : np.contacts) EXPECT_EQ(c.state, ct::ContactState::Open);
}

TEST(NarrowPhase, VertexOnEdgeMidspanIsVE) {
    bl::BlockSystem sys;
    sys.add_block({{0, 0}, {4, 0}, {4, 1}, {0, 1}});
    // Triangle whose apex points down at the middle of the top edge.
    sys.add_block({{1.5, 1.002}, {2.5, 1.002}, {2.0, 2.0}});
    // The apex is (2.0, ...)? No: apex pointing down must be a vertex near
    // the edge. Use a diamond with its lowest vertex above the edge midpoint.
    sys.blocks.pop_back();
    sys.add_block({{2.0, 1.003}, {2.6, 1.8}, {2.0, 2.4}, {1.4, 1.8}});
    const auto pairs = ct::broad_phase_triangular(sys, 0.05);
    const auto np = ct::narrow_phase(sys, pairs, 0.05);
    ASSERT_FALSE(np.contacts.empty());
    bool found_ve = false;
    for (const ct::Contact& c : np.contacts) {
        if (c.kind == ct::ContactKind::VE && c.bi == 1 && c.bj == 0) found_ve = true;
    }
    EXPECT_TRUE(found_ve);
}

TEST(NarrowPhase, CornerOnCornerNonParallelIsVV2) {
    bl::BlockSystem sys;
    sys.add_block({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
    // Rotated square whose corner approaches the first block's corner (2,2).
    sys.add_block({{2.01, 2.01}, {3.0, 2.5}, {2.5, 3.5}, {1.6, 3.0}});
    const auto pairs = ct::broad_phase_triangular(sys, 0.1);
    const auto np = ct::narrow_phase(sys, pairs, 0.1);
    bool has_vv2 = false;
    for (const ct::Contact& c : np.contacts)
        if (c.kind == ct::ContactKind::VV2) has_vv2 = true;
    EXPECT_TRUE(has_vv2);
}

TEST(NarrowPhase, FarBlocksProduceNothing) {
    const bl::BlockSystem sys = two_squares(3.0);
    const auto pairs = ct::broad_phase_triangular(sys, 0.1);
    const auto np = ct::narrow_phase(sys, pairs, 0.1);
    EXPECT_TRUE(np.contacts.empty());
}

TEST(NarrowPhase, AngleJudgmentRejectsBackside) {
    bl::BlockSystem sys;
    sys.add_block({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
    sys.add_block({{2, 0}, {3, 0}, {3, 1}, {2, 1}});
    // Vertex 1 of block 0 is (1,0); edge 0 of block 1 is its bottom (faces
    // down) - a vertex approaching from above cannot contact it.
    EXPECT_FALSE(ct::ve_angle_admissible(sys.blocks[0], 1, sys.blocks[1], 0));
    // The left edge of block 1 (faces block 0) is admissible for vertex 1.
    EXPECT_TRUE(ct::ve_angle_admissible(sys.blocks[0], 1, sys.blocks[1], 3));
}

TEST(NarrowPhase, CanonicalUnderShuffleAndSuperset) {
    const bl::BlockSystem sys = gdda::models::make_slope_with_blocks(120);
    const double rho = 0.05 * sys.characteristic_length();
    const auto exact = ct::broad_phase_triangular(sys, rho);
    const auto ref = ct::narrow_phase(sys, exact, rho);
    ASSERT_GT(ref.contacts.size(), 50u);
    ASSERT_GT(ref.stats.ve, 0u);
    ASSERT_GT(ref.stats.vv1 + ref.stats.vv2, 0u);

    // Extra pairs at search distance 10 rho are separated by more than rho.
    auto superset = ct::broad_phase_triangular(sys, 10.0 * rho);
    ASSERT_GT(superset.size(), exact.size());
    std::mt19937 rng(5);
    auto shuffled = superset;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    // Every third pair listed again, shuffled in among the rest.
    auto repeated = shuffled;
    for (std::size_t i = 0; i < shuffled.size(); i += 3) repeated.push_back(shuffled[i]);
    std::shuffle(repeated.begin(), repeated.end(), rng);

    for (const auto* pairs : {&superset, &shuffled, &repeated}) {
        const auto np = ct::narrow_phase(sys, *pairs, rho);
        EXPECT_TRUE(same_contacts(ref.contacts, np.contacts)) << pairs->size() << " pairs";
        EXPECT_TRUE(same_stats(ref.stats, np.stats)) << pairs->size() << " pairs";
    }
    for (std::size_t i = 1; i < ref.contacts.size(); ++i)
        EXPECT_LT(ref.contacts[i - 1].key(), ref.contacts[i].key());
}

TEST(NarrowPhase, ScatteredBlockNumberingMatchesCoherentNumbering) {
    // The same lattice twice: numbered row by row, and with its blocks
    // shuffled, so each 256-pair chunk's bi range spans the whole scene and
    // the canonical sort takes its wide-range scatter. Mapped back to the
    // coherent numbering, both contact lists must agree bit for bit.
    const bl::BlockSystem sys = gdda::models::make_block_lattice_with_blocks(6000);
    const double rho = 0.05 * sys.characteristic_length();
    const auto ref = ct::narrow_phase(sys, ct::broad_phase_triangular(sys, rho), rho);
    ASSERT_GT(ref.contacts.size(), 4 * sys.size());

    std::vector<std::int32_t> to_new(sys.size());
    for (std::size_t i = 0; i < to_new.size(); ++i) to_new[i] = static_cast<std::int32_t>(i);
    std::shuffle(to_new.begin(), to_new.end(), std::mt19937(11));
    bl::BlockSystem shuffled = sys;
    for (std::size_t i = 0; i < sys.size(); ++i) shuffled.blocks[to_new[i]] = sys.blocks[i];
    const auto np = ct::narrow_phase(shuffled, ct::broad_phase_triangular(shuffled, rho), rho);
    EXPECT_TRUE(same_stats(ref.stats, np.stats));

    std::vector<std::int32_t> to_old(sys.size());
    for (std::size_t i = 0; i < sys.size(); ++i) to_old[to_new[i]] = static_cast<std::int32_t>(i);
    std::vector<ct::Contact> mapped = np.contacts;
    for (ct::Contact& c : mapped) {
        c.bi = to_old[c.bi];
        c.bj = to_old[c.bj];
    }
    std::sort(mapped.begin(), mapped.end(),
              [](const ct::Contact& x, const ct::Contact& y) { return x.key() < y.key(); });
    EXPECT_TRUE(same_contacts(ref.contacts, mapped));
}

TEST(NarrowPhase, VvCandidatesBeyond65536BlocksAreNotMerged) {
    // Block 0 has side neighbours 5 (right) and 65541 (left). The corner
    // candidates (0 v1, 5 v0) and (0 v0, 65541 v0) once shared a 64-bit
    // dedupe key (block indices were packed into 16-bit fields), so running
    // both pairs together silently dropped the second pair's corner.
    constexpr int kBlocks = 65542;
    bl::BlockSystem sys;
    sys.blocks.reserve(kBlocks);
    for (int i = 0; i < kBlocks; ++i) {
        if (i == 0) {
            sys.add_block({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
        } else if (i == 5) {
            sys.add_block({{1.01, 0}, {2.01, 0}, {2.01, 1}, {1.01, 1}});
        } else if (i == 65541) {
            sys.add_block({{-0.01, 0}, {-0.01, 1}, {-1.01, 1}, {-1.01, 0}});
        } else {
            const double x = 10.0 + 2.0 * (i % 1000);
            const double y = 10.0 + 2.0 * (i / 1000);
            sys.add_block({{x, y}, {x + 1, y}, {x, y + 1}});
        }
    }
    ASSERT_EQ(sys.blocks[5].verts[0].x, 1.01);
    ASSERT_EQ(sys.blocks[65541].verts[0].x, -0.01);
    const double rho = 0.05;
    const std::vector<ct::BlockPair> right{{0, 5}};
    const std::vector<ct::BlockPair> left{{0, 65541}};
    const std::vector<ct::BlockPair> both{{0, 5}, {0, 65541}};
    const auto r = ct::narrow_phase(sys, right, rho);
    const auto l = ct::narrow_phase(sys, left, rho);
    const auto b = ct::narrow_phase(sys, both, rho);
    ASSERT_EQ(r.stats.vv1, 4u);
    ASSERT_EQ(l.stats.vv1, 4u);
    std::vector<ct::Contact> expected = r.contacts;
    expected.insert(expected.end(), l.contacts.begin(), l.contacts.end());
    std::sort(expected.begin(), expected.end(),
              [](const ct::Contact& x, const ct::Contact& y) { return x.key() < y.key(); });
    EXPECT_TRUE(same_contacts(expected, b.contacts));
    EXPECT_EQ(b.stats.vv1, 8u);
    const auto has = [&](int bi, int vi, int bj) {
        return std::any_of(b.contacts.begin(), b.contacts.end(), [&](const ct::Contact& c) {
            return c.bi == bi && c.vi == vi && c.bj == bj;
        });
    };
    EXPECT_TRUE(has(0, 1, 5));
    EXPECT_TRUE(has(0, 0, 65541));
}

TEST(ContactGeometry, GapMatchesSignedDistance) {
    bl::BlockSystem sys = two_squares(0.01);
    ct::Contact c;
    c.bi = 1;
    c.vi = 0; // (0, 1.01)
    c.bj = 0;
    c.e1 = 2; // top edge of lower block: (1,1)->(0,1)
    c.e2 = 3;
    const ct::ContactGeometry g = ct::init_contact_geometry(sys, c);
    EXPECT_NEAR(g.gap0, 0.01, 1e-12);
    EXPECT_NEAR(g.length, 1.0, 1e-12);
}

TEST(ContactGeometry, GradientMatchesFiniteDifference) {
    bl::BlockSystem sys = two_squares(0.01);
    ct::Contact c;
    c.bi = 1;
    c.vi = 1; // (1, 1.01)
    c.bj = 0;
    c.e1 = 2;
    c.e2 = 3;
    const ct::ContactGeometry g = ct::init_contact_geometry(sys, c);

    // Finite differences on each DOF of both blocks.
    const double eps = 1e-7;
    for (int blk = 0; blk < 2; ++blk) {
        for (int k = 0; k < 6; ++k) {
            bl::BlockSystem pert = sys;
            gdda::sparse::Vec6 d{};
            d[k] = eps;
            const bl::Block& pb = pert.blocks[blk == 0 ? c.bi : c.bj];
            (void)pb;
            bl::Block& target = pert.blocks[blk == 0 ? c.bi : c.bj];
            for (Vec2& p : target.verts) p += target.displacement_at(p, d);
            // Do NOT update centroid: gradients are w.r.t. the current frame.
            ct::Contact c2 = c;
            const ct::ContactGeometry g2 = ct::init_contact_geometry(pert, c2);
            // Shi's linearization differentiates the area determinant while
            // holding the edge length at its step-start value, so compare
            // against d(gap * l)/l0, not d(gap) (they differ when the edge
            // stretches along itself under a strain DOF).
            const double fd = (g2.gap0 * g2.length - g.gap0 * g.length) / (g.length * eps);
            const double an = blk == 0 ? g.en_i[k] : g.gn_j[k];
            EXPECT_NEAR(fd, an, 1e-5 * (1.0 + std::abs(an)))
                << "block " << blk << " dof " << k;
        }
    }
}

TEST(Transfer, CarriesStateByIdentity) {
    std::vector<ct::Contact> prev(3);
    prev[0].bi = 0; prev[0].vi = 1; prev[0].bj = 1; prev[0].e1 = 2;
    prev[0].state = ct::ContactState::Lock;
    prev[0].shear_disp = 0.5;
    prev[1].bi = 2; prev[1].vi = 0; prev[1].bj = 3; prev[1].e1 = 1;
    prev[1].state = ct::ContactState::Slide;
    prev[1].slide_sign = -1.0;
    prev[2].bi = 4; prev[2].vi = 0; prev[2].bj = 5; prev[2].e1 = 0;

    std::vector<ct::Contact> cur(2);
    cur[0] = prev[1]; // same identity, reset state
    cur[0].state = ct::ContactState::Open;
    cur[0].slide_sign = 1.0;
    cur[1].bi = 7; cur[1].vi = 0; cur[1].bj = 8; cur[1].e1 = 0; // fresh

    const ct::TransferStats st = ct::transfer_contacts(prev, cur);
    EXPECT_EQ(st.matched, 1u);
    EXPECT_EQ(st.fresh, 1u);
    EXPECT_EQ(st.expired, 2u);
    EXPECT_EQ(cur[0].state, ct::ContactState::Slide);
    EXPECT_DOUBLE_EQ(cur[0].slide_sign, -1.0);
    EXPECT_EQ(cur[1].state, ct::ContactState::Open);
}

namespace {
/// `n` contacts in strictly increasing key order, each with its own spring
/// memory.
std::vector<ct::Contact> keyed_contacts(std::size_t n) {
    std::vector<ct::Contact> cs(n);
    for (std::size_t i = 0; i < n; ++i) {
        ct::Contact& c = cs[i];
        c.bi = static_cast<std::int32_t>(i / 3);
        c.vi = static_cast<std::int32_t>(i % 3);
        c.bj = c.bi + 1;
        c.state = static_cast<ct::ContactState>(i % 3);
        c.shear_disp = 1e-3 * static_cast<double>(i);
        c.slide_sign = i % 2 ? -1.0 : 1.0;
        c.last_gap = -1e-4 * static_cast<double>(i % 7);
    }
    return cs;
}

/// The narrow phase's fresh copy of `cs`: same identities, default springs.
std::vector<ct::Contact> fresh_copies(const std::vector<ct::Contact>& cs) {
    std::vector<ct::Contact> out(cs.size());
    for (std::size_t i = 0; i < cs.size(); ++i) {
        out[i].bi = cs[i].bi;
        out[i].vi = cs[i].vi;
        out[i].bj = cs[i].bj;
        out[i].e1 = cs[i].e1;
        out[i].e2 = cs[i].e2;
        out[i].slide_sign = 0.25; // distinguishes a carried sign from a kept one
    }
    return out;
}

void expect_carried(const ct::Contact& c, const ct::Contact& from) {
    EXPECT_EQ(c.state, from.state);
    EXPECT_EQ(c.prev_state, from.state);
    EXPECT_TRUE(same_bits(c.shear_disp, from.shear_disp));
    EXPECT_TRUE(same_bits(c.slide_sign, from.slide_sign));
    EXPECT_TRUE(same_bits(c.last_gap, from.last_gap));
}
} // namespace

TEST(Transfer, UnchangedCanonicalListCarriesAtEachIndex) {
    // Several reduction chunks long, so the canonical-order check runs in
    // parallel: an unchanged contact set inherits index by index.
    const std::vector<ct::Contact> previous = keyed_contacts(3000);
    std::vector<ct::Contact> current = fresh_copies(previous);
    const ct::TransferStats st = ct::transfer_contacts(previous, current);
    EXPECT_EQ(st.matched, previous.size());
    EXPECT_EQ(st.fresh, 0u);
    EXPECT_EQ(st.expired, 0u);
    for (std::size_t i = 0; i < current.size(); ++i) expect_carried(current[i], previous[i]);
}

TEST(Transfer, ChangedTailAndRepeatedKeysFollowTheSearch) {
    // The last contact is new: it alone starts Open, and every other
    // contact still finds its predecessor.
    const std::vector<ct::Contact> previous = keyed_contacts(3000);
    std::vector<ct::Contact> current = fresh_copies(previous);
    current.back().bj += 7; // a key the previous step never had
    const ct::TransferStats st = ct::transfer_contacts(previous, current);
    EXPECT_EQ(st.matched, previous.size() - 1);
    EXPECT_EQ(st.fresh, 1u);
    EXPECT_EQ(st.expired, 1u);
    for (std::size_t i = 0; i + 1 < current.size(); ++i) expect_carried(current[i], previous[i]);
    EXPECT_EQ(current.back().state, ct::ContactState::Open);
    EXPECT_TRUE(same_bits(current.back().slide_sign, 0.25)); // a fresh contact keeps its own

    // `previous` repeats a key, so it is not canonical and goes through the
    // sorted key index: both copies take the first occurrence's memory.
    std::vector<ct::Contact> repeated = keyed_contacts(4);
    repeated[1] = repeated[0];
    repeated[1].state = ct::ContactState::Lock;
    repeated[1].shear_disp = 9.0;
    std::vector<ct::Contact> twin = fresh_copies(repeated);
    ct::transfer_contacts(repeated, twin);
    expect_carried(twin[0], repeated[0]);
    expect_carried(twin[1], repeated[0]);
    expect_carried(twin[2], repeated[2]);
}

TEST(OpenClose, PenetrationClosesContact) {
    bl::BlockSystem sys = two_squares(0.001);
    ct::Contact c;
    c.bi = 1; c.vi = 0; c.bj = 0; c.e1 = 2; c.e2 = 3;
    std::vector<ct::Contact> contacts{c};
    auto geo = ct::contact_geometry(sys, contacts);
    std::vector<ct::BlockMotion> motion(sys.size());

    // Displacement pushing the upper block down by 0.002 -> penetration.
    gdda::sparse::BlockVec d(2);
    d[1][1] = -0.002;
    ct::OpenCloseParams params{.penalty = 1e9, .shear_penalty = 1e9, .open_tol = 0.0};
    const auto res = ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(res.state_changes, 1);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Lock);
    EXPECT_NEAR(res.max_penetration, 0.001, 1e-9);
    EXPECT_EQ(contacts[0].p1, 1); // normal spring switched on
}

TEST(OpenClose, SeparationOpensContact) {
    bl::BlockSystem sys = two_squares(0.001);
    ct::Contact c;
    c.bi = 1; c.vi = 0; c.bj = 0; c.e1 = 2; c.e2 = 3;
    c.state = ct::ContactState::Lock;
    std::vector<ct::Contact> contacts{c};
    auto geo = ct::contact_geometry(sys, contacts);
    std::vector<ct::BlockMotion> motion(sys.size());

    gdda::sparse::BlockVec d(2);
    d[1][1] = +0.01; // moving away
    ct::OpenCloseParams params{.penalty = 1e9, .shear_penalty = 1e9, .open_tol = 0.0};
    const auto res = ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Open);
    EXPECT_EQ(contacts[0].p1, -1);
    EXPECT_EQ(res.state_changes, 1);
}

TEST(OpenClose, ShearBeyondFrictionSlides) {
    bl::BlockSystem sys = two_squares(0.0);
    sys.joints[0].friction_deg = 5.0; // nearly frictionless
    ct::Contact c;
    c.bi = 1; c.vi = 0; c.bj = 0; c.e1 = 2; c.e2 = 3;
    c.state = ct::ContactState::Lock;
    std::vector<ct::Contact> contacts{c};
    auto geo = ct::contact_geometry(sys, contacts);
    std::vector<ct::BlockMotion> motion(sys.size());

    gdda::sparse::BlockVec d(2);
    d[1][0] = 0.01;   // large tangential motion
    d[1][1] = -1e-5;  // slight compression keeps it closed
    ct::OpenCloseParams params{.penalty = 1e9, .shear_penalty = 1e9, .open_tol = 0.0};
    ct::update_contact_states(sys, geo, contacts, d, motion, params);
    EXPECT_EQ(contacts[0].state, ct::ContactState::Slide);
    EXPECT_EQ(contacts[0].p2, -1); // shear spring switched off
}

TEST(OpenClose, CommitAccumulatesLockShear) {
    bl::BlockSystem sys = two_squares(0.0);
    ct::Contact c;
    c.bi = 1; c.vi = 0; c.bj = 0; c.e1 = 2; c.e2 = 3;
    c.state = ct::ContactState::Lock;
    c.shear_disp = 0.001;
    std::vector<ct::Contact> contacts{c};
    auto geo = ct::contact_geometry(sys, contacts);
    gdda::sparse::BlockVec d(2);
    d[1][0] = 0.002;
    ct::commit_contact_springs(geo, contacts, d);
    // Top edge of block 0 runs (1,1)->(0,1): tangent is -x, so +x motion of
    // the vertex is negative shear along the edge direction.
    EXPECT_NEAR(contacts[0].shear_disp, 0.001 - 0.002, 1e-12);

    contacts[0].state = ct::ContactState::Open;
    ct::commit_contact_springs(geo, contacts, d);
    EXPECT_DOUBLE_EQ(contacts[0].shear_disp, 0.0);
}

TEST(Transfer, NonCanonicalPreviousMatchesCanonical) {
    const bl::BlockSystem sys = gdda::models::make_slope_with_blocks(120);
    const double rho = 0.05 * sys.characteristic_length();
    const auto pairs = ct::broad_phase_triangular(sys, rho);
    std::vector<ct::Contact> previous = ct::narrow_phase(sys, pairs, rho).contacts;
    ASSERT_GT(previous.size(), 50u);
    for (std::size_t i = 0; i < previous.size(); ++i) {
        ct::Contact& c = previous[i];
        c.state = static_cast<ct::ContactState>(i % 3);
        c.shear_disp = 1e-3 * static_cast<double>(i);
        c.slide_sign = i % 2 ? -1.0 : 1.0;
        c.last_gap = -1e-4 * static_cast<double>(i % 7);
    }
    // Every fifth contact expires, so the current list also has fresh ones.
    std::vector<ct::Contact> canonical;
    for (std::size_t i = 0; i < previous.size(); ++i)
        if (i % 5 != 0) canonical.push_back(previous[i]);
    std::vector<ct::Contact> shuffled = canonical;
    std::mt19937 rng(11);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    const std::vector<ct::Contact> detected = ct::narrow_phase(sys, pairs, rho).contacts;
    std::vector<ct::Contact> via_canonical = detected;
    std::vector<ct::Contact> via_shuffled = detected;
    const ct::TransferStats a = ct::transfer_contacts(canonical, via_canonical);
    const ct::TransferStats b = ct::transfer_contacts(shuffled, via_shuffled);
    EXPECT_TRUE(same_contacts(via_canonical, via_shuffled));
    EXPECT_EQ(a.matched, canonical.size());
    EXPECT_EQ(a.fresh, detected.size() - canonical.size());
    EXPECT_EQ(a.expired, 0u);
    EXPECT_EQ(a.matched, b.matched);
    EXPECT_EQ(a.fresh, b.fresh);
    EXPECT_EQ(a.expired, b.expired);
    for (std::size_t i = 0; i < detected.size(); ++i) {
        if (i % 5 == 0) {
            EXPECT_EQ(via_canonical[i].state, ct::ContactState::Open);
        } else {
            EXPECT_EQ(via_canonical[i].state, previous[i].state);
            EXPECT_TRUE(same_bits(via_canonical[i].shear_disp, previous[i].shear_disp));
        }
    }
}

namespace {

/// The open-close update as it was when every contact, open or closed,
/// read a full init_contact_geometry record: the oracle for the on-demand
/// geometry of open contacts.
ct::OpenCloseResult full_record_update(const bl::BlockSystem& sys,
                                       const std::vector<ct::ContactGeometry>& geo,
                                       std::vector<ct::Contact>& contacts,
                                       const gdda::sparse::BlockVec& d,
                                       const ct::OpenCloseParams& params) {
    ct::OpenCloseResult res;
    for (std::size_t k = 0; k < contacts.size(); ++k) {
        ct::Contact& c = contacts[k];
        const ct::ContactGeometry& g = geo[k];
        const bl::JointMaterial& jm = sys.joint_between(sys.blocks[c.bi], sys.blocks[c.bj]);
        const double dn = g.gap0 + g.en_i.dot(d[c.bi]) + g.gn_j.dot(d[c.bj]);
        const double ds = c.shear_disp + g.es_i.dot(d[c.bi]) + g.gs_j.dot(d[c.bj]);
        const ct::ContactState old = c.state;
        ct::ContactState next;
        const double tension_gap = jm.tension * g.length / params.penalty;
        const bool on_span = g.ratio > -0.05 && g.ratio < 1.05;
        const bool closing_ok = g.ratio > -0.01 && g.ratio < 1.01 &&
                                dn < -params.open_tol && dn > -params.max_closing_depth;
        const bool left_span = g.ratio < -0.25 || g.ratio > 1.25;
        if (c.state == ct::ContactState::Open) {
            next = closing_ok ? ct::ContactState::Lock : ct::ContactState::Open;
        } else if (dn > params.open_tol + tension_gap || left_span) {
            next = ct::ContactState::Open;
        } else {
            const double normal_force = std::max(-params.penalty * dn, 0.0);
            const double friction_limit =
                normal_force * std::tan(jm.friction_deg * std::numbers::pi_v<double> / 180.0) +
                jm.cohesion * g.length;
            const double shear_force = params.shear_penalty * ds;
            if (old == ct::ContactState::Lock && std::abs(shear_force) > friction_limit) {
                next = ct::ContactState::Slide;
                c.slide_sign = shear_force >= 0.0 ? 1.0 : -1.0;
            } else if (old == ct::ContactState::Slide &&
                       std::abs(shear_force) > 0.9 * friction_limit) {
                next = ct::ContactState::Slide;
                c.slide_sign = shear_force >= 0.0 ? 1.0 : -1.0;
            } else {
                next = ct::ContactState::Lock;
            }
        }
        c.p1 = static_cast<std::int8_t>(int(next != ct::ContactState::Open) -
                                        int(old != ct::ContactState::Open));
        c.p2 = static_cast<std::int8_t>(int(next == ct::ContactState::Lock) -
                                        int(old == ct::ContactState::Lock));
        if (next != old) ++res.state_changes;
        if (next != ct::ContactState::Open) ++res.closed;
        c.prev_state = old;
        c.state = next;
        c.last_gap = next != ct::ContactState::Open && on_span ? dn : 0.0;
        if (next != ct::ContactState::Open && g.ratio > -0.01 && g.ratio < 1.01)
            res.max_penetration = std::max(res.max_penetration, -dn);
    }
    return res;
}

} // namespace

TEST(OpenClose, GeometryOnDemandMatchesFullGeometry) {
    // A floored 40x10 lattice dropped onto its floor. Two entry states are
    // replayed: the step before the first impact (every contact open) and
    // the one after it (some contacts closed at entry).
    gdda::models::LatticeParams lp;
    lp.cols = 40;
    lp.rows = 10;
    bl::BlockSystem sys = gdda::models::make_block_lattice(lp);
    gdda::core::SimConfig cfg;
    cfg.step_threads = 1;
    gdda::core::DdaEngine eng(sys, cfg, gdda::core::EngineMode::Serial);
    std::vector<gdda::core::EngineCheckpoint> entries;
    for (int s = 0; s < 200 && entries.empty(); ++s) {
        gdda::core::EngineCheckpoint before = eng.capture();
        if (eng.step().active_contacts > 0) {
            entries.push_back(std::move(before));
            entries.push_back(eng.capture());
        }
    }
    ASSERT_EQ(entries.size(), 2u) << "the lattice never reached its floor";

    for (std::size_t e = 0; e < entries.size(); ++e) {
        const gdda::core::EngineCheckpoint& entry = entries[e];
        const bl::BlockSystem& at = entry.sys;
        const double rho = cfg.search_factor * cfg.max_disp_ratio * entry.w0;
        std::vector<ct::Contact> detected =
            ct::narrow_phase(at, ct::broad_phase_triangular(at, rho), rho).contacts;
        ct::transfer_contacts(entry.contacts, detected);
        const std::vector<ct::ContactGeometry> full = ct::contact_geometry(at, detected);
        std::vector<ct::BlockMotion> motion(at.size());

        ct::OpenCloseParams params;
        params.penalty = cfg.penalty_scale * at.max_young();
        params.shear_penalty = params.penalty * cfg.shear_penalty_ratio;
        params.max_closing_depth = 0.2 * entry.mobile_size;
        params.open_tol = 1e-9 * entry.w0;

        // Displacement passes: a fall several times the last step's (open
        // contacts close), a short one (some closed contacts reopen), a
        // long one; then a retry from the entry states.
        auto scaled = [&](double f) {
            gdda::sparse::BlockVec d = entry.warm_start;
            for (std::size_t i = 0; i < d.size(); ++i)
                for (int k = 0; k < 6; ++k)
                    d[i][k] *= f * (1.0 + 0.25 * std::sin(static_cast<double>(3 * i + k)));
            return d;
        };
        const std::vector<std::vector<double>> attempts = {{4.0, 0.5, 6.0}, {2.0, 3.0}};

        for (int team : {1, 4}) {
            gdda::par::ScopedTeamSize scope(team);
            std::vector<ct::ContactGeometry> geo(detected.size());
            // Open contacts' slots are poisoned: reading one would show.
            ct::ContactGeometry poison;
            poison.gap0 = poison.ratio = poison.length = std::nan("");
            for (int k = 0; k < 6; ++k)
                poison.en_i[k] = poison.gn_j[k] = poison.es_i[k] = poison.gs_j[k] =
                    std::nan("");
            std::fill(geo.begin(), geo.end(), poison);
            const double entry_pen = ct::init_all_contacts(at, detected, geo);
            double ref_pen = 0.0;
            std::size_t closed_at_entry = 0;
            for (std::size_t k = 0; k < detected.size(); ++k) {
                if (detected[k].state == ct::ContactState::Open) continue;
                ++closed_at_entry;
                ASSERT_EQ(std::memcmp(&geo[k], &full[k], sizeof(ct::ContactGeometry)), 0);
                if (full[k].ratio > -0.01 && full[k].ratio < 1.01)
                    ref_pen = std::max(ref_pen, -full[k].gap0);
            }
            EXPECT_TRUE(same_bits(entry_pen, ref_pen));
            EXPECT_EQ(closed_at_entry > 0, e == 1);

            std::size_t closings = 0;
            std::vector<ct::Contact> ref;
            std::vector<ct::Contact> got;
            for (const std::vector<double>& passes : attempts) {
                ref = detected; // a retry restores the entry contacts...
                got = detected; // ...and keeps the records written so far
                for (const double f : passes) {
                    const gdda::sparse::BlockVec d = scaled(f);
                    const std::vector<ct::Contact> before = got;
                    const ct::OpenCloseResult r0 = full_record_update(at, full, ref, d, params);
                    const ct::OpenCloseResult r1 =
                        ct::update_contact_states(at, geo, got, d, motion, params);
                    const std::string tag = "entry " + std::to_string(e) + " team " +
                                            std::to_string(team) + " pass x" + std::to_string(f);
                    ASSERT_TRUE(same_contacts(got, ref)) << tag;
                    EXPECT_EQ(r1.state_changes, r0.state_changes) << tag;
                    EXPECT_EQ(r1.closed, r0.closed) << tag;
                    EXPECT_TRUE(same_bits(r1.max_penetration, r0.max_penetration)) << tag;
                    for (std::size_t k = 0; k < got.size(); ++k) {
                        if (got[k].state == ct::ContactState::Open) continue;
                        if (before[k].state == ct::ContactState::Open) ++closings;
                        ASSERT_EQ(std::memcmp(&geo[k], &full[k], sizeof(ct::ContactGeometry)),
                                  0)
                            << tag << " contact " << k;
                    }
                }
            }
            EXPECT_GT(closings, 0u) << "no open contact closed mid-step";
            const gdda::sparse::BlockVec d = scaled(1.0);
            ct::commit_contact_springs(full, ref, d);
            ct::commit_contact_springs(geo, got, d);
            EXPECT_TRUE(same_contacts(got, ref));
        }
    }
}

namespace {

/// Every open contact holds last_gap +0; with `shear_too`, shear_disp +0
/// as well (true after a commit, and for contacts open since the last one).
::testing::AssertionResult open_contacts_hold_zero(const std::vector<ct::Contact>& contacts,
                                                   const std::vector<ct::Contact>* entry,
                                                   bool shear_too) {
    for (std::size_t k = 0; k < contacts.size(); ++k) {
        const ct::Contact& c = contacts[k];
        if (c.state != ct::ContactState::Open) continue;
        if (!same_bits(c.last_gap, 0.0))
            return ::testing::AssertionFailure() << "open contact " << k << " last_gap "
                                                 << c.last_gap;
        const bool open_since_commit =
            shear_too || (entry && (*entry)[k].state == ct::ContactState::Open);
        if (open_since_commit && !same_bits(c.shear_disp, 0.0))
            return ::testing::AssertionFailure() << "open contact " << k << " shear_disp "
                                                 << c.shear_disp;
    }
    return ::testing::AssertionSuccess();
}

/// One pass of the certified update against the full-evaluation oracle:
/// contacts, state changes, closed count and penetration bit for bit.
::testing::AssertionResult certified_pass_matches(const bl::BlockSystem& sys,
                                                  std::vector<ct::ContactGeometry>& geo,
                                                  const std::vector<ct::ContactGeometry>& full,
                                                  std::vector<ct::Contact>& got,
                                                  std::vector<ct::Contact>& ref,
                                                  const gdda::sparse::BlockVec& d,
                                                  const ct::OpenCloseParams& params, bool priced,
                                                  std::size_t* evaluated = nullptr) {
    std::vector<ct::BlockMotion> motion(sys.size());
    gdda::simt::KernelCost cost = gdda::simt::KernelCost::accumulator();
    const ct::OpenCloseResult r0 = full_record_update(sys, full, ref, d, params);
    const ct::OpenCloseResult r1 = ct::update_contact_states(
        sys, geo, got, d, motion, params, priced ? &cost : nullptr);
    if (evaluated) *evaluated += r1.evaluated;
    if (::testing::AssertionResult same = same_contacts(got, ref); !same) return same;
    if (r1.state_changes != r0.state_changes || r1.closed != r0.closed ||
        !same_bits(r1.max_penetration, r0.max_penetration))
        return ::testing::AssertionFailure()
               << "changes " << r1.state_changes << "/" << r0.state_changes << " closed "
               << r1.closed << "/" << r0.closed << " pen " << r1.max_penetration << "/"
               << r0.max_penetration;
    return ::testing::AssertionSuccess();
}

ct::OpenCloseParams engine_params(const gdda::core::SimConfig& cfg,
                                  const gdda::core::EngineCheckpoint& entry) {
    ct::OpenCloseParams params;
    params.penalty = cfg.penalty_scale * entry.sys.max_young();
    params.shear_penalty = params.penalty * cfg.shear_penalty_ratio;
    params.max_closing_depth = 0.2 * entry.mobile_size;
    params.open_tol = 1e-9 * entry.w0;
    return params;
}

} // namespace

TEST(OpenClose, CertifiedSkipMatchesFullEvaluation) {
    // Part 1: real entry states. Each scene runs in both engine modes; a
    // few entry captures are replayed through passes of the last step's
    // increment scaled up and down (rotating and straining blocks on the
    // slope and the rocks), a rigid translation of every block, and a
    // retry from the entry states, at teams 1, 2 and 4.
    struct Scene {
        const char* name;
        std::function<bl::BlockSystem()> make;
        std::vector<int> capture_at; ///< steps whose entry state is replayed
        bool until_impact = false;   ///< capture the steps around the first impact
    };
    const Scene scenes[] = {
        {"floorless 2k lattice",
         [] {
             gdda::models::LatticeParams lp;
             lp.fixed_floor = false;
             return gdda::models::make_block_lattice_with_blocks(2000, lp);
         },
         {3, 8}},
        {"floored 40x10 lattice",
         [] {
             gdda::models::LatticeParams lp;
             lp.cols = 40;
             lp.rows = 10;
             return gdda::models::make_block_lattice(lp);
         },
         {},
         true},
        {"slope:300", [] { return gdda::models::make_slope_with_blocks(300); }, {2, 5}},
        {"rocks:32", [] { return gdda::models::make_falling_rocks_with_blocks(32); }, {2, 5}},
    };
    std::size_t rigid_lattice_evaluated = 0;
    for (const Scene& scene : scenes) {
        std::size_t contacts_seen = 0;
        std::size_t evaluated = 0;
        for (gdda::core::EngineMode mode :
             {gdda::core::EngineMode::Serial, gdda::core::EngineMode::Gpu}) {
            const bool priced = mode == gdda::core::EngineMode::Gpu;
            bl::BlockSystem sys = scene.make();
            gdda::core::SimConfig cfg;
            cfg.step_threads = 2;
            gdda::core::DdaEngine eng(sys, cfg, mode);
            std::vector<gdda::core::EngineCheckpoint> entries;
            const int last = scene.until_impact
                                 ? 200
                                 : *std::max_element(scene.capture_at.begin(),
                                                     scene.capture_at.end());
            for (int s = 0; s <= last; ++s) {
                gdda::core::EngineCheckpoint before = eng.capture();
                const bool wanted = std::find(scene.capture_at.begin(), scene.capture_at.end(),
                                              s) != scene.capture_at.end();
                if (wanted) entries.push_back(before);
                const gdda::core::StepStats st = eng.step();
                // Along the engine's own run, after every commit.
                ASSERT_TRUE(open_contacts_hold_zero(eng.contacts(), nullptr, true))
                    << scene.name << " step " << s;
                if (scene.until_impact && st.active_contacts > 0) {
                    entries.push_back(std::move(before));
                    entries.push_back(eng.capture());
                    break;
                }
            }
            ASSERT_FALSE(entries.empty()) << scene.name;

            for (std::size_t e = 0; e < entries.size(); ++e) {
                const gdda::core::EngineCheckpoint& entry = entries[e];
                const bl::BlockSystem& at = entry.sys;
                const double rho = cfg.search_factor * cfg.max_disp_ratio * entry.w0;
                std::vector<ct::Contact> detected =
                    ct::narrow_phase(at, ct::broad_phase_triangular(at, rho), rho).contacts;
                ct::transfer_contacts(entry.contacts, detected);
                const std::vector<ct::ContactGeometry> full = ct::contact_geometry(at, detected);
                const ct::OpenCloseParams params = engine_params(cfg, entry);

                auto scaled = [&](double f) {
                    gdda::sparse::BlockVec d = entry.warm_start;
                    for (std::size_t i = 0; i < d.size(); ++i)
                        for (int k = 0; k < 6; ++k)
                            d[i][k] *= f * (1.0 + 0.25 * std::sin(static_cast<double>(3 * i + k)));
                    return d;
                };
                gdda::sparse::BlockVec rigid(at.size());
                for (gdda::sparse::Vec6& v : rigid) {
                    v[0] = 1e-3;
                    v[1] = -2e-3;
                }
                const std::vector<std::vector<gdda::sparse::BlockVec>> attempts = {
                    {entry.warm_start, scaled(4.0), scaled(0.5), rigid}, {scaled(6.0), scaled(2.0)}};

                for (int team : {1, 2, 4}) {
                    gdda::par::ScopedTeamSize scope(team);
                    std::vector<ct::ContactGeometry> geo(detected.size());
                    ct::init_all_contacts(at, detected, geo);
                    std::vector<ct::Contact> ref;
                    std::vector<ct::Contact> got;
                    for (const std::vector<gdda::sparse::BlockVec>& passes : attempts) {
                        ref = detected;
                        got = detected;
                        for (std::size_t pass = 0; pass < passes.size(); ++pass) {
                            const std::string tag = std::string(scene.name) +
                                                    (priced ? " gpu" : " serial") + " entry " +
                                                    std::to_string(e) + " team " +
                                                    std::to_string(team) + " pass " +
                                                    std::to_string(pass);
                            std::size_t pass_evaluated = 0;
                            ASSERT_TRUE(certified_pass_matches(at, geo, full, got, ref,
                                                               passes[pass], params, priced,
                                                               &pass_evaluated))
                                << tag;
                            ASSERT_TRUE(open_contacts_hold_zero(got, &detected, false)) << tag;
                            contacts_seen += got.size();
                            evaluated += pass_evaluated;
                            if (&passes[pass] == &attempts[0][3] && e == 0 &&
                                std::string(scene.name) == "floorless 2k lattice")
                                rigid_lattice_evaluated += pass_evaluated;
                        }
                    }
                    const gdda::sparse::BlockVec d = scaled(1.0);
                    ct::commit_contact_springs(full, ref, d);
                    ct::commit_contact_springs(geo, got, d);
                    ASSERT_TRUE(same_contacts(got, ref)) << scene.name;
                    ASSERT_TRUE(open_contacts_hold_zero(got, nullptr, true)) << scene.name;
                }
            }
        }
        // The skips were under test: some contacts read no row of d.
        EXPECT_LT(evaluated, contacts_seen) << scene.name;
    }
    // A rigid translation of the floorless lattice closes nothing, and
    // every contact is skipped.
    EXPECT_EQ(rigid_lattice_evaluated, 0u);

    // Part 2: synthetic contacts on the certificate's edge. Block 0 is a
    // unit square, block 1 a unit square above it at `gap`, shifted half a
    // block so that its vertex 0 projects onto the middle of block 0's top
    // edge. The pair is placed at the origin, near 1e4 and rotated; the
    // increments close the gap to within a few ulps of -open_tol by a
    // relative translation, by rotating or stretching the upper block, or
    // by rotating the lower one.
    std::mt19937 rng(77);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::size_t closed = 0;
    std::size_t cases = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const double offset = trial % 2 ? 1e4 : 0.0;
        const double angle = trial % 4 < 2 ? 0.0 : 0.3 + unit(rng);
        const double c = std::cos(angle);
        const double sn = std::sin(angle);
        const Vec2 origin{offset + unit(rng), offset + unit(rng)};
        auto place = [&](double x, double y) {
            return Vec2{origin.x + c * x - sn * y, origin.y + sn * x + c * y};
        };
        const double gap = 1e-3 * (1.0 + unit(rng));
        bl::BlockSystem sys;
        sys.add_block({place(0, 0), place(1, 0), place(1, 1), place(0, 1)});
        sys.add_block({place(0.5, 1 + gap), place(1.5, 1 + gap), place(1.5, 2 + gap),
                       place(0.5, 2 + gap)});
        sys.update_all_geometry();
        ct::Contact contact;
        contact.bi = 1;
        contact.vi = 0;
        contact.bj = 0;
        contact.e1 = 2;
        contact.e2 = 3;
        std::vector<ct::Contact> contacts{contact};
        const std::vector<ct::ContactGeometry> full = ct::contact_geometry(sys, contacts);
        ct::OpenCloseParams params;
        params.open_tol = 1e-9 * (1.0 + unit(rng));
        params.max_closing_depth = 0.5;
        // How far the vertex of block 1 must move toward block 0's edge,
        // along the edge's inward normal, for dn to reach -open_tol.
        const double target = full[0].gap0 + params.open_tol;
        const Vec2 down{sn, -c}; // inward normal of block 0's top edge
        const int kind = trial / 4 % 4;
        for (int ulps = -6; ulps <= 6; ++ulps) {
            const double reach = target * (1.0 + ulps * std::numeric_limits<double>::epsilon());
            gdda::sparse::BlockVec d(2);
            const double drift = 0.3 * (unit(rng) - 0.5); // common, cancels exactly
            d[0][0] = d[1][0] = drift * c;
            d[0][1] = d[1][1] = drift * sn;
            const Vec2 p1 = sys.blocks[1].verts[0] - sys.blocks[1].centroid;
            switch (kind) {
                case 0: // relative translation along the normal
                    d[1][0] += reach * down.x;
                    d[1][1] += reach * down.y;
                    break;
                case 1: // rotate block 1 about its centroid: p1 moves by r0 x p1
                    d[1][2] = reach / (p1.x * down.y - p1.y * down.x);
                    break;
                case 2: // stretch block 1 along y' in its own frame
                    d[1][3] = reach * down.x / p1.x;
                    d[1][4] = reach * down.y / p1.y;
                    break;
                case 3: { // rotate block 0 so its edge meets the vertex
                    const Vec2 q = sys.blocks[1].verts[0] - sys.blocks[0].centroid;
                    d[0][2] = -reach / (q.x * down.y - q.y * down.x);
                    break;
                }
            }
            std::vector<ct::Contact> got = contacts;
            std::vector<ct::Contact> ref = contacts;
            std::vector<ct::ContactGeometry> geo(1);
            ASSERT_TRUE(certified_pass_matches(sys, geo, full, got, ref, d, params, false))
                << "trial " << trial << " ulps " << ulps;
            ++cases;
            if (ref[0].state != ct::ContactState::Open) ++closed;
        }
    }
    // Both sides of the threshold were visited.
    EXPECT_GT(closed, cases / 10);
    EXPECT_LT(closed, cases - cases / 10);
}
