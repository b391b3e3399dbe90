// Contact module: broad phase (triangular vs balanced), narrow phase
// classification (VE/VV1/VV2), contact geometry gradients, transfer, and the
// open-close state machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <set>

#include "contact/broad_phase.hpp"
#include "contact/narrow_phase.hpp"
#include "contact/open_close.hpp"
#include "contact/transfer.hpp"
#include "models/slope.hpp"
#include "models/stacks.hpp"

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

TEST(OpenClose, PenetrationClosesContact) {
    bl::BlockSystem sys = two_squares(0.001);
    ct::Contact c;
    c.bi = 1; c.vi = 0; c.bj = 0; c.e1 = 2; c.e2 = 3;
    std::vector<ct::Contact> contacts{c};
    const auto geo = ct::init_all_contacts(sys, contacts);

    // Displacement pushing the upper block down by 0.002 -> penetration.
    gdda::sparse::BlockVec d(2);
    d[1][1] = -0.002;
    ct::OpenCloseParams params{.penalty = 1e9, .shear_penalty = 1e9, .open_tol = 0.0};
    const auto res = ct::update_contact_states(sys, geo, contacts, d, params);
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
    const auto geo = ct::init_all_contacts(sys, contacts);

    gdda::sparse::BlockVec d(2);
    d[1][1] = +0.01; // moving away
    ct::OpenCloseParams params{.penalty = 1e9, .shear_penalty = 1e9, .open_tol = 0.0};
    const auto res = ct::update_contact_states(sys, geo, contacts, d, params);
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
    const auto geo = ct::init_all_contacts(sys, contacts);

    gdda::sparse::BlockVec d(2);
    d[1][0] = 0.01;   // large tangential motion
    d[1][1] = -1e-5;  // slight compression keeps it closed
    ct::OpenCloseParams params{.penalty = 1e9, .shear_penalty = 1e9, .open_tol = 0.0};
    ct::update_contact_states(sys, geo, contacts, d, params);
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
    const auto geo = ct::init_all_contacts(sys, contacts);
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
