#include "contact/open_close.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>

#include "par/deterministic_reduce.hpp"
#include "par/parallel_for.hpp"

namespace gdda::contact {

using block::Block;
using geom::Vec2;
using sparse::Vec6;

namespace {

/// What both halves of a contact's geometry read: the vertex p1 and the
/// edge p2 -> p3 with its length (clamped away from zero in l).
struct ContactFrame {
    const Block& bi;
    const Block& bj;
    Vec2 p1, p2, p3, edge;
    double length, l;
};

ContactFrame contact_frame(const block::BlockSystem& sys, const Contact& c) {
    const Block& bi = sys.blocks[c.bi];
    const Block& bj = sys.blocks[c.bj];
    const Vec2 p1 = bi.verts[c.vi];
    const Vec2 p2 = bj.verts[c.e1];
    const Vec2 p3 = bj.verts[c.e2];
    const Vec2 edge = p3 - p2;
    const double length = edge.norm();
    return {bi, bj, p1, p2, p3, edge, length, std::max(length, 1e-300)};
}

/// The projection parameter of the vertex onto the edge line, the record's
/// ratio. The open-contact update reads it before anything else of the
/// frame: off the span the contact cannot close.
double frame_ratio(const ContactFrame& f) {
    return f.l > 0.0 ? (f.p1 - f.p2).dot(f.edge) / (f.l * f.l) : 0.5;
}

/// The gap's gradients en_i and gn_j.
void normal_rows(const ContactFrame& f, ContactGeometry& g) {
    const double l = f.l;
    const Vec2 p1 = f.p1;
    const Vec2 p2 = f.p2;
    const Vec2 p3 = f.p3;
    const Vec6 tx1 = f.bi.tx(p1);
    const Vec6 ty1 = f.bi.ty(p1);
    const Vec6 tx2 = f.bj.tx(p2);
    const Vec6 ty2 = f.bj.ty(p2);
    const Vec6 tx3 = f.bj.tx(p3);
    const Vec6 ty3 = f.bj.ty(p3);
    // Element-wise across k, no carried dependency: a simd lowering pairs
    // up the twelve divisions without touching any element's bits.
#ifdef _OPENMP
#pragma omp simd
#endif
    for (int k = 0; k < 6; ++k) {
        g.en_i[k] = -((p2.y - p3.y) * tx1[k] + (p3.x - p2.x) * ty1[k]) / l;
        g.gn_j[k] = -((p3.y - p1.y) * tx2[k] + (p1.x - p3.x) * ty2[k] +
                      (p1.y - p2.y) * tx3[k] + (p2.x - p1.x) * ty3[k]) /
                    l;
    }
}

/// Normal half: gap0, en_i, gn_j, ratio (frame_ratio(f), passed in) and
/// length, everything an open contact's update reads.
void normal_geometry(const ContactFrame& f, double ratio, ContactGeometry& g) {
    g.length = f.length;
    // Normal gap: gap = -det(1 p1; 1 p2; 1 p3) / l, positive outside the
    // CCW block bj. Gradients follow from the determinant's linearity.
    g.gap0 = -geom::orient2d(f.p2, f.p3, f.p1) / f.l;
    g.ratio = ratio;
    normal_rows(f, g);
}

/// Shear half: es_i and gs_j, the tangential offset of the vertex relative
/// to its foot point on the edge, measured along the edge direction.
void shear_geometry(const ContactFrame& f, ContactGeometry& g) {
    const Vec2 t = f.edge / f.l;
    const double r = geom::closest_param_on_segment(f.p2, f.p3, f.p1);
    const Vec2 p0 = f.p2 + f.edge * r;
    const Vec6 tx1 = f.bi.tx(f.p1);
    const Vec6 ty1 = f.bi.ty(f.p1);
    const Vec6 tx0 = f.bj.tx(p0);
    const Vec6 ty0 = f.bj.ty(p0);
    for (int k = 0; k < 6; ++k) {
        g.es_i[k] = t.x * tx1[k] + t.y * ty1[k];
        g.gs_j[k] = -(t.x * tx0[k] + t.y * ty0[k]);
    }
}

/// Relative rounding slack of the certificate, on the magnitude of the
/// quantities the full evaluation's dn sums: that sum's worst-case
/// rounding, the gap's division, the edge-length bounds and the
/// certificate's own evaluation come to about 45 units of 2^-53
/// (docs/CONTACTS.md, "The open-close certificate").
constexpr double kCertSlack = 64.0 * std::numeric_limits<double>::epsilon();
/// Absolute slack for results in the subnormal range, where rounding
/// errors are absolute rather than relative.
constexpr double kCertFloor = 64.0 * std::numeric_limits<double>::denorm_min();

/// True when the dn the full evaluation would compute for the open contact
/// of vertex p1 against edge p2 -> p3, under an increment that moves its
/// blocks by mi and mj, is certainly >= -open_tol: the contact cannot
/// close. A common translation cancels exactly from the relative normal
/// motion, which is at most reach + 2 (s / l) spin_j with s bounding
/// |p3 - p1| + |p1 - p2| and the rows' magnitude. The test is the
/// condition multiplied by the edge length l, which lies between the
/// edge's max and 1-norms: no square root, no division. Any NaN or
/// infinity fails it, and so does an edge too short for its square to be
/// a normal number.
bool cannot_close(Vec2 p1, Vec2 p2, Vec2 p3, const BlockMotion& mi, const BlockMotion& mj,
                  double open_tol) {
    const Vec2 e = p3 - p2;
    const Vec2 r = p1 - p2;
    const double l1 = std::abs(e.x) + std::abs(e.y);
    const double linf = std::max(std::abs(e.x), std::abs(e.y));
    const double o = geom::orient2d(p2, p3, p1); // gap0 = -o / l
    const double reach = std::abs(mi.u - mj.u) + std::abs(mi.v - mj.v) + mi.spin + mj.spin;
    const double a = open_tol - reach;
    const double s = l1 + std::abs(r.x) + std::abs(r.y);
    const double wi = std::abs(mi.u) + std::abs(mi.v) + mi.spin;
    const double wj = std::abs(mj.u) + std::abs(mj.v) + mj.spin;
    const double y = 2.0 * mj.spin + kCertSlack * (wi + 2.0 * wj);
    const double t = -o - kCertSlack * std::abs(o) + a * (a >= 0.0 ? linf : l1) -
                     kCertSlack * (open_tol + reach) * l1 - s * y;
    return linf >= 1e-150 && t >= kCertFloor;
}

/// One parallel pass over the blocks' vertices: out[b] for every block b
/// under the increment d. Each block's reach from its centroid is
/// recomputed in every pass rather than kept for the step: it costs one
/// vertex scan per pass, and no per-block state has to follow the vertices.
void block_motion(const block::BlockSystem& sys, const BlockVec& d,
                  std::span<BlockMotion> out) {
    assert(out.size() == sys.blocks.size());
    par::parallel_for(sys.blocks.size(), 64, [&](std::size_t b) {
        const Block& blk = sys.blocks[b];
        // rad bounds |X| and |Y| exactly as tx/ty compute them, so every
        // vertex's rotation and strain displacement (-Y r0 + X ex + Y g/2,
        // X r0 + Y ey + X g/2) has 1-norm at most rad (2|r0| + |ex| + |ey|
        // + |g|).
        double rad = 0.0;
        for (const Vec2 p : blk.verts)
            rad = std::max({rad, std::abs(p.x - blk.centroid.x), std::abs(p.y - blk.centroid.y)});
        const Vec6& db = d[b];
        out[b] = {db[0], db[1],
                  rad * (2.0 * std::abs(db[2]) + std::abs(db[3]) + std::abs(db[4]) +
                         std::abs(db[5]))};
    });
}

/// An open contact that stays open: prev_state Open, no switch, last_gap
/// +0. Written only where a field differs, so a contact that was already
/// in that state is read and not written.
void stay_open(Contact& c) {
    if (c.prev_state != ContactState::Open || c.p1 != 0 || c.p2 != 0 ||
        std::bit_cast<std::uint64_t>(c.last_gap) != 0) {
        c.prev_state = ContactState::Open;
        c.p1 = 0;
        c.p2 = 0;
        c.last_gap = 0.0;
    }
}

} // namespace

ContactGeometry init_contact_geometry(const block::BlockSystem& sys, const Contact& c) {
    const ContactFrame f = contact_frame(sys, c);
    ContactGeometry g;
    normal_geometry(f, frame_ratio(f), g);
    shear_geometry(f, g);
    return g;
}

std::vector<ContactGeometry> contact_geometry(const block::BlockSystem& sys,
                                              std::span<const Contact> contacts) {
    std::vector<ContactGeometry> out(contacts.size());
    par::parallel_for(contacts.size(),
                      [&](std::size_t i) { out[i] = init_contact_geometry(sys, contacts[i]); });
    return out;
}

double init_all_contacts(const block::BlockSystem& sys, std::span<const Contact> contacts,
                         std::span<ContactGeometry> out, simt::KernelCost* cost) {
    assert(out.size() == contacts.size());
    // One independent geometry computation per closed contact (the paper's
    // per-class initialization kernels), folded with the deepest on-span
    // penetration: a max from +0, exact in any grouping.
    const double entry_pen = par::exact_reduce<double>(
        contacts.size(),
        [&](std::size_t begin, std::size_t end) {
            double pen = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                if (contacts[i].state == ContactState::Open) continue;
                const ContactGeometry& g = out[i] = init_contact_geometry(sys, contacts[i]);
                if (g.ratio > -0.01 && g.ratio < 1.01) pen = std::max(pen, -g.gap0);
            }
            return pen;
        },
        [](double x, double y) { return std::max(x, y); });
    if (cost) simt::record_kernel(cost, contact_init_cost(contacts.size()));
    return entry_pen;
}

simt::KernelCost contact_init_cost(std::size_t count) {
    simt::KernelCost kc;
    kc.name = "contact_init";
    const double m = static_cast<double>(count);
    kc.flops = m * 180.0;
    kc.bytes_coalesced = m * (sizeof(Contact) + sizeof(ContactGeometry));
    kc.bytes_texture = m * 6.0 * sizeof(double); // vertex position fetches
    kc.depth = 10;
    // Classified pipeline: VE / VV1 / VV2 each run a uniform kernel, so
    // only residual divergence remains (measured in bench_class_divergence).
    kc.branch_slots = m / 4.0;
    kc.divergent_slots = 0.05 * kc.branch_slots;
    kc.launches = 3;
    return kc;
}

OpenCloseResult update_contact_states(const block::BlockSystem& sys,
                                      std::span<ContactGeometry> geo,
                                      std::vector<Contact>& contacts, const BlockVec& d,
                                      std::span<BlockMotion> motion,
                                      const OpenCloseParams& params, simt::KernelCost* cost) {
    block_motion(sys, d, motion);
    // Every contact updates only itself; the reductions (integer counts and
    // a max from +0) are exact in any grouping, so the result is bitwise
    // identical for any team size.
    auto update = [&](OpenCloseResult& res, std::size_t k) {
        Contact& c = contacts[k];
        const ContactState old = c.state;
        ContactState next;
        double dn;
        double ratio;

        // A vertex whose projection falls outside the edge span has its gap
        // measured to the *extended* line; treating that as penetration
        // makes corner contacts flip open/lock forever — and a *closed*
        // contact whose vertex slides past the edge end would keep a spring
        // with a huge phantom stretch and detonate. Open both cases (real
        // DDA transfers such contacts to the neighboring edge, which the
        // next step's detection re-establishes).
        // Closing demands the vertex genuinely projects onto the edge and a
        // physically plausible depth; an already-closed contact survives a
        // wider band until the vertex clearly leaves the span.
        if (old == ContactState::Open) {
            // The certificate did not hold (the loop below tests it). One
            // frame serves the span test and, on the span, the rest of the
            // normal half.
            const ContactFrame f = contact_frame(sys, c);
            ratio = frame_ratio(f);
            if (!(ratio > -0.01 && ratio < 1.01)) { // exact: closing demands the span
                stay_open(c);
                return;
            }
            // The rest of the normal half, evaluated here; the contact gets
            // a record when it closes.
            ContactGeometry g;
            normal_geometry(f, ratio, g);
            dn = g.gap0 + g.en_i.dot(d[c.bi]) + g.gn_j.dot(d[c.bj]);
            const bool closing_ok = dn < -params.open_tol && dn > -params.max_closing_depth;
            next = closing_ok ? ContactState::Lock : ContactState::Open;
            if (closing_ok) {
                shear_geometry(f, g);
                geo[k] = g;
            }
        } else {
            const ContactGeometry& g = geo[k];
            const block::JointMaterial& jm =
                sys.joint_between(sys.blocks[c.bi], sys.blocks[c.bj]);
            dn = g.gap0 + g.en_i.dot(d[c.bi]) + g.gn_j.dot(d[c.bj]);
            const double ds = c.shear_disp + g.es_i.dot(d[c.bi]) + g.gs_j.dot(d[c.bj]);
            ratio = g.ratio;
            // Tension cut: a closed contact may carry joint tensile
            // strength before it opens.
            const double tension_gap = jm.tension * g.length / params.penalty;
            const bool left_span = g.ratio < -0.25 || g.ratio > 1.25;
            if (dn > params.open_tol + tension_gap || left_span) {
                next = ContactState::Open;
            } else {
                const double normal_force = std::max(-params.penalty * dn, 0.0);
                const double friction_limit =
                    normal_force *
                        std::tan(jm.friction_deg * std::numbers::pi_v<double> / 180.0) +
                    jm.cohesion * g.length;
                const double shear_force = params.shear_penalty * ds;
                if (old == ContactState::Lock && std::abs(shear_force) > friction_limit) {
                    next = ContactState::Slide;
                    c.slide_sign = shear_force >= 0.0 ? 1.0 : -1.0;
                } else if (old == ContactState::Slide &&
                           std::abs(shear_force) > 0.9 * friction_limit) {
                    next = ContactState::Slide; // re-lock only with a 10% margin
                    c.slide_sign = shear_force >= 0.0 ? 1.0 : -1.0;
                } else {
                    next = ContactState::Lock;
                }
            }
        }
        const bool on_span = ratio > -0.05 && ratio < 1.05;

        c.p1 = static_cast<std::int8_t>(int(next != ContactState::Open) -
                                        int(old != ContactState::Open));
        c.p2 = static_cast<std::int8_t>(int(next == ContactState::Lock) -
                                        int(old == ContactState::Lock));
        ++res.evaluated;
        if (next != old) {
            ++res.state_changes;
            ++res.transitions[static_cast<int>(old)][static_cast<int>(next)];
        }
        if (next != ContactState::Open) ++res.closed;
        c.prev_state = old;
        c.state = next;
        // Friction limits derive a normal force from this gap; off-span
        // evaluations are extended-line artifacts and must not contribute.
        // Only closed contacts' gaps have a reader: an open one holds +0.
        c.last_gap = next != ContactState::Open && on_span ? dn : 0.0;

        // Interpenetration is measured on closed contacts only: their dn is
        // the actual spring stretch. Open contacts with deep negative line
        // gaps are corner artifacts the closing gate already rejects.
        if (next != ContactState::Open && ratio > -0.01 && ratio < 1.01)
            res.max_penetration = std::max(res.max_penetration, -dn);
    };
    const OpenCloseResult res = par::exact_reduce<OpenCloseResult>(
        contacts.size(),
        [&](std::size_t begin, std::size_t end) {
            OpenCloseResult part;
            // An open contact whose gap is certified stays open without
            // its frame, rows, d gathers or, when it already is in the
            // stay-open state, any write. The certificate reads only the
            // three vertices and the two motions; testing it here rather
            // than inside update keeps the skip a tight loop (a pass over
            // the all-open lattice takes about a quarter less time). On a rigidly
            // moving scene it holds for every contact, so the span's
            // square root and division are never paid there.
            for (std::size_t k = begin; k < end; ++k) {
                Contact& c = contacts[k];
                if (c.state == ContactState::Open &&
                    cannot_close(sys.blocks[c.bi].verts[c.vi], sys.blocks[c.bj].verts[c.e1],
                                 sys.blocks[c.bj].verts[c.e2], motion[c.bi], motion[c.bj],
                                 params.open_tol))
                    stay_open(c);
                else
                    update(part, k);
            }
            return part;
        },
        [](const OpenCloseResult& x, const OpenCloseResult& y) {
            OpenCloseResult sum;
            sum.state_changes = x.state_changes + y.state_changes;
            sum.closed = x.closed + y.closed;
            sum.evaluated = x.evaluated + y.evaluated;
            for (int from = 0; from < 3; ++from)
                for (int to = 0; to < 3; ++to)
                    sum.transitions[from][to] = x.transitions[from][to] + y.transitions[from][to];
            sum.max_penetration = std::max(x.max_penetration, y.max_penetration);
            return sum;
        });

    if (cost) {
        simt::KernelCost kc;
        kc.name = "open_close_update";
        const double m = static_cast<double>(contacts.size());
        kc.flops = m * 60.0;
        kc.bytes_coalesced = m * (sizeof(Contact) + sizeof(ContactGeometry));
        kc.bytes_texture = m * 24.0 * sizeof(double); // d[bi], d[bj] gathers
        kc.depth = 8;
        kc.branch_slots = m;
        kc.divergent_slots = 0.18 * m; // restructured branches (section III.D)
        kc.launches = 2;
        simt::record_kernel(cost, kc);
    }
    return res;
}

void commit_contact_springs(std::span<const ContactGeometry> geo,
                            std::vector<Contact>& contacts, const BlockVec& d) {
    par::parallel_for(contacts.size(), [&](std::size_t k) {
        Contact& c = contacts[k];
        const ContactGeometry& g = geo[k];
        switch (c.state) {
            case ContactState::Lock:
                c.shear_disp = c.shear_disp + g.es_i.dot(d[c.bi]) + g.gs_j.dot(d[c.bj]);
                break;
            case ContactState::Slide:
            case ContactState::Open:
                // A bit test, so a -0 is still rewritten to +0.
                if (std::bit_cast<std::uint64_t>(c.shear_disp) != 0) c.shear_disp = 0.0;
                break;
        }
    });
}

} // namespace gdda::contact
