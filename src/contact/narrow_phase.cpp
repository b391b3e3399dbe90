#include "contact/narrow_phase.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "par/deterministic_reduce.hpp"
#include "par/parallel_for.hpp"

namespace gdda::contact {

using block::Block;
using geom::Vec2;

namespace {

/// `wedge`, when given, receives |u1 + u2| before normalization: the
/// bisector's motion sensitivity scales with its inverse.
Vec2 outward_bisector(const Block& b, int vi, double* wedge = nullptr) {
    const int n = static_cast<int>(b.verts.size());
    const Vec2 p = b.verts[vi];
    const Vec2 prev = b.verts[(vi + n - 1) % n];
    const Vec2 next = b.verts[(vi + 1) % n];
    const Vec2 u1 = (prev - p).normalized();
    const Vec2 u2 = (next - p).normalized();
    Vec2 bis = -(u1 + u2);
    if (wedge) *wedge = bis.norm();
    if (bis.norm2() < 1e-20) {
        // Straight (collinear) vertex: outward normal of the edge (CCW
        // polygon => outward is the right-hand normal of the direction).
        bis = -(next - p).perp();
    }
    return bis.normalized();
}

Vec2 edge_outward_normal(const Block& b, int e1) {
    const int n = static_cast<int>(b.verts.size());
    const Vec2 a = b.verts[e1];
    const Vec2 c = b.verts[(e1 + 1) % n];
    // CCW polygon: interior lies left of a->c, so outward is the right normal.
    return (-(c - a).perp()).normalized();
}

/// Signed gap of point p against edge e1 of block b: positive outside.
double edge_gap(const Block& b, int e1, Vec2 p) {
    const int n = static_cast<int>(b.verts.size());
    const Vec2 a = b.verts[e1];
    const Vec2 c = b.verts[(e1 + 1) % n];
    const double len = (c - a).norm();
    if (len <= 0.0) return 0.0;
    return -geom::orient2d(a, c, p) / len;
}

using VvCandidate = NarrowPhaseWorkspace::VvCandidate;
using Chunk = NarrowPhaseWorkspace::Chunk;
using Emitted = NarrowPhaseWorkspace::Emitted;
using PairMemo = NarrowPhaseWorkspace::PairMemo;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Candidate pairs per parallel chunk. Chunk boundaries are a pure function
/// of the pair count, never of the team size, and the output is sorted
/// canonically afterwards, so the width only trades dispatch overhead
/// against load balance.
constexpr std::size_t kPairChunk = 256;

/// The canonical contact order: key() first, then the full identity.
/// Contacts equal under it come from one pair's single visit (see
/// dedupe_pair), and stable sorting keeps them in emission order.
bool canonical_less(const Emitted& x, const Emitted& y) {
    const std::uint64_t kx = x.key();
    const std::uint64_t ky = y.key();
    if (kx != ky) return kx < ky;
    return std::tie(x.kind, x.bi, x.vi, x.bj, x.e1, x.e2) <
           std::tie(y.kind, y.bi, y.vi, y.bj, y.e1, y.e2);
}

/// Stable sort of one block's contacts: insertion sort for the usual
/// handful, std::stable_sort beyond that.
void sort_bucket(std::vector<Emitted>::iterator first, std::vector<Emitted>::iterator last) {
    if (last - first > 32) {
        std::stable_sort(first, last, canonical_less);
        return;
    }
    for (auto it = first + 1; it < last; ++it) {
        if (!canonical_less(*it, *(it - 1))) continue;
        const Emitted c = *it;
        auto hole = it;
        for (; hole > first && canonical_less(c, *(hole - 1)); --hole) *hole = *(hole - 1);
        *hole = c;
    }
}

/// One stable counting-sort pass: `dst` lists `src` ordered by bucket(i).
template <typename Bucket>
void counting_pass(const std::vector<std::uint32_t>& src, std::vector<std::uint32_t>& dst,
                   std::vector<std::uint32_t>& offsets, std::size_t buckets, Bucket bucket) {
    offsets.assign(buckets + 1, 0);
    for (std::uint32_t i : src) ++offsets[bucket(i) + 1];
    for (std::size_t b = 0; b < buckets; ++b) offsets[b + 1] += offsets[b];
    dst.resize(src.size());
    for (std::uint32_t i : src) dst[offsets[bucket(i)]++] = i;
}

std::uint64_t pair_id(const BlockPair& p) {
    const auto lo = static_cast<std::uint32_t>(std::min(p.a, p.b));
    const auto hi = static_cast<std::uint32_t>(std::max(p.a, p.b));
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// The pairs the narrow phase visits, each once, in strictly increasing
/// pair_id. Broad-phase output is already strictly (a, b)-sorted, which one
/// pass confirms, and is visited as given. Any other order (a classified
/// schedule, a hand-built list) goes through a two-pass stable counting
/// sort on (lo, hi) into ws.visit, keeping the first occurrence of a
/// repeated pair.
std::span<const BlockPair> visit_order(std::span<const BlockPair> pairs, std::size_t blocks,
                                       NarrowPhaseWorkspace& ws) {
    bool strictly_sorted = true;
    for (std::size_t i = 1; i < pairs.size() && strictly_sorted; ++i)
        strictly_sorted = pair_id(pairs[i - 1]) < pair_id(pairs[i]);
    if (strictly_sorted) return pairs;

    ws.order.resize(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) ws.order[i] = static_cast<std::uint32_t>(i);
    counting_pass(ws.order, ws.order_tmp, ws.offsets, blocks,
                  [&](std::uint32_t i) { return pair_id(pairs[i]) & 0xffffffffu; });
    counting_pass(ws.order_tmp, ws.order, ws.offsets, blocks,
                  [&](std::uint32_t i) { return pair_id(pairs[i]) >> 32; });
    ws.visit.clear();
    for (std::uint32_t i : ws.order)
        if (ws.visit.empty() || pair_id(ws.visit.back()) != pair_id(pairs[i]))
            ws.visit.push_back(pairs[i]);
    return ws.visit;
}

/// Canonical order and key dedupe of one pair's contacts, the tail of `cs`
/// from `first`. A key names both blocks, so equal keys only ever come
/// from one pair's visit (the distance pass and the containment safety net
/// can both report the same vertex-edge contact, with different
/// edge_ratio). The stable sort keeps them in emission order and the first,
/// canonically least, survives, with its ratio provenance.
void dedupe_pair(std::vector<Emitted>& cs, std::size_t first) {
    if (cs.size() - first < 2) return;
    sort_bucket(cs.begin() + static_cast<std::ptrdiff_t>(first), cs.end());
    std::size_t kept = first + 1;
    for (std::size_t i = first + 1; i < cs.size(); ++i) {
        if (cs[i].key() == cs[kept - 1].key()) continue;
        if (kept != i) cs[kept] = cs[i];
        ++kept;
    }
    cs.resize(kept);
}

/// Chunk-local histogram of the chunk's contacts over its own bi range.
/// A range much wider than the chunk's output (a scene whose block
/// numbering scatters neighbours) marks the chunk wide instead.
void chunk_histogram(Chunk& o, const std::vector<Emitted>& cs) {
    o.hist.clear();
    o.wide = false;
    if (cs.empty()) return;
    std::int32_t lo = cs.front().bi;
    std::int32_t hi = lo;
    for (const Emitted& c : cs) {
        lo = std::min(lo, c.bi);
        hi = std::max(hi, c.bi);
    }
    const std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
    if (span > 4 * cs.size() + 64) {
        o.wide = true;
        return;
    }
    o.bi_lo = lo;
    o.hist.assign(span, 0);
    for (const Emitted& c : cs) ++o.hist[c.bi - lo];
}

// ---------------------------------------------------------------------------
// Certified margins (docs/CONTACTS.md, "The narrow-phase memo"). Every
// decision of a pair's judgments compares a quantity q against a threshold.
// When every vertex of the two blocks moves by at most δ around a common
// translation, q moves by at most lip·δ, so |q - threshold| / lip is the
// motion the decision withstands: its margin, in the units of δ.

/// A decision and its margin.
struct Held {
    bool value;
    double margin;
};

Held operator!(Held h) { return {!h.value, h.margin}; }

/// a && b. A false conjunction stays false while any false conjunct does,
/// so the most robust false conjunct holds it.
Held both(Held a, Held b) {
    if (a.value && b.value) return {true, std::min(a.margin, b.margin)};
    if (!a.value && !b.value) return {false, std::max(a.margin, b.margin)};
    return {false, a.value ? b.margin : a.margin};
}

/// a || b, the dual rule.
Held either(Held a, Held b) { return !both(!a, !b); }

/// Margin of an AABB membership test: the distance from p to the deciding
/// box side, halved (p and the box's extreme vertices each move by δ). The
/// deciding side is the nearest one when p is inside and the farthest
/// crossed one when it is not; either way |min of the four side gaps|.
Held in_box(const geom::Aabb& box, Vec2 p) {
    const double gap = std::min(std::min(p.x - box.lo.x, box.hi.x - p.x),
                                std::min(p.y - box.lo.y, box.hi.y - p.y));
    return {box.contains(p), std::abs(gap) * 0.5};
}

/// Vertex p within rho of edge (a, c), seen in the edge's frame: s = t·len
/// along it and h = turn / len across it, turn = orient2d(a, c, p). Both,
/// and every threshold the judgments put on them (tend·len, (1 - tend)·len,
/// a fixed fraction of len), move by at most lip·δ with
/// lip = 5 + 4|p - a| / len <= 9 + 4 rho / len, since |p - a| <= len + rho.
/// A threshold thr in (0, 1) on the clamped t decides as on the unclamped
/// one, and |t - thr| never exceeds the unclamped distance, so margins
/// taken on the clamped t are conservative. `reach` is the edge's
/// 1 / (len·lip) = 1 / (9 len + 4 rho), computed once per call.
struct EdgeFrame {
    double per_t;    ///< margin per unit of |t - thr|: len / lip
    double per_turn; ///< margin per unit of |turn|: 1 / (len·lip)

    EdgeFrame(double len, double reach) : per_t(len * len * reach), per_turn(reach) {}
    /// lo < t < hi, lo < hi: one threshold decides either way, the nearer
    /// one when t is inside, the crossed one when it is not.
    [[nodiscard]] Held within(double t, double lo, double hi) const {
        const double gap = std::min(t - lo, hi - t);
        return {t > lo && t < hi, std::abs(gap) * per_t};
    }
    /// t <= thr.
    [[nodiscard]] Held at_most(double t, double thr) const {
        return {t <= thr, std::abs(t - thr) * per_t};
    }
    /// turn > 0.
    [[nodiscard]] Held left(double turn) const {
        return {turn > 0.0, std::abs(turn) * per_turn};
    }
};

/// Motion sensitivity of edge_gap(b, e, p), the signed distance from p to
/// the edge's line: 2 + 4|p - a| / len.
double gap_lip(const Block& b, int e, Vec2 p) {
    const int n = static_cast<int>(b.verts.size());
    const Vec2 a = b.verts[e];
    const double len = (b.verts[(e + 1) % n] - a).norm();
    return len > 0.0 ? 2.0 + 4.0 * (p - a).norm() / len : kInf;
}

} // namespace

bool ve_angle_admissible(const Block& bi, int vi, const Block& bj, int e1) {
    const Vec2 bis = outward_bisector(bi, vi);
    const Vec2 nrm = edge_outward_normal(bj, e1);
    // Vertex must point *into* the face: bisector against outward normal.
    return bis.dot(nrm) < -0.1;
}

void NarrowPhaseWorkspace::drop_memo() {
    have_memo = false;
    have_schedule = false;
    memo.clear();
    canon.clear();
}

void narrow_phase(const block::BlockSystem& sys, std::span<const BlockPair> pairs,
                  double rho, NarrowPhaseWorkspace& ws, NarrowPhaseResult& out,
                  simt::KernelCost* cost, bool schedule, bool emit_steady) {
    const std::size_t blocks = sys.size();
    bool same_layout = ws.first_vert.size() == blocks + 1;
    ws.first_vert.resize(blocks + 1);
    ws.first_vert[0] = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::uint32_t next =
            ws.first_vert[b] + static_cast<std::uint32_t>(sys.blocks[b].verts.size());
        same_layout = same_layout && ws.first_vert[b + 1] == next;
        ws.first_vert[b + 1] = next;
    }
    const std::size_t nverts = ws.first_vert[blocks];
    auto vert = [&](std::int32_t b, int v) {
        return ws.first_vert[b] + static_cast<std::size_t>(v);
    };
    // A memo is only comparable on the same vertex layout and search distance.
    if (!same_layout || rho != ws.rho || ws.ref_verts.size() != nverts) {
        ws.have_memo = false;
        ws.memo.clear();
    }

    const std::span<const BlockPair> visit = visit_order(pairs, blocks, ws);
    const std::size_t m = visit.size();

    // Motion since the reference positions, per block: the shift of vertex
    // 0 and every vertex's deviation from it. A pair's blocks then moved
    // by at most `motion` around their mean shift.
    auto motion = [&](const BlockPair& p) {
        return 0.5 * (ws.shift[p.a] - ws.shift[p.b]).norm() +
               std::max(ws.deviation[p.a], ws.deviation[p.b]);
    };
    auto coord_fold = [](double x, double y) { return std::max(x, y); };
    ws.source.assign(m, -1);
    bool aligned = false;
    std::size_t rebuilt = m;
    double slack = 0.0;
    if (ws.have_memo) {
        ws.shift.resize(blocks);
        ws.deviation.resize(blocks);
        const double coord = par::exact_reduce<double>(
            blocks,
            [&](std::size_t b0, std::size_t b1) {
                double mx = 0.0;
                for (std::size_t b = b0; b < b1; ++b) {
                    const std::vector<Vec2>& vs = sys.blocks[b].verts;
                    const Vec2* ref = ws.ref_verts.data() + ws.first_vert[b];
                    const Vec2 s = vs.empty() ? Vec2{} : vs[0] - ref[0];
                    double dev = 0.0;
                    for (std::size_t v = 0; v < vs.size(); ++v) {
                        dev = std::max(dev, ((vs[v] - ref[v]) - s).norm());
                        mx = std::max({mx, std::abs(vs[v].x), std::abs(vs[v].y)});
                    }
                    ws.shift[b] = s;
                    ws.deviation[b] = dev;
                }
                return mx;
            },
            coord_fold);
        ws.coord_max = std::max(ws.coord_max, coord);
        // Rounding of the decisions at both ends and of the motion bound,
        // each a few ulps of the largest coordinate (docs/CONTACTS.md).
        slack = 32.0 * std::numeric_limits<double>::epsilon() * (ws.coord_max + rho);

        aligned = ws.memo.size() == m;
        for (std::size_t k = 0; k < m && aligned; ++k)
            aligned = ws.memo[k].a == visit[k].a && ws.memo[k].b == visit[k].b;
        if (aligned) {
            for (std::size_t k = 0; k < m; ++k) ws.source[k] = static_cast<std::int32_t>(k);
        } else {
            // Both lists are strictly increasing in pair_id: one merge.
            std::size_t j = 0;
            for (std::size_t k = 0; k < m; ++k) {
                const std::uint64_t id = pair_id(visit[k]);
                while (j < ws.memo.size() && pair_id({ws.memo[j].a, ws.memo[j].b}) < id) ++j;
                if (j < ws.memo.size() && ws.memo[j].a == visit[k].a && ws.memo[j].b == visit[k].b)
                    ws.source[k] = static_cast<std::int32_t>(j);
            }
        }
        rebuilt = par::exact_reduce<std::size_t>(
            m,
            [&](std::size_t k0, std::size_t k1) {
                std::size_t count = 0;
                for (std::size_t k = k0; k < k1; ++k) {
                    std::int32_t& j = ws.source[k];
                    if (j >= 0 && !(motion(visit[k]) + ws.memo[j].offset + slack <
                                    ws.memo[j].radius))
                        j = -1;
                    count += j < 0 ? 1 : 0;
                }
                return count;
            },
            [](std::size_t x, std::size_t y) { return x + y; });
    }
    ws.memo_stats.pairs_reused += m - rebuilt;
    ws.memo_stats.pairs_rebuilt += rebuilt;

    // Every contact leaves through the canonical list: its identity from
    // the memo, its edge_ratio recomputed from the current positions with
    // the distance pass's own expression.
    auto emit = [&]() {
        out.contacts.resize(ws.canon.size());
        par::parallel_for(ws.canon.size(), par::kDefaultGrain, [&](std::size_t i) {
            const Emitted& e = ws.canon[i];
            Contact c;
            c.kind = e.kind;
            c.bi = e.bi;
            c.vi = e.vi;
            c.bj = e.bj;
            c.e1 = e.e1;
            c.e2 = e.e2;
            c.edge_ratio = e.edge_ratio(sys);
            out.contacts[i] = c;
        });
    };
    auto price = [&]() {
        // The schedule statistics read only the pair sequence and the
        // blocks' vertex counts. A list the memo found aligned (which
        // implies the same vertex layout) that is also the caller's own,
        // already sorted list, is element-wise the list the kept
        // statistics describe.
        const bool input_is_visit = visit.data() == pairs.data();
        if (schedule && ws.have_schedule && aligned && input_is_visit) {
            if (cost) simt::record_kernel(cost, pair_schedule_cost(pairs.size()));
        } else if (schedule) {
            ws.schedule = pair_schedule_stats(sys, pairs, cost);
        }
        ws.have_schedule = schedule && input_is_visit;
        if (!cost) return;
        const PairScheduleStats* sched = schedule ? &ws.schedule : nullptr;
        simt::KernelCost kc;
        kc.name = "narrow_phase";
        const double tests = static_cast<double>(ws.distance_tests);
        kc.flops = tests * 24.0 + static_cast<double>(ws.vv_candidates) * 60.0;
        kc.bytes_coalesced = static_cast<double>(pairs.size()) * 2 * sizeof(std::int32_t) +
                             static_cast<double>(ws.canon.size()) * sizeof(Contact) * 3.0;
        kc.bytes_texture = tests * 4.0 * sizeof(double); // vertex fetches, cached
        kc.depth = 16;
        // Classified pipelines: only the distance/endpoint splits diverge.
        // With a divergence-aware pair schedule, price the launch with the
        // schedule's measured warp efficiency instead of the fixed
        // mixed-population estimate (floored: the data-dependent splits
        // inside a uniform class still diverge a little).
        kc.branch_slots = tests / 8.0;
        const double divergent_fraction =
            sched ? std::clamp(sched->divergent_fraction_sorted(), 0.02, 0.5) : 0.12;
        kc.divergent_slots = divergent_fraction * kc.branch_slots;
        kc.launches = 6; // distance, classify-scan, sort, angle, compact x2
        simt::record_kernel(cost, kc);
    };

    // Steady state: the same pairs, every one reused. The last canonical
    // list is the answer; scatter, sort and angle vectors are not needed.
    out.steady = aligned && rebuilt == 0;
    if (out.steady) {
        ++ws.memo_stats.steady_calls;
        out.stats = ws.stats;
        if (emit_steady) emit();
        price();
        return;
    }

    if (rebuilt > 0) {
        // Every rebuilt pair reuses its blocks' bisectors and edge vectors,
        // so they are computed once per block, with the very expressions a
        // per-pair evaluation would use (bitwise the same values), along
        // with their reach: a unit vector v/|v| moves by at most 2|Δv|/|v|,
        // so an edge direction by 4δ/len.
        ws.bisector.resize(nverts);
        ws.edge_dir.resize(nverts);
        ws.edge_normal.resize(nverts);
        ws.bisector_reach.resize(nverts);
        ws.edge_reach.resize(nverts);
        ws.frame_reach.resize(nverts);
        par::parallel_for(blocks, par::kDefaultGrain, [&](std::size_t b) {
            const Block& blk = sys.blocks[b];
            const int n = static_cast<int>(blk.verts.size());
            const std::size_t at0 = ws.first_vert[b];
            for (int v = 0; v < n; ++v) {
                const std::size_t at = at0 + static_cast<std::size_t>(v);
                const Vec2 edge = blk.verts[(v + 1) % n] - blk.verts[v];
                const double len = edge.norm();
                ws.edge_dir[at] = edge.normalized();
                ws.edge_normal[at] = edge_outward_normal(blk, v);
                ws.edge_reach[at] = len / 4.0;
                ws.frame_reach[at] = len > 0.0 ? 1.0 / (9.0 * len + 4.0 * rho) : 0.0;
            }
            for (int v = 0; v < n; ++v) {
                const std::size_t at = at0 + static_cast<std::size_t>(v);
                const std::size_t before = at0 + static_cast<std::size_t>((v + n - 1) % n);
                double wedge = 0.0;
                ws.bisector[at] = outward_bisector(blk, v, &wedge);
                // The bisector normalizes -(u1 + u2), u1 and u2 the unit
                // vectors of the incident edges, each moving by at most
                // 1/reach: it moves by 2(1/r_before + 1/r_at)/wedge. A
                // near-straight vertex (the collinear fallback's
                // neighbourhood) or a degenerate edge is uncertified.
                const double r0 = ws.edge_reach[before];
                const double r1 = ws.edge_reach[at];
                ws.bisector_reach[at] = wedge >= 1e-3 && r0 > 0.0 && r1 > 0.0
                                            ? wedge * r0 * r1 / (2.0 * (r0 + r1))
                                            : 0.0;
            }
        });
    }
    // The judgments fold each decision's margin into a local radius and
    // hand it back to the chunk when they return.
    auto hold = [](double& radius, double margin) {
        radius = std::min(radius, margin >= 0.0 ? margin : 0.0); // NaN: uncertified
    };
    // ve_angle_admissible on the cached vectors, with its margin.
    auto admissible = [&](std::int32_t xb, int v, std::int32_t yb, int e) {
        const std::size_t at = vert(xb, v);
        const std::size_t et = vert(yb, e);
        const double g = ws.bisector[at].dot(ws.edge_normal[et]);
        // g moves by at most 1/r_b + 1/r_e <= 2 / min(r_b, r_e).
        return Held{g < -0.1, std::abs(g + 0.1) * 0.5 *
                                  std::min(ws.bisector_reach[at], ws.edge_reach[et])};
    };

    auto consider_vertex_edges = [&](Chunk& o, std::vector<Emitted>& dst, std::int32_t xb,
                                     std::int32_t yb) {
        const Block& X = sys.blocks[xb];
        const Block& Y = sys.blocks[yb];
        const geom::Aabb ybox = Y.bounds().inflated(rho);
        const int nx = static_cast<int>(X.verts.size());
        const int ny = static_cast<int>(Y.verts.size());
        double r = o.radius;
        for (int v = 0; v < nx; ++v) {
            const Vec2 pv = X.verts[v];
            const Held boxed = in_box(ybox, pv);
            hold(r, boxed.margin);
            if (!boxed.value) continue;
            for (int e = 0; e < ny; ++e) {
                ++o.distance_tests;
                const Vec2 a = Y.verts[e];
                const Vec2 c = Y.verts[(e + 1) % ny];
                const double t = geom::closest_param_on_segment(a, c, pv);
                const double dist = geom::distance(pv, a + (c - a) * t);
                hold(r, std::abs(dist - rho) / 2.0); // point-segment distance: 2δ
                if (dist >= rho) continue;
                const double len = (c - a).norm();
                const double tend = len > 0.0 ? std::min(0.45, rho / len) : 0.0;
                const double turn = geom::orient2d(a, c, pv);
                const EdgeFrame f(len, ws.frame_reach[vert(yb, e)]);
                // A vertex already *penetrating* the edge must always form a
                // VE contact, even inside the corner band: routing it to the
                // VV path can select a different (non-separating) entrance
                // edge and silently drop the penetration.
                const Held penetrating = both(f.left(turn), f.within(t, 0.002, 0.998));
                const Held band = f.within(t, tend, 1.0 - tend);
                const Held ve = either(band, penetrating);
                hold(r, ve.margin);
                if (ve.value) {
                    ++o.stats.candidates;
                    // The angle judgment filters *approaching* contacts; an
                    // already-penetrating vertex must keep its contact no
                    // matter how the wedge is oriented (fast tumbling blocks
                    // otherwise lose the contact and keep tunneling).
                    const Held dropped =
                        penetrating.value ? !penetrating : both(!penetrating, !admissible(xb, v, yb, e));
                    hold(r, dropped.margin);
                    if (dropped.value) {
                        ++o.stats.abandoned;
                        continue;
                    }
                    dst.push_back({xb, v, yb, e, (e + 1) % ny, ContactKind::VE, true});
                    ++o.stats.ve;
                } else {
                    // Near an endpoint: record a vertex-vertex candidate.
                    const Held near_start = f.at_most(t, 0.5);
                    hold(r, near_start.margin);
                    const int w = near_start.value ? e : (e + 1) % ny;
                    const double corner = geom::distance(pv, Y.verts[w]);
                    hold(r, std::abs(corner - rho) / 2.0);
                    if (corner >= rho) continue;
                    ++o.stats.candidates;
                    if (xb < yb) {
                        o.vv.push_back({xb, v, yb, w});
                    } else {
                        o.vv.push_back({yb, w, xb, v});
                    }
                }
            }
        }
        o.radius = r;
    };

    // Safety net for vertices that are already *inside* the other block
    // (deep penetration after a missed step): force a VE contact on the
    // nearest edge so the springs can push the blocks apart. The distance
    // to the boundary holds the containment verdict; the gaps between edge
    // distances hold the nearest-edge choice.
    auto consider_contained = [&](Chunk& o, std::vector<Emitted>& dst, std::int32_t xb,
                                  std::int32_t yb) {
        const Block& X = sys.blocks[xb];
        const Block& Y = sys.blocks[yb];
        const geom::Aabb ybox = Y.bounds();
        const int ny = static_cast<int>(Y.verts.size());
        double r = o.radius;
        for (int v = 0; v < static_cast<int>(X.verts.size()); ++v) {
            const Vec2 pv = X.verts[v];
            const Held boxed = in_box(ybox, pv);
            hold(r, boxed.margin);
            if (!boxed.value) continue;
            // One distance per edge serves the boundary margin, the nearest
            // edge (the first least) and the nearest edge's lead.
            o.edge_dist.resize(static_cast<std::size_t>(ny));
            int best_e = -1;
            double best_d = 1e300;
            double boundary = kInf;
            for (int e = 0; e < ny; ++e) {
                const double d =
                    geom::point_segment_distance(Y.verts[e], Y.verts[(e + 1) % ny], pv);
                o.edge_dist[e] = d;
                boundary = std::min(boundary, d);
                if (d < best_d) {
                    best_d = d;
                    best_e = e;
                }
            }
            hold(r, boundary / 2.0);
            if (!geom::contains(Y.verts, pv, 0.0)) continue;
            for (int e = 0; e < ny; ++e)
                if (e != best_e) hold(r, (o.edge_dist[e] - best_d) / 4.0);
            dst.push_back({xb, v, yb, best_e, (best_e + 1) % ny, ContactKind::VE, false});
            ++o.stats.ve;
        }
        o.radius = r;
    };

    // Angle judgment for VV candidates: parallel opposing edges -> VV1
    // (two vertex-edge contact points), otherwise VV2 (entrance edge only).
    auto judge_vv = [&](Chunk& o, std::vector<Emitted>& dst, const VvCandidate& c) {
        const Block& A = sys.blocks[c.ba];
        const Block& B = sys.blocks[c.bb];
        const int na = static_cast<int>(A.verts.size());
        const int nb = static_cast<int>(B.verts.size());
        const int a_edges[2] = {(c.va + na - 1) % na, c.va};   // edges incident to va
        const int b_edges[2] = {(c.vb + nb - 1) % nb, c.vb};

        // Look for an antiparallel edge pair (faces turned toward each
        // other). The last match wins, so it is held by its own test and
        // by every later one's. Cross and dot of two unit vectors move by
        // at most the sum of their sensitivities, 2 / (least reach) for
        // all four tests.
        int par_a = -1;
        int par_b = -1;
        Held tests[4] = {};
        int last = -1;
        const double per_unit =
            0.5 * std::min(std::min(ws.edge_reach[vert(c.ba, a_edges[0])],
                                    ws.edge_reach[vert(c.ba, a_edges[1])]),
                           std::min(ws.edge_reach[vert(c.bb, b_edges[0])],
                                    ws.edge_reach[vert(c.bb, b_edges[1])]));
        for (int i = 0; i < 4; ++i) {
            const int ea = a_edges[i / 2];
            const int eb = b_edges[i % 2];
            const Vec2 da = ws.edge_dir[vert(c.ba, ea)];
            const Vec2 db = ws.edge_dir[vert(c.bb, eb)];
            const double cross = da.cross(db);
            const double dot = da.dot(db);
            tests[i] = both(Held{std::abs(cross) < 0.05, std::abs(std::abs(cross) - 0.05) * per_unit},
                            Held{dot < 0.0, std::abs(dot) * per_unit});
            if (tests[i].value) {
                par_a = ea;
                par_b = eb;
                last = i;
            }
        }
        double& r = o.radius;
        for (int i = std::max(last, 0); i < 4; ++i) hold(r, tests[i].margin);

        if (par_a >= 0) {
            // VV1: vertex va rides on B's parallel edge and vice versa.
            const Held first = admissible(c.ba, c.va, c.bb, par_b);
            const Held second = admissible(c.bb, c.vb, c.ba, par_a);
            hold(r, first.margin);
            hold(r, second.margin);
            if (first.value) {
                dst.push_back({c.ba, c.va, c.bb, par_b, (par_b + 1) % nb, ContactKind::VV1, false});
                ++o.stats.vv1;
            }
            if (second.value) {
                dst.push_back({c.bb, c.vb, c.ba, par_a, (par_a + 1) % na, ContactKind::VV1, false});
                ++o.stats.vv1;
            }
            return;
        }

        // VV2: pick the entrance edge — the incident edge with the largest
        // signed gap to the opposing vertex (the SAT separating face). The
        // first largest wins, held by its lead over every other gap.
        double gaps[4] = {};
        double lips[4] = {};
        int pick = -1;
        double best = -1e300;
        Emitted ct{};
        ct.kind = ContactKind::VV2;
        for (int i = 0; i < 2; ++i) {
            const int eb = b_edges[i];
            gaps[i] = edge_gap(B, eb, A.verts[c.va]);
            lips[i] = gap_lip(B, eb, A.verts[c.va]);
            if (gaps[i] > best) {
                best = gaps[i];
                pick = i;
                ct.bi = c.ba;
                ct.vi = c.va;
                ct.bj = c.bb;
                ct.e1 = eb;
                ct.e2 = (eb + 1) % nb;
            }
        }
        for (int i = 2; i < 4; ++i) {
            const int ea = a_edges[i - 2];
            gaps[i] = edge_gap(A, ea, B.verts[c.vb]);
            lips[i] = gap_lip(A, ea, B.verts[c.vb]);
            if (gaps[i] > best) {
                best = gaps[i];
                pick = i;
                ct.bi = c.bb;
                ct.vi = c.vb;
                ct.bj = c.ba;
                ct.e1 = ea;
                ct.e2 = (ea + 1) % na;
            }
        }
        for (int i = 0; i < 4; ++i)
            if (i != pick) hold(r, (best - gaps[i]) / (lips[pick] + lips[i]));
        hold(r, std::abs(best - rho) / lips[pick]);
        if (best > rho) {
            ++o.stats.abandoned;
            return;
        }
        dst.push_back(ct);
        ++o.stats.vv2;
    };

    // One pair: distance and angle judgment in both directions, then its
    // VV candidates. A VV candidate comes only from its own pair (both
    // vertex-edge directions can report the same corner pair), so an exact
    // sort + unique over this pair's few candidates is the whole dedupe;
    // the same holds for the pair's contacts (dedupe_pair).
    auto run_pair = [&](Chunk& o, std::vector<Emitted>& dst, std::int32_t a, std::int32_t b) {
        const std::size_t first = dst.size();
        o.vv.clear();
        o.radius = kInf;
        consider_vertex_edges(o, dst, a, b);
        consider_vertex_edges(o, dst, b, a);
        consider_contained(o, dst, a, b);
        consider_contained(o, dst, b, a);
        std::sort(o.vv.begin(), o.vv.end());
        o.vv.erase(std::unique(o.vv.begin(), o.vv.end()), o.vv.end());
        o.vv_candidates += o.vv.size();
        for (const VvCandidate& c : o.vv) judge_vv(o, dst, c);
        dedupe_pair(dst, first);
    };

    // Pairs are independent: fixed-size chunks run in parallel, each into
    // its own persistent buffer and counters, and each ends with a
    // histogram of its output over bi. A reused pair copies its memo
    // entry. While any memo entry is read, chunks build into their spare
    // buffers and swap afterwards. On an unchanged pair list each pair
    // reads only its own record, so the memo is rewritten in place.
    const std::size_t nchunks = (m + kPairChunk - 1) / kPairChunk;
    if (ws.chunks.size() < nchunks) ws.chunks.resize(nchunks);
    std::vector<PairMemo>& next = aligned || !ws.have_memo ? ws.memo : ws.memo_next;
    next.resize(m);
    const bool read_memo = ws.have_memo;
    par::parallel_for(nchunks, 1, [&](std::size_t ci) {
        Chunk& o = ws.chunks[ci];
        const std::size_t k0 = ci * kPairChunk;
        const std::size_t k1 = std::min(m, k0 + kPairChunk);
        std::vector<Emitted>& dst = read_memo ? o.spare : o.contacts;
        dst.clear();
        o.distance_tests = 0;
        o.vv_candidates = 0;
        o.stats = {};
        for (std::size_t k = k0; k < k1; ++k) {
            const BlockPair p = visit[k];
            const std::int32_t j = ws.source[k];
            PairMemo rec{};
            if (j >= 0) {
                rec = ws.memo[j];
                const std::vector<Emitted>& held = ws.chunks[j / kPairChunk].contacts;
                const auto from = held.begin() + rec.first;
                rec.first = static_cast<std::uint32_t>(dst.size());
                dst.insert(dst.end(), from, from + rec.count);
                rec.offset += motion(p) + slack;
                o.distance_tests += rec.distance_tests;
                o.vv_candidates += rec.vv_candidates;
                o.stats.candidates += rec.candidates;
                o.stats.ve += rec.ve;
                o.stats.vv1 += rec.vv1;
                o.stats.vv2 += rec.vv2;
                o.stats.abandoned += rec.abandoned;
            } else {
                const std::size_t first = dst.size();
                const std::size_t tests0 = o.distance_tests;
                const std::size_t vv0 = o.vv_candidates;
                const ClassificationStats s0 = o.stats;
                run_pair(o, dst, p.a, p.b);
                auto u32 = [](std::size_t x) { return static_cast<std::uint32_t>(x); };
                rec.first = u32(first);
                rec.count = u32(dst.size() - first);
                rec.distance_tests = u32(o.distance_tests - tests0);
                rec.vv_candidates = u32(o.vv_candidates - vv0);
                rec.candidates = u32(o.stats.candidates - s0.candidates);
                rec.ve = u32(o.stats.ve - s0.ve);
                rec.vv1 = u32(o.stats.vv1 - s0.vv1);
                rec.vv2 = u32(o.stats.vv2 - s0.vv2);
                rec.abandoned = u32(o.stats.abandoned - s0.abandoned);
                rec.radius = o.radius;
                rec.offset = 0.0; // decided at the new reference positions
            }
            rec.a = p.a;
            rec.b = p.b;
            next[k] = rec;
        }
        chunk_histogram(o, dst);
    });
    if (read_memo)
        for (std::size_t ci = 0; ci < nchunks; ++ci)
            ws.chunks[ci].contacts.swap(ws.chunks[ci].spare);
    if (&next != &ws.memo) ws.memo.swap(next);

    // Canonical order for transfer and assembly: key, then full identity
    // (canonical_less). Keys are unique after dedupe_pair, so the result is
    // independent of the pair order — what lets the classified pair
    // schedule and hand-built lists stay bit-identical to the plain
    // broad-phase order. key() leads with bi (for fewer than 2^24 blocks),
    // so a counting sort on bi does the bulk of the work: bucket starts
    // from the chunk histograms, each chunk's cursors from the chunks
    // before it, then a parallel scatter. Each block's few contacts then
    // sort in their own bucket, in parallel.
    bool local = true;
    ws.distance_tests = 0;
    ws.vv_candidates = 0;
    ws.stats = {};
    ws.offsets.assign(blocks + 1, 0);
    for (std::size_t ci = 0; ci < nchunks; ++ci) {
        const Chunk& o = ws.chunks[ci];
        ws.distance_tests += o.distance_tests;
        ws.vv_candidates += o.vv_candidates;
        ws.stats.candidates += o.stats.candidates;
        ws.stats.ve += o.stats.ve;
        ws.stats.vv1 += o.stats.vv1;
        ws.stats.vv2 += o.stats.vv2;
        ws.stats.abandoned += o.stats.abandoned;
        local = local && !o.wide;
    }
    for (std::size_t ci = 0; ci < nchunks; ++ci) {
        const Chunk& o = ws.chunks[ci];
        if (local) {
            for (std::size_t b = 0; b < o.hist.size(); ++b)
                ws.offsets[o.bi_lo + b + 1] += o.hist[b];
        } else {
            for (const Emitted& c : o.contacts) ++ws.offsets[c.bi + 1];
        }
    }
    for (std::size_t b = 0; b < blocks; ++b) ws.offsets[b + 1] += ws.offsets[b];
    ws.canon.resize(ws.offsets[blocks]);
    ws.cursor.assign(ws.offsets.begin(), ws.offsets.end() - 1);
    if (local) {
        for (std::size_t ci = 0; ci < nchunks; ++ci) {
            Chunk& o = ws.chunks[ci];
            for (std::size_t b = 0; b < o.hist.size(); ++b) {
                const std::uint32_t count = o.hist[b];
                o.hist[b] = ws.cursor[o.bi_lo + b];
                ws.cursor[o.bi_lo + b] += count;
            }
        }
        par::parallel_for(nchunks, 1, [&](std::size_t ci) {
            Chunk& o = ws.chunks[ci];
            for (const Emitted& c : o.contacts) ws.canon[o.hist[c.bi - o.bi_lo]++] = c;
        });
    } else {
        for (std::size_t ci = 0; ci < nchunks; ++ci)
            for (const Emitted& c : ws.chunks[ci].contacts) ws.canon[ws.cursor[c.bi]++] = c;
    }
    par::parallel_for(blocks, par::kDefaultGrain, [&](std::size_t b) {
        const auto first = ws.canon.begin() + ws.offsets[b];
        const auto last = ws.canon.begin() + ws.offsets[b + 1];
        if (last - first > 1) sort_bucket(first, last);
    });

    // The current positions become the reference every offset above was
    // advanced to.
    ws.ref_verts.resize(nverts);
    const double coord = par::exact_reduce<double>(
        blocks,
        [&](std::size_t b0, std::size_t b1) {
            double mx = 0.0;
            for (std::size_t b = b0; b < b1; ++b) {
                const std::vector<Vec2>& vs = sys.blocks[b].verts;
                Vec2* ref = ws.ref_verts.data() + ws.first_vert[b];
                for (std::size_t v = 0; v < vs.size(); ++v) {
                    ref[v] = vs[v];
                    mx = std::max({mx, std::abs(vs[v].x), std::abs(vs[v].y)});
                }
            }
            return mx;
        },
        coord_fold);
    ws.coord_max = ws.have_memo ? std::max(ws.coord_max, coord) : coord;
    ws.rho = rho;
    ws.have_memo = true;

    out.stats = ws.stats;
    emit();
    price();
}

NarrowPhaseResult narrow_phase(const block::BlockSystem& sys,
                               std::span<const BlockPair> pairs, double rho,
                               simt::KernelCost* cost, bool schedule) {
    NarrowPhaseWorkspace ws;
    NarrowPhaseResult out;
    narrow_phase(sys, pairs, rho, ws, out, cost, schedule);
    return out;
}

} // namespace gdda::contact
