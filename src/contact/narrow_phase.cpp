#include "contact/narrow_phase.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "par/parallel_for.hpp"

namespace gdda::contact {

using block::Block;
using geom::Vec2;

namespace {

Vec2 outward_bisector(const Block& b, int vi) {
    const int n = static_cast<int>(b.verts.size());
    const Vec2 p = b.verts[vi];
    const Vec2 prev = b.verts[(vi + n - 1) % n];
    const Vec2 next = b.verts[(vi + 1) % n];
    const Vec2 u1 = (prev - p).normalized();
    const Vec2 u2 = (next - p).normalized();
    Vec2 bis = -(u1 + u2);
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

/// Candidate pairs per parallel chunk. Chunk boundaries are a pure function
/// of the pair count, never of the team size, and the output is sorted
/// canonically afterwards, so the width only trades dispatch overhead
/// against load balance.
constexpr std::size_t kPairChunk = 256;

/// The canonical contact order: key() first, then the full identity.
/// Contacts equal under it come from one pair's single visit (see
/// dedupe_pair), and stable sorting keeps them in emission order.
bool canonical_less(const Contact& x, const Contact& y) {
    const std::uint64_t kx = x.key();
    const std::uint64_t ky = y.key();
    if (kx != ky) return kx < ky;
    return std::tie(x.kind, x.bi, x.vi, x.bj, x.e1, x.e2) <
           std::tie(y.kind, y.bi, y.vi, y.bj, y.e1, y.e2);
}

/// Stable sort of one block's contacts: insertion sort for the usual
/// handful, std::stable_sort beyond that.
void sort_bucket(std::vector<Contact>::iterator first, std::vector<Contact>::iterator last) {
    if (last - first > 32) {
        std::stable_sort(first, last, canonical_less);
        return;
    }
    for (auto it = first + 1; it < last; ++it) {
        if (!canonical_less(*it, *(it - 1))) continue;
        const Contact c = *it;
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

/// Whether the narrow phase can visit `pairs` in input order: broad-phase
/// output is strictly (a, b)-sorted, which one pass confirms. Any other
/// order (a classified schedule, a hand-built list) gets a two-pass stable
/// counting sort on (lo, hi) into ws.order instead, which brings repeats
/// next to each other, first occurrence first, and keeps each chunk's bi
/// range narrow for the bucketing pass.
bool visit_in_input_order(std::span<const BlockPair> pairs, std::size_t blocks,
                          NarrowPhaseWorkspace& ws) {
    bool strictly_sorted = true;
    for (std::size_t i = 1; i < pairs.size() && strictly_sorted; ++i)
        strictly_sorted = pair_id(pairs[i - 1]) < pair_id(pairs[i]);
    if (strictly_sorted) return true;

    ws.order.resize(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) ws.order[i] = static_cast<std::uint32_t>(i);
    counting_pass(ws.order, ws.order_tmp, ws.offsets, blocks,
                  [&](std::uint32_t i) { return pair_id(pairs[i]) & 0xffffffffu; });
    counting_pass(ws.order_tmp, ws.order, ws.offsets, blocks,
                  [&](std::uint32_t i) { return pair_id(pairs[i]) >> 32; });
    return false;
}

/// Canonical order and key dedupe of one pair's contacts, the tail of `cs`
/// from `first`. A key names both blocks, so equal keys only ever come
/// from one pair's visit (the distance pass and the containment safety net
/// can both report the same vertex-edge contact, with different
/// edge_ratio). The stable sort keeps them in emission order and the first,
/// canonically least, survives.
void dedupe_pair(std::vector<Contact>& cs, std::size_t first) {
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
void chunk_histogram(Chunk& o) {
    o.hist.clear();
    o.wide = false;
    if (o.contacts.empty()) return;
    std::int32_t lo = o.contacts.front().bi;
    std::int32_t hi = lo;
    for (const Contact& c : o.contacts) {
        lo = std::min(lo, c.bi);
        hi = std::max(hi, c.bi);
    }
    const std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
    if (span > 4 * o.contacts.size() + 64) {
        o.wide = true;
        return;
    }
    o.bi_lo = lo;
    o.hist.assign(span, 0);
    for (const Contact& c : o.contacts) ++o.hist[c.bi - lo];
}

} // namespace

bool ve_angle_admissible(const Block& bi, int vi, const Block& bj, int e1) {
    const Vec2 bis = outward_bisector(bi, vi);
    const Vec2 nrm = edge_outward_normal(bj, e1);
    // Vertex must point *into* the face: bisector against outward normal.
    return bis.dot(nrm) < -0.1;
}

void narrow_phase(const block::BlockSystem& sys, std::span<const BlockPair> pairs,
                  double rho, NarrowPhaseWorkspace& ws, NarrowPhaseResult& out,
                  simt::KernelCost* cost, const PairScheduleStats* sched) {
    // Every pair reuses its blocks' bisectors and edge vectors, so they are
    // computed once per block, with the very expressions a per-pair
    // evaluation would use (bitwise the same values).
    const std::size_t blocks = sys.size();
    ws.first_vert.resize(blocks + 1);
    ws.first_vert[0] = 0;
    for (std::size_t b = 0; b < blocks; ++b)
        ws.first_vert[b + 1] =
            ws.first_vert[b] + static_cast<std::uint32_t>(sys.blocks[b].verts.size());
    ws.bisector.resize(ws.first_vert[blocks]);
    ws.edge_dir.resize(ws.first_vert[blocks]);
    ws.edge_normal.resize(ws.first_vert[blocks]);
    par::parallel_for(blocks, par::kDefaultGrain, [&](std::size_t b) {
        const Block& blk = sys.blocks[b];
        const int n = static_cast<int>(blk.verts.size());
        for (int v = 0; v < n; ++v) {
            const std::size_t at = ws.first_vert[b] + static_cast<std::size_t>(v);
            ws.bisector[at] = outward_bisector(blk, v);
            ws.edge_dir[at] = (blk.verts[(v + 1) % n] - blk.verts[v]).normalized();
            ws.edge_normal[at] = edge_outward_normal(blk, v);
        }
    });
    auto vert = [&](std::int32_t b, int v) {
        return ws.first_vert[b] + static_cast<std::size_t>(v);
    };
    // ve_angle_admissible on the cached vectors.
    auto admissible = [&](std::int32_t xb, int v, std::int32_t yb, int e) {
        return ws.bisector[vert(xb, v)].dot(ws.edge_normal[vert(yb, e)]) < -0.1;
    };

    auto consider_vertex_edges = [&](Chunk& o, std::int32_t xb, std::int32_t yb) {
        const Block& X = sys.blocks[xb];
        const Block& Y = sys.blocks[yb];
        const geom::Aabb ybox = Y.bounds().inflated(rho);
        const int nx = static_cast<int>(X.verts.size());
        const int ny = static_cast<int>(Y.verts.size());
        for (int v = 0; v < nx; ++v) {
            const Vec2 pv = X.verts[v];
            if (!ybox.contains(pv)) continue;
            for (int e = 0; e < ny; ++e) {
                ++o.distance_tests;
                const Vec2 a = Y.verts[e];
                const Vec2 c = Y.verts[(e + 1) % ny];
                const double t = geom::closest_param_on_segment(a, c, pv);
                const double dist = geom::distance(pv, a + (c - a) * t);
                if (dist >= rho) continue;
                const double len = (c - a).norm();
                const double tend = len > 0.0 ? std::min(0.45, rho / len) : 0.0;
                // A vertex already *penetrating* the edge must always form a
                // VE contact, even inside the corner band: routing it to the
                // VV path can select a different (non-separating) entrance
                // edge and silently drop the penetration.
                const bool penetrating =
                    geom::orient2d(a, c, pv) > 0.0 && t > 0.002 && t < 0.998;
                if ((t > tend && t < 1.0 - tend) || penetrating) {
                    ++o.stats.candidates;
                    // The angle judgment filters *approaching* contacts; an
                    // already-penetrating vertex must keep its contact no
                    // matter how the wedge is oriented (fast tumbling blocks
                    // otherwise lose the contact and keep tunneling).
                    if (!penetrating && !admissible(xb, v, yb, e)) {
                        ++o.stats.abandoned;
                        continue;
                    }
                    Contact ct;
                    ct.kind = ContactKind::VE;
                    ct.bi = xb;
                    ct.vi = v;
                    ct.bj = yb;
                    ct.e1 = e;
                    ct.e2 = (e + 1) % ny;
                    ct.edge_ratio = t;
                    o.contacts.push_back(ct);
                    ++o.stats.ve;
                } else {
                    // Near an endpoint: record a vertex-vertex candidate.
                    const int w = (t <= 0.5) ? e : (e + 1) % ny;
                    if (geom::distance(pv, Y.verts[w]) >= rho) continue;
                    ++o.stats.candidates;
                    if (xb < yb) {
                        o.vv.push_back({xb, v, yb, w});
                    } else {
                        o.vv.push_back({yb, w, xb, v});
                    }
                }
            }
        }
    };

    // Safety net for vertices that are already *inside* the other block
    // (deep penetration after a missed step): force a VE contact on the
    // nearest edge so the springs can push the blocks apart.
    auto consider_contained = [&](Chunk& o, std::int32_t xb, std::int32_t yb) {
        const Block& X = sys.blocks[xb];
        const Block& Y = sys.blocks[yb];
        const geom::Aabb ybox = Y.bounds();
        const int ny = static_cast<int>(Y.verts.size());
        for (int v = 0; v < static_cast<int>(X.verts.size()); ++v) {
            const Vec2 pv = X.verts[v];
            if (!ybox.contains(pv) || !geom::contains(Y.verts, pv, 0.0)) continue;
            int best_e = -1;
            double best_d = 1e300;
            for (int e = 0; e < ny; ++e) {
                const double d =
                    geom::point_segment_distance(Y.verts[e], Y.verts[(e + 1) % ny], pv);
                if (d < best_d) {
                    best_d = d;
                    best_e = e;
                }
            }
            Contact ct;
            ct.kind = ContactKind::VE;
            ct.bi = xb;
            ct.vi = v;
            ct.bj = yb;
            ct.e1 = best_e;
            ct.e2 = (best_e + 1) % ny;
            o.contacts.push_back(ct);
            ++o.stats.ve;
        }
    };

    // Angle judgment for VV candidates: parallel opposing edges -> VV1
    // (two vertex-edge contact points), otherwise VV2 (entrance edge only).
    auto judge_vv = [&](Chunk& o, const VvCandidate& c) {
        const Block& A = sys.blocks[c.ba];
        const Block& B = sys.blocks[c.bb];
        const int na = static_cast<int>(A.verts.size());
        const int nb = static_cast<int>(B.verts.size());
        const int a_edges[2] = {(c.va + na - 1) % na, c.va};   // edges incident to va
        const int b_edges[2] = {(c.vb + nb - 1) % nb, c.vb};

        // Look for an antiparallel edge pair (faces turned toward each other).
        int par_a = -1;
        int par_b = -1;
        for (int ea : a_edges) {
            const Vec2 da = ws.edge_dir[vert(c.ba, ea)];
            for (int eb : b_edges) {
                const Vec2 db = ws.edge_dir[vert(c.bb, eb)];
                if (std::abs(da.cross(db)) < 0.05 && da.dot(db) < 0.0) {
                    par_a = ea;
                    par_b = eb;
                }
            }
        }

        if (par_a >= 0) {
            // VV1: vertex va rides on B's parallel edge and vice versa.
            Contact c1;
            c1.kind = ContactKind::VV1;
            c1.bi = c.ba;
            c1.vi = c.va;
            c1.bj = c.bb;
            c1.e1 = par_b;
            c1.e2 = (par_b + 1) % nb;
            Contact c2 = c1;
            c2.bi = c.bb;
            c2.vi = c.vb;
            c2.bj = c.ba;
            c2.e1 = par_a;
            c2.e2 = (par_a + 1) % na;
            if (admissible(c.ba, c.va, c.bb, par_b)) {
                o.contacts.push_back(c1);
                ++o.stats.vv1;
            }
            if (admissible(c.bb, c.vb, c.ba, par_a)) {
                o.contacts.push_back(c2);
                ++o.stats.vv1;
            }
            return;
        }

        // VV2: pick the entrance edge — the incident edge with the largest
        // signed gap to the opposing vertex (the SAT separating face).
        double best = -1e300;
        Contact ct;
        ct.kind = ContactKind::VV2;
        for (int eb : b_edges) {
            const double g = edge_gap(B, eb, A.verts[c.va]);
            if (g > best) {
                best = g;
                ct.bi = c.ba;
                ct.vi = c.va;
                ct.bj = c.bb;
                ct.e1 = eb;
                ct.e2 = (eb + 1) % nb;
            }
        }
        for (int ea : a_edges) {
            const double g = edge_gap(A, ea, B.verts[c.vb]);
            if (g > best) {
                best = g;
                ct.bi = c.bb;
                ct.vi = c.vb;
                ct.bj = c.ba;
                ct.e1 = ea;
                ct.e2 = (ea + 1) % na;
            }
        }
        if (best > rho) {
            ++o.stats.abandoned;
            return;
        }
        o.contacts.push_back(ct);
        ++o.stats.vv2;
    };

    // One pair: distance and angle judgment in both directions, then its
    // VV candidates. A VV candidate comes only from its own pair (both
    // vertex-edge directions can report the same corner pair), so an exact
    // sort + unique over this pair's few candidates is the whole dedupe;
    // the same holds for the pair's contacts (dedupe_pair).
    auto run_pair = [&](Chunk& o, std::int32_t a, std::int32_t b) {
        const std::size_t first = o.contacts.size();
        o.vv.clear();
        consider_vertex_edges(o, a, b);
        consider_vertex_edges(o, b, a);
        consider_contained(o, a, b);
        consider_contained(o, b, a);
        std::sort(o.vv.begin(), o.vv.end());
        o.vv.erase(std::unique(o.vv.begin(), o.vv.end()), o.vv.end());
        o.vv_candidates += o.vv.size();
        for (const VvCandidate& c : o.vv) judge_vv(o, c);
        dedupe_pair(o.contacts, first);
    };

    // Pairs are independent: fixed-size chunks run in parallel, each into
    // its own persistent buffer and counters, and each ends with a
    // histogram of its output over bi.
    const bool in_order = visit_in_input_order(pairs, blocks, ws);
    const std::size_t nchunks = (pairs.size() + kPairChunk - 1) / kPairChunk;
    if (ws.chunks.size() < nchunks) ws.chunks.resize(nchunks);
    par::parallel_for(nchunks, 1, [&](std::size_t ci) {
        Chunk& o = ws.chunks[ci];
        o.contacts.clear();
        o.distance_tests = 0;
        o.vv_candidates = 0;
        o.stats = {};
        const std::size_t p1 = std::min(pairs.size(), (ci + 1) * kPairChunk);
        for (std::size_t k = ci * kPairChunk; k < p1; ++k) {
            if (in_order) {
                run_pair(o, pairs[k].a, pairs[k].b);
                continue;
            }
            const BlockPair& p = pairs[ws.order[k]];
            if (k > 0 && pair_id(p) == pair_id(pairs[ws.order[k - 1]])) continue; // repeat
            run_pair(o, p.a, p.b);
        }
        chunk_histogram(o);
    });

    // Canonical order for transfer and assembly: key, then full identity
    // (canonical_less). Keys are unique after dedupe_pair, so the result is
    // independent of the pair order — what lets the classified pair
    // schedule and hand-built lists stay bit-identical to the plain
    // broad-phase order. key() leads with bi (for fewer than 2^24 blocks),
    // so a counting sort on bi does the bulk of the work: bucket starts
    // from the chunk histograms, each chunk's cursors from the chunks
    // before it, then a parallel scatter. Each block's few contacts then
    // sort in their own bucket, in parallel.
    std::size_t distance_tests = 0;
    std::size_t vv_candidates = 0;
    bool local = true;
    out.stats = {};
    ws.offsets.assign(blocks + 1, 0);
    for (std::size_t ci = 0; ci < nchunks; ++ci) {
        const Chunk& o = ws.chunks[ci];
        distance_tests += o.distance_tests;
        vv_candidates += o.vv_candidates;
        out.stats.candidates += o.stats.candidates;
        out.stats.ve += o.stats.ve;
        out.stats.vv1 += o.stats.vv1;
        out.stats.vv2 += o.stats.vv2;
        out.stats.abandoned += o.stats.abandoned;
        local = local && !o.wide;
    }
    for (std::size_t ci = 0; ci < nchunks; ++ci) {
        const Chunk& o = ws.chunks[ci];
        if (local) {
            for (std::size_t b = 0; b < o.hist.size(); ++b)
                ws.offsets[o.bi_lo + b + 1] += o.hist[b];
        } else {
            for (const Contact& c : o.contacts) ++ws.offsets[c.bi + 1];
        }
    }
    for (std::size_t b = 0; b < blocks; ++b) ws.offsets[b + 1] += ws.offsets[b];
    out.contacts.resize(ws.offsets[blocks]);
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
            for (const Contact& c : o.contacts) out.contacts[o.hist[c.bi - o.bi_lo]++] = c;
        });
    } else {
        for (std::size_t ci = 0; ci < nchunks; ++ci)
            for (const Contact& c : ws.chunks[ci].contacts) out.contacts[ws.cursor[c.bi]++] = c;
    }
    par::parallel_for(blocks, par::kDefaultGrain, [&](std::size_t b) {
        const auto first = out.contacts.begin() + ws.offsets[b];
        const auto last = out.contacts.begin() + ws.offsets[b + 1];
        if (last - first > 1) sort_bucket(first, last);
    });

    if (cost) {
        simt::KernelCost kc;
        kc.name = "narrow_phase";
        const double tests = static_cast<double>(distance_tests);
        kc.flops = tests * 24.0 + static_cast<double>(vv_candidates) * 60.0;
        kc.bytes_coalesced = static_cast<double>(pairs.size()) * 2 * sizeof(std::int32_t) +
                             static_cast<double>(out.contacts.size()) * sizeof(Contact) * 3.0;
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
    }
}

NarrowPhaseResult narrow_phase(const block::BlockSystem& sys,
                               std::span<const BlockPair> pairs, double rho,
                               simt::KernelCost* cost, const PairScheduleStats* sched) {
    NarrowPhaseWorkspace ws;
    NarrowPhaseResult out;
    narrow_phase(sys, pairs, rho, ws, out, cost, sched);
    return out;
}

} // namespace gdda::contact
