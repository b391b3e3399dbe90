#include "geometry/polygon.hpp"

#include <algorithm>
#include <cmath>

namespace gdda::geom {

PolygonMoments PolygonMoments::about(Vec2 c) const {
    PolygonMoments m;
    m.s = s;
    m.sx = sx - c.x * s;
    m.sy = sy - c.y * s;
    m.sxx = sxx - 2.0 * c.x * sx + c.x * c.x * s;
    m.syy = syy - 2.0 * c.y * sy + c.y * c.y * s;
    m.sxy = sxy - c.x * sy - c.y * sx + c.x * c.y * s;
    return m;
}

double signed_area(std::span<const Vec2> poly) {
    double a = 0.0;
    const std::size_t n = poly.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Vec2 p = poly[i];
        const Vec2 q = poly[(i + 1) % n];
        a += p.cross(q);
    }
    return 0.5 * a;
}

Vec2 centroid(std::span<const Vec2> poly) {
    const std::size_t n = poly.size();
    double a = 0.0;
    Vec2 c;
    for (std::size_t i = 0; i < n; ++i) {
        const Vec2 p = poly[i];
        const Vec2 q = poly[(i + 1) % n];
        const double w = p.cross(q);
        a += w;
        c += (p + q) * w;
    }
    return c / (3.0 * a);
}

PolygonMoments moments(std::span<const Vec2> poly) {
    // Green's theorem reduction of each area integral to an edge sum.
    PolygonMoments m;
    const std::size_t n = poly.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Vec2 p = poly[i];
        const Vec2 q = poly[(i + 1) % n];
        const double w = p.cross(q); // x_i*y_{i+1} - x_{i+1}*y_i
        m.s += w;
        m.sx += w * (p.x + q.x);
        m.sy += w * (p.y + q.y);
        m.sxx += w * (p.x * p.x + p.x * q.x + q.x * q.x);
        m.syy += w * (p.y * p.y + p.y * q.y + q.y * q.y);
        m.sxy += w * (p.x * (2.0 * p.y + q.y) + q.x * (p.y + 2.0 * q.y));
    }
    m.s *= 0.5;
    m.sx /= 6.0;
    m.sy /= 6.0;
    m.sxx /= 12.0;
    m.syy /= 12.0;
    m.sxy /= 24.0;
    return m;
}

bool contains(std::span<const Vec2> poly, Vec2 p, double tol) {
    const std::size_t n = poly.size();
    // Boundary check first so edge/vertex hits are deterministic.
    for (std::size_t i = 0; i < n; ++i) {
        if (point_segment_distance(poly[i], poly[(i + 1) % n], p) <= tol) return true;
    }
    bool inside = false;
    for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
        const Vec2 a = poly[j];
        const Vec2 b = poly[i];
        if ((b.y > p.y) != (a.y > p.y)) {
            const double xint = b.x + (p.y - b.y) * (a.x - b.x) / (a.y - b.y);
            if (p.x < xint) inside = !inside;
        }
    }
    return inside;
}

bool segments_intersect(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
    const double d1 = orient2d(c, d, a);
    const double d2 = orient2d(c, d, b);
    const double d3 = orient2d(a, b, c);
    const double d4 = orient2d(a, b, d);
    if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
        ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)))
        return true;
    auto on = [](Vec2 p, Vec2 q, Vec2 r) {
        return std::min(p.x, q.x) <= r.x && r.x <= std::max(p.x, q.x) &&
               std::min(p.y, q.y) <= r.y && r.y <= std::max(p.y, q.y);
    };
    if (d1 == 0 && on(c, d, a)) return true;
    if (d2 == 0 && on(c, d, b)) return true;
    if (d3 == 0 && on(a, b, c)) return true;
    if (d4 == 0 && on(a, b, d)) return true;
    return false;
}

namespace {
// Clip subject polygon against the half-plane left of edge (a, b).
std::vector<Vec2> clip_halfplane(const std::vector<Vec2>& subject, Vec2 a, Vec2 b) {
    std::vector<Vec2> out;
    const std::size_t n = subject.size();
    out.reserve(n + 2);
    for (std::size_t i = 0; i < n; ++i) {
        const Vec2 cur = subject[i];
        const Vec2 nxt = subject[(i + 1) % n];
        const double dc = orient2d(a, b, cur);
        const double dn = orient2d(a, b, nxt);
        if (dc >= 0.0) out.push_back(cur);
        if ((dc > 0.0 && dn < 0.0) || (dc < 0.0 && dn > 0.0)) {
            const double t = dc / (dc - dn);
            out.push_back(cur + (nxt - cur) * t);
        }
    }
    return out;
}
} // namespace

double convex_overlap_area(std::span<const Vec2> a, std::span<const Vec2> b) {
    std::vector<Vec2> clipped(a.begin(), a.end());
    const std::size_t n = b.size();
    for (std::size_t i = 0; i < n && !clipped.empty(); ++i) {
        clipped = clip_halfplane(clipped, b[i], b[(i + 1) % n]);
    }
    if (clipped.size() < 3) return 0.0;
    return std::abs(signed_area(clipped));
}

void make_ccw(std::vector<Vec2>& poly) {
    if (signed_area(poly) < 0.0) std::reverse(poly.begin(), poly.end());
}

} // namespace gdda::geom
