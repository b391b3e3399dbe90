#pragma once
// Simple-polygon utilities: area, centroid, inertia moments (via Green's
// theorem), point containment, vertex-edge distance queries. DDA blocks are
// simple (possibly non-convex) polygons with CCW vertex order.

#include <algorithm>
#include <span>
#include <vector>

#include "geometry/aabb.hpp"
#include "geometry/vec2.hpp"

namespace gdda::geom {

/// Area-weighted integrals of 1, x, y, x^2, y^2, xy over a polygon.
/// Used by DDA for mass/inertia matrices: M = rho * integral(T^T T) dS,
/// whose entries are combinations of these moments.
struct PolygonMoments {
    double s = 0.0;   ///< integral dS  (area)
    double sx = 0.0;  ///< integral x dS
    double sy = 0.0;  ///< integral y dS
    double sxx = 0.0; ///< integral x^2 dS
    double syy = 0.0; ///< integral y^2 dS
    double sxy = 0.0; ///< integral x*y dS

    /// Same moments about a new origin c (i.e. substitute x -> x - c.x).
    [[nodiscard]] PolygonMoments about(Vec2 c) const;
};

/// Signed area (positive for CCW vertex order).
double signed_area(std::span<const Vec2> poly);

/// Area centroid. Requires non-degenerate polygon.
Vec2 centroid(std::span<const Vec2> poly);

/// All six moments about the origin, exact for simple polygons.
PolygonMoments moments(std::span<const Vec2> poly);

/// Even-odd point-in-polygon test (boundary points count as inside).
bool contains(std::span<const Vec2> poly, Vec2 p, double tol = 1e-12);

/// Closest point on segment [a,b] to p, returned as the parameter t in [0,1].
/// Inline, like the next one: the contact kernels call both per test.
inline double closest_param_on_segment(Vec2 a, Vec2 b, Vec2 p) {
    const Vec2 d = b - a;
    const double len2 = d.norm2();
    if (len2 == 0.0) return 0.0;
    return std::clamp((p - a).dot(d) / len2, 0.0, 1.0);
}

/// Distance from p to segment [a,b].
inline double point_segment_distance(Vec2 a, Vec2 b, Vec2 p) {
    const double t = closest_param_on_segment(a, b, p);
    return distance(p, a + (b - a) * t);
}

/// True if segments [a,b] and [c,d] properly intersect or touch.
bool segments_intersect(Vec2 a, Vec2 b, Vec2 c, Vec2 d);

/// Area of the intersection of two convex polygons (Sutherland-Hodgman
/// clipping). Used by interpenetration checking to quantify overlap.
double convex_overlap_area(std::span<const Vec2> a, std::span<const Vec2> b);

/// Ensure CCW orientation in place.
void make_ccw(std::vector<Vec2>& poly);

} // namespace gdda::geom
