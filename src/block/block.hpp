#pragma once
// A DDA block: a simple polygon with Shi's six deformation unknowns
//   d = (u0, v0, r0, ex, ey, gxy)
// defined about the block centroid (x0, y0). The first-order displacement of
// a material point (x, y) is u = T(x,y) d with the 2x6 basis
//   Tx = (1, 0, -(y-y0), (x-x0),      0, (y-y0)/2)
//   Ty = (0, 1,  (x-x0),      0, (y-y0), (x-x0)/2)

#include <array>
#include <vector>

#include "geometry/aabb.hpp"
#include "geometry/polygon.hpp"
#include "sparse/mat6.hpp"

namespace gdda::block {

using geom::Vec2;
using sparse::Mat6;
using sparse::Vec6;

/// Elastic block material. Stress-strain uses plane stress by default.
struct Material {
    double density = 2500.0;      ///< kg/m^3 (2-D: per unit thickness)
    double young = 5.0e9;         ///< Young's modulus E (Pa)
    double poisson = 0.25;        ///< Poisson ratio
    bool plane_strain = false;

    /// 3x3 elasticity matrix acting on (ex, ey, gxy).
    [[nodiscard]] std::array<double, 9> elasticity() const;
};

/// Joint (discontinuity) strength parameters used by contact mechanics.
struct JointMaterial {
    double friction_deg = 30.0; ///< friction angle phi
    double cohesion = 0.0;      ///< Pa * m (2-D)
    double tension = 0.0;       ///< tensile strength across the joint
};

struct Block {
    std::vector<Vec2> verts;  ///< current vertex positions, CCW
    int material = 0;
    bool fixed = false;       ///< fully constrained (foundation blocks)
    Vec6 velocity{};          ///< d-dot carried between steps
    std::array<double, 3> stress{}; ///< carried (sx, sy, txy)

    // Derived per-step geometry (call update_geometry after moving vertices).
    Vec2 centroid{};
    double area = 0.0;
    geom::PolygonMoments moments{}; ///< about the centroid (sx = sy = 0)

    void update_geometry();

    [[nodiscard]] geom::Aabb bounds() const { return geom::bounds_of(verts); }
    [[nodiscard]] std::size_t vertex_count() const { return verts.size(); }
    [[nodiscard]] Vec2 vertex(std::size_t i) const { return verts[i % verts.size()]; }

    /// Rows of T(p): displacement of point p is (tx . d, ty . d). Inline:
    /// contact initialization and assembly evaluate them per contact.
    [[nodiscard]] Vec6 tx(Vec2 p) const {
        const double X = p.x - centroid.x;
        const double Y = p.y - centroid.y;
        return Vec6{{1.0, 0.0, -Y, X, 0.0, Y / 2.0}};
    }
    [[nodiscard]] Vec6 ty(Vec2 p) const {
        const double X = p.x - centroid.x;
        const double Y = p.y - centroid.y;
        return Vec6{{0.0, 1.0, X, 0.0, Y, X / 2.0}};
    }

    /// Displacement of point p under increment d.
    [[nodiscard]] Vec2 displacement_at(Vec2 p, const Vec6& d) const;

    /// Apply the solved increment: move vertices by T d, accumulate strain
    /// into carried stress (Hooke on the strain increment), update geometry.
    ///
    /// With `exact_rotation` the rigid part uses the exact rotation operator
    /// (cos/sin of r0) instead of Shi's first-order (-r0 Y, r0 X) term. The
    /// first-order form spuriously grows block area by O(r0^2) per step —
    /// the classic "volume expansion" defect of original DDA that the
    /// post-adjustment literature (paper ref. [3]) corrects.
    void apply_increment(const Vec6& d, const Material& mat, bool exact_rotation = false);

    /// Mass matrix integral rho * integral_S T^T T dS about the centroid.
    [[nodiscard]] Mat6 mass_matrix(double density) const;
};

} // namespace gdda::block
