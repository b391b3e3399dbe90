#include "block/block.hpp"

#include <cmath>

namespace gdda::block {

std::array<double, 9> Material::elasticity() const {
    const double e = young;
    const double nu = poisson;
    if (plane_strain) {
        const double f = e / ((1.0 + nu) * (1.0 - 2.0 * nu));
        return {f * (1.0 - nu), f * nu, 0.0,
                f * nu, f * (1.0 - nu), 0.0,
                0.0, 0.0, f * (1.0 - 2.0 * nu) / 2.0};
    }
    const double f = e / (1.0 - nu * nu);
    return {f, f * nu, 0.0,
            f * nu, f, 0.0,
            0.0, 0.0, f * (1.0 - nu) / 2.0};
}

void Block::update_geometry() {
    centroid = geom::centroid(verts);
    const geom::PolygonMoments m0 = geom::moments(verts);
    moments = m0.about(centroid);
    area = moments.s;
}

Vec2 Block::displacement_at(Vec2 p, const Vec6& d) const {
    return {tx(p).dot(d), ty(p).dot(d)};
}

void Block::apply_increment(const Vec6& d, const Material& mat, bool exact_rotation) {
    if (exact_rotation) {
        // Rigid part applied exactly, strain part first-order (it is bounded
        // by the displacement control and genuinely small).
        const double cr = std::cos(d[2]);
        const double sr = std::sin(d[2]);
        for (Vec2& p : verts) {
            const double X = p.x - centroid.x;
            const double Y = p.y - centroid.y;
            const Vec2 rigid{d[0] + (cr - 1.0) * X - sr * Y, d[1] + sr * X + (cr - 1.0) * Y};
            const Vec2 strain{d[3] * X + d[5] * Y / 2.0, d[4] * Y + d[5] * X / 2.0};
            p += rigid + strain;
        }
    } else {
        for (Vec2& p : verts) p += displacement_at(p, d);
    }
    const std::array<double, 9> e = mat.elasticity();
    const double de[3] = {d[3], d[4], d[5]};
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) stress[r] += e[r * 3 + c] * de[c];
    update_geometry();
}

Mat6 Block::mass_matrix(double density) const {
    // Entries of integral T^T T dS in centroid coordinates (Sx = Sy = 0),
    // expressed through the second moments.
    const double s = moments.s;
    const double sxx = moments.sxx;
    const double syy = moments.syy;
    const double sxy = moments.sxy;

    Mat6 m;
    m(0, 0) = s;
    m(1, 1) = s;
    m(2, 2) = sxx + syy;
    m(2, 3) = -sxy;
    m(2, 4) = sxy;
    m(2, 5) = (sxx - syy) / 2.0;
    m(3, 3) = sxx;
    m(3, 5) = sxy / 2.0;
    m(4, 4) = syy;
    m(4, 5) = sxy / 2.0;
    m(5, 5) = (sxx + syy) / 4.0;
    // Symmetrize the upper entries set above.
    for (int r = 0; r < 6; ++r)
        for (int c = r + 1; c < 6; ++c) m(c, r) = m(r, c);
    return m * density;
}

} // namespace gdda::block
