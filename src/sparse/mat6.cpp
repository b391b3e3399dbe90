#include "sparse/mat6.hpp"

#include <cmath>
#include <stdexcept>

namespace gdda::sparse {

Vec6 Vec6::operator+(const Vec6& o) const {
    Vec6 r;
    for (int i = 0; i < 6; ++i) r.v[i] = v[i] + o.v[i];
    return r;
}

Vec6 Vec6::operator-(const Vec6& o) const {
    Vec6 r;
    for (int i = 0; i < 6; ++i) r.v[i] = v[i] - o.v[i];
    return r;
}

Vec6 Vec6::operator*(double s) const {
    Vec6 r;
    for (int i = 0; i < 6; ++i) r.v[i] = v[i] * s;
    return r;
}

Vec6& Vec6::operator+=(const Vec6& o) {
    for (int i = 0; i < 6; ++i) v[i] += o.v[i];
    return *this;
}

Vec6& Vec6::operator-=(const Vec6& o) {
    for (int i = 0; i < 6; ++i) v[i] -= o.v[i];
    return *this;
}

double Vec6::dot(const Vec6& o) const {
    double s = 0.0;
    for (int i = 0; i < 6; ++i) s += v[i] * o.v[i];
    return s;
}

double Vec6::norm() const { return std::sqrt(dot(*this)); }

Mat6 Mat6::identity() {
    Mat6 m;
    for (int i = 0; i < 6; ++i) m(i, i) = 1.0;
    return m;
}

Mat6 Mat6::outer(const Vec6& u, const Vec6& w) {
    Mat6 m;
    for (int r = 0; r < 6; ++r)
        for (int c = 0; c < 6; ++c) m(r, c) = u[r] * w[c];
    return m;
}

Mat6 Mat6::operator+(const Mat6& o) const {
    Mat6 r;
    for (int i = 0; i < 36; ++i) r.a[i] = a[i] + o.a[i];
    return r;
}

Mat6 Mat6::operator-(const Mat6& o) const {
    Mat6 r;
    for (int i = 0; i < 36; ++i) r.a[i] = a[i] - o.a[i];
    return r;
}

Mat6 Mat6::operator*(double s) const {
    Mat6 r;
    for (int i = 0; i < 36; ++i) r.a[i] = a[i] * s;
    return r;
}

Mat6& Mat6::operator+=(const Mat6& o) {
    for (int i = 0; i < 36; ++i) a[i] += o.a[i];
    return *this;
}

Mat6 Mat6::operator*(const Mat6& o) const {
    Mat6 r;
    for (int i = 0; i < 6; ++i)
        for (int k = 0; k < 6; ++k) {
            const double aik = (*this)(i, k);
            for (int j = 0; j < 6; ++j) r(i, j) += aik * o(k, j);
        }
    return r;
}

Mat6 Mat6::transposed() const {
    Mat6 r;
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 6; ++j) r(j, i) = (*this)(i, j);
    return r;
}

Vec6 Mat6::mul(const Vec6& x) const {
    Vec6 y;
    for (int i = 0; i < 6; ++i) {
        double s = 0.0;
        for (int j = 0; j < 6; ++j) s += (*this)(i, j) * x[j];
        y[i] = s;
    }
    return y;
}

Vec6 Mat6::mul_transposed(const Vec6& x) const {
    Vec6 y;
    for (int j = 0; j < 6; ++j) {
        const double xj = x[j];
        for (int i = 0; i < 6; ++i) y[i] += (*this)(j, i) * xj;
    }
    return y;
}

double Mat6::max_abs() const {
    double m = 0.0;
    for (double x : a) m = std::max(m, std::abs(x));
    return m;
}

bool Mat6::is_symmetric(double tol) const {
    for (int i = 0; i < 6; ++i)
        for (int j = i + 1; j < 6; ++j)
            if (std::abs((*this)(i, j) - (*this)(j, i)) > tol) return false;
    return true;
}

Ldlt6::Ldlt6(const Mat6& m) {
    l_ = Mat6::identity();
    for (int j = 0; j < 6; ++j) {
        double dj = m(j, j);
        for (int k = 0; k < j; ++k) dj -= l_(j, k) * l_(j, k) * d_[k];
        if (std::abs(dj) < 1e-300) throw std::runtime_error("Ldlt6: zero pivot");
        d_[j] = dj;
        for (int i = j + 1; i < 6; ++i) {
            double lij = m(i, j);
            for (int k = 0; k < j; ++k) lij -= l_(i, k) * l_(j, k) * d_[k];
            l_(i, j) = lij / dj;
        }
    }
}

Vec6 Ldlt6::solve(const Vec6& b) const {
    Vec6 y = b;
    for (int i = 0; i < 6; ++i)
        for (int k = 0; k < i; ++k) y[i] -= l_(i, k) * y[k];
    for (int i = 0; i < 6; ++i) y[i] /= d_[i];
    for (int i = 5; i >= 0; --i)
        for (int k = i + 1; k < 6; ++k) y[i] -= l_(k, i) * y[k];
    return y;
}

Mat6 Ldlt6::inverse() const {
    // solve(e_c) for all six columns in one sweep: row i of the identity
    // runs through solve()'s forward sweep, pivot division and backward
    // sweep with every column at once. Each element sees the operations of
    // its own column solve in the same order, so the bits are those of six
    // separate solves; the column loop is contiguous and vectorizes.
    Mat6 y = Mat6::identity();
    for (int i = 0; i < 6; ++i)
        for (int k = 0; k < i; ++k) {
            const double lik = l_(i, k);
            for (int c = 0; c < 6; ++c) y(i, c) -= lik * y(k, c);
        }
    for (int i = 0; i < 6; ++i) {
        const double di = d_[i];
        for (int c = 0; c < 6; ++c) y(i, c) /= di;
    }
    for (int i = 5; i >= 0; --i)
        for (int k = i + 1; k < 6; ++k) {
            const double lki = l_(k, i);
            for (int c = 0; c < 6; ++c) y(i, c) -= lki * y(k, c);
        }
    return y;
}

Mat6 inverse(const Mat6& m) {
    // Gauss-Jordan with partial pivoting on an augmented 6x12 system.
    std::array<std::array<double, 12>, 6> t{};
    for (int i = 0; i < 6; ++i) {
        for (int j = 0; j < 6; ++j) t[i][j] = m(i, j);
        t[i][6 + i] = 1.0;
    }
    for (int col = 0; col < 6; ++col) {
        int piv = col;
        for (int r = col + 1; r < 6; ++r)
            if (std::abs(t[r][col]) > std::abs(t[piv][col])) piv = r;
        if (std::abs(t[piv][col]) < 1e-300) throw std::runtime_error("inverse: singular Mat6");
        std::swap(t[piv], t[col]);
        const double s = 1.0 / t[col][col];
        for (int j = 0; j < 12; ++j) t[col][j] *= s;
        for (int r = 0; r < 6; ++r) {
            if (r == col) continue;
            const double f = t[r][col];
            if (f == 0.0) continue;
            for (int j = 0; j < 12; ++j) t[r][j] -= f * t[col][j];
        }
    }
    Mat6 inv;
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 6; ++j) inv(i, j) = t[i][6 + j];
    return inv;
}

} // namespace gdda::sparse
