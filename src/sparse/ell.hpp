#pragma once
// ELLPACK-family scalar SpMV formats — the related-work baselines of the
// paper's section II.B ([24][25][26]): classic ELL pads every row to the
// maximum row length and stores column-major so warp lanes read coalesced;
// sliced ELL (SELL) pads only within fixed-height slices, recovering most
// of the wasted zero-fill on irregular matrices. Both are provided so the
// Fig. 10 bench can place HSBCSR against the formats the literature of the
// time actually compared.

#include <cstdint>
#include <vector>

#include "simt/cost_model.hpp"
#include "sparse/csr.hpp"

namespace gdda::sparse {

/// Classic ELLPACK: rows x max_row_len, column-major, zero-padded.
struct EllMatrix {
    std::size_t rows = 0;
    std::size_t width = 0; ///< max nonzeros per row
    /// Column-major: entry (r, k) at [k * rows + r]; padding has col = r.
    std::vector<std::uint32_t> cols;
    std::vector<double> vals;

    [[nodiscard]] std::size_t padded_nnz() const { return rows * width; }
    [[nodiscard]] std::size_t data_bytes() const {
        return vals.size() * sizeof(double) + cols.size() * sizeof(std::uint32_t);
    }
};

/// Sliced ELLPACK: independent ELL blocks of `slice_height` rows.
struct SlicedEllMatrix {
    std::size_t rows = 0;
    std::size_t slice_height = 32;
    std::vector<std::size_t> slice_width; ///< per-slice max row length
    std::vector<std::size_t> slice_ptr;   ///< offset of each slice's data
    std::vector<std::uint32_t> cols;      ///< column-major within a slice
    std::vector<double> vals;

    [[nodiscard]] std::size_t padded_nnz() const { return vals.size(); }
    [[nodiscard]] std::size_t data_bytes() const {
        return vals.size() * sizeof(double) + cols.size() * sizeof(std::uint32_t);
    }
};

/// Row-sorted sliced ELLPACK (SELL-R, Wong/Kuhl/Darve): rows are permuted
/// into descending row-length order by a *stable* sort before slicing, so
/// every slice holds rows of near-uniform length and the per-slice padding
/// collapses. The permutation is part of the format: SpMV reads the sorted
/// layout and scatters each result back to its original row through `perm`,
/// making the kernel a drop-in y = A x — callers never see sorted order.
struct SortedSellMatrix {
    std::size_t rows = 0;
    std::size_t slice_height = 32;        ///< warp width
    std::vector<std::uint32_t> perm;      ///< sorted position -> original row
    std::vector<std::uint32_t> inv_perm;  ///< original row -> sorted position
    std::vector<std::size_t> slice_width; ///< per-slice max row length (sorted order)
    std::vector<std::size_t> slice_ptr;   ///< offset of each slice's data
    std::vector<std::uint32_t> cols;      ///< original column ids, column-major in slice
    std::vector<double> vals;

    [[nodiscard]] std::size_t padded_nnz() const { return vals.size(); }
    [[nodiscard]] std::size_t data_bytes() const {
        return vals.size() * sizeof(double) + cols.size() * sizeof(std::uint32_t) +
               (perm.size() + inv_perm.size()) * sizeof(std::uint32_t);
    }
};

EllMatrix ell_from_csr(const CsrMatrix& a);
SlicedEllMatrix sliced_ell_from_csr(const CsrMatrix& a, std::size_t slice_height = 32);
SortedSellMatrix sorted_sell_from_csr(const CsrMatrix& a, std::size_t slice_height = 32);

/// y = A x; exact math plus the analytic GPU trace.
void spmv_ell(const EllMatrix& a, const std::vector<double>& x, std::vector<double>& y,
              simt::KernelCost* cost = nullptr);
void spmv_sliced_ell(const SlicedEllMatrix& a, const std::vector<double>& x,
                     std::vector<double>& y, simt::KernelCost* cost = nullptr);
void spmv_sorted_sell(const SortedSellMatrix& a, const std::vector<double>& x,
                      std::vector<double>& y, simt::KernelCost* cost = nullptr);

} // namespace gdda::sparse
