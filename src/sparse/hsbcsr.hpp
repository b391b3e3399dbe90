#pragma once
// Half Slice Block Compressed Sparse Row (HSBCSR) — the paper's storage
// format for the sparse block *symmetric* DDA stiffness matrix (Figs. 6-7).
//
// Only the diagonal and strictly-upper 6x6 blocks are stored. Block data are
// laid out in six "slices": slice s holds local row s of every sub-matrix,
// sorted by (global block row, global block col), and each slice is padded to
// a multiple of 32 sub-matrices so a warp's accesses stay aligned. Four index
// arrays drive the symmetric expansion during SpMV:
//
//   rc         packed (row, col) of each upper non-diagonal block
//   row_up_i   end position of block row i in the upper ordering
//   row_low_i  end position of block row i of the *lower* triangle, whose
//              entries are the transposes of the upper blocks ordered by
//              (col, row)
//   row_low_p  maps the k-th lower-triangle entry to the position of its
//              transposed source block in the upper ordering
//
// SpMV runs in two stages (Figs. 8-9): stage 1 multiplies every live
// non-diagonal block (see live below) with both the "upper" vector x[col]
// (-> up_res) and, transposed, the "lower" vector x[row] (-> low_res);
// stage 2 reduces up_res rows (regular, coalesced) and low_res rows
// (gathered through live_low_q), then adds the diagonal product.

#include <cstdint>
#include <vector>

#include "sparse/bsr.hpp"

namespace gdda::sparse {

struct HsbcsrMatrix {
    int n = 0;        ///< block rows
    int m = 0;        ///< upper non-diagonal blocks
    int padded_n = 0; ///< n rounded up to a multiple of 32 (slice alignment)
    int padded_m = 0; ///< m rounded up to a multiple of 32

    /// Diagonal block data, slice layout: d_data[s * padded_n * 6 + b * 6 + k]
    /// is entry (s, k) of diagonal block b.
    std::vector<double> d_data;
    /// Upper non-diagonal data, same slice layout over padded_m blocks.
    std::vector<double> nd_data_up;

    /// Packed (row << 32 | col) of each upper block, in (row, col) order.
    std::vector<std::uint64_t> rc;
    std::vector<std::uint32_t> row_up_i;  ///< size n, end offsets per row
    std::vector<std::uint32_t> row_low_i; ///< size n, end offsets per lower row
    std::vector<std::uint32_t> row_low_p; ///< size m, lower -> upper position

    /// Live-block list: the ascending upper positions p whose slice data
    /// hold a non-+0 bit pattern. SpMV multiplies only the live blocks. A
    /// block whose values are all +0 or -0 yields exactly +0 products for
    /// finite x, and adding +0 to a stage-2 accumulator, which starts at
    /// +0.0 and so is never -0, leaves its bits unchanged. Any superset of
    /// the non-+0 blocks is therefore exact (this one keeps the -0 blocks),
    /// and the empty list skips stage 1 altogether.
    ///
    /// hsbcsr_structure() sets an empty list (its slices are zeroed) and
    /// hsbcsr_refill() rebuilds it from the bits it writes; a diagonal-only
    /// refill keeps it. Any other writer of nd_data_up must call
    /// mark_all_live(). A hand-built matrix has live_known false and reads
    /// as all-live: every block is multiplied, in its stored order.
    bool live_known = false;
    std::vector<std::uint32_t> live;       ///< ascending live positions p
    std::vector<std::uint32_t> live_q;     ///< size m: p -> its index q in live
    std::vector<std::uint32_t> live_up_i;  ///< size n, end offsets into live per row
    std::vector<std::uint32_t> live_low_q; ///< live lower entries as q, row_low_p order
    std::vector<std::uint32_t> live_low_i; ///< size n, end offsets into live_low_q

    /// Forget the list: every block counts as live again.
    void mark_all_live() { live_known = false; }
    /// Upper blocks stage 1 multiplies.
    [[nodiscard]] std::size_t live_count() const {
        return live_known ? live.size() : static_cast<std::size_t>(m);
    }
    /// Every upper value is known to be +0 (a -0 makes its block live).
    [[nodiscard]] bool upper_dead() const { return live_known && live.empty(); }

    [[nodiscard]] std::uint32_t row_of(std::size_t p) const {
        return static_cast<std::uint32_t>(rc[p] >> 32);
    }
    [[nodiscard]] std::uint32_t col_of(std::size_t p) const {
        return static_cast<std::uint32_t>(rc[p] & 0xffffffffu);
    }
    /// Entry (r, c) of non-diagonal block p via the slice layout.
    [[nodiscard]] double nd_at(std::size_t p, int r, int c) const {
        return nd_data_up[static_cast<std::size_t>(r) * padded_m * 6 + p * 6 + c];
    }
    [[nodiscard]] double d_at(std::size_t b, int r, int c) const {
        return d_data[static_cast<std::size_t>(r) * padded_n * 6 + b * 6 + c];
    }

    /// Bytes of block data stored (the format's memory footprint).
    [[nodiscard]] std::size_t data_bytes() const {
        return (d_data.size() + nd_data_up.size()) * sizeof(double);
    }
};

/// Convert the assembler's BSR matrix into HSBCSR. Equivalent to
/// hsbcsr_structure() followed by hsbcsr_refill() — the symbolic/numeric
/// split used by the structure-caching solve path.
HsbcsrMatrix hsbcsr_from_bsr(const BsrMatrix& a);

/// Symbolic half of the conversion: padded sizes, rc, row_up_i, row_low_i
/// and row_low_p (the stable lower-triangle sort), with the slice data
/// allocated and zeroed, and an empty live list. Reusable across solves
/// while the block sparsity of `a` is unchanged.
HsbcsrMatrix hsbcsr_structure(const BsrMatrix& a);

/// Numeric half: rewrite the diagonal and upper slice data of `h` from `a`,
/// leaving every index array (and the zero padding) untouched. `h` must have
/// been built by hsbcsr_structure()/hsbcsr_from_bsr() on a matrix with the
/// same structure; throws std::invalid_argument on a dimension mismatch.
/// With `offdiag` false only the diagonal slices are rewritten: for a
/// caller that knows the upper slices already hold a's values, and the
/// live list is kept. With `offdiag` true the live list is rebuilt from
/// the written bits, in parallel and with the same result for any team.
void hsbcsr_refill(HsbcsrMatrix& h, const BsrMatrix& a, bool offdiag = true);

/// Reconstruct a BSR matrix (for round-trip tests).
BsrMatrix bsr_from_hsbcsr(const HsbcsrMatrix& a);

} // namespace gdda::sparse
