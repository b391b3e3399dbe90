#pragma once
// Divergence-aware candidate-pair classification. The narrow phase's
// distance-judgment loop runs verts(a) x verts(b) vertex-edge trips per
// pair, so a warp of mixed-shape pairs serializes on its largest member —
// the DEM warp-divergence problem Nakahara & Washizawa attack by bucketing
// candidates into uniform classes before launching the kernels (PAPERS.md).
// classify_pairs reorders the candidate set into contiguous work classes
// (counting sort keyed on the clipped vertex counts of both blocks, stable
// within a class) and reports the modeled warp efficiency of both the
// broad-phase order and the classified order, so the SIMT trace prices the
// narrow phase with its actual post-classification divergence instead of a
// fixed guess.
//
// The reorder is a pure permutation: the narrow phase canonicalizes its
// output (sort by full contact identity + dedup), so the classified
// schedule produces bit-identical contacts to the unclassified one — which
// is why the engine only prices the schedule (pair_schedule_stats) and
// never materialises it. The
// candidate-set CONTENT contract lives in docs/CONTACTS.md.

#include <cstdint>
#include <span>
#include <vector>

#include "contact/broad_phase.hpp"

namespace gdda::contact {

struct PairScheduleStats {
    std::size_t pairs = 0;
    std::size_t buckets = 0;           ///< distinct work classes present
    std::uint64_t work = 0;            ///< total per-pair distance-judgment trips
    std::uint64_t slots_unsorted = 0;  ///< warp-serialized slots, broad-phase order
    std::uint64_t slots_sorted = 0;    ///< warp-serialized slots, classified order

    /// Fraction of issued warp slots doing useful work (1 = no divergence).
    [[nodiscard]] double efficiency_unsorted() const {
        return slots_unsorted ? static_cast<double>(work) /
                                    (32.0 * static_cast<double>(slots_unsorted))
                              : 1.0;
    }
    [[nodiscard]] double efficiency_sorted() const {
        return slots_sorted ? static_cast<double>(work) /
                                  (32.0 * static_cast<double>(slots_sorted))
                            : 1.0;
    }
    /// Modeled divergent fraction of the classified narrow-phase launch.
    [[nodiscard]] double divergent_fraction_sorted() const {
        return 1.0 - efficiency_sorted();
    }
};

/// Reorder `pairs` into contiguous work-class buckets. Deterministic for a
/// given input sequence; preserves relative order within each class. In GPU
/// mode the bucketing itself is charged as a `pair_class_bucket` kernel
/// (count + scan + scatter, the same shape as the paper's Fig. 2 compaction).
std::vector<BlockPair> classify_pairs(const block::BlockSystem& sys,
                                      std::vector<BlockPair> pairs,
                                      PairScheduleStats* stats = nullptr,
                                      simt::KernelCost* cost = nullptr);

/// The statistics classify_pairs reports, and the same `pair_class_bucket`
/// charge, without materialising the permutation: the classified slots are
/// counted from per-class pair counts and per-block vertex counts. The
/// engine uses this form, since the narrow phase's canonical output makes
/// the schedule's order irrelevant to the contacts.
PairScheduleStats pair_schedule_stats(const block::BlockSystem& sys,
                                      std::span<const BlockPair> pairs,
                                      simt::KernelCost* cost = nullptr);

/// The `pair_class_bucket` kernel pair_schedule_stats records for `pairs`
/// candidates (it depends on the count alone).
simt::KernelCost pair_schedule_cost(std::size_t pairs);

} // namespace gdda::contact
