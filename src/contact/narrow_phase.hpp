#pragma once
// Narrow-phase contact detection: distance judgment (VE / VV split), angle
// judgment (VE / VV1 / VV2 split, abandoning impossible contacts). Mirrors
// the paper's two classification stages in the narrow phase (section III.A).

#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "contact/broad_phase.hpp"
#include "contact/contact.hpp"
#include "contact/pair_classes.hpp"

namespace gdda::contact {

struct NarrowPhaseResult {
    std::vector<Contact> contacts;
    ClassificationStats stats;
};

/// Reusable scratch of one narrow-phase caller (the engine owns one): the
/// per-chunk output buffers and the counting-sort arrays keep their
/// capacity across calls, so steady-state steps allocate nothing. The
/// contents are internal to narrow_phase; treat the struct as opaque.
struct NarrowPhaseWorkspace {
    /// Vertex-vertex candidate: vertex va of block ba against vertex vb of
    /// block bb, with ba < bb.
    struct VvCandidate {
        std::int32_t ba, va, bb, vb;
        friend auto operator<=>(const VvCandidate&, const VvCandidate&) = default;
    };
    /// Private output and counters of one fixed-size run of pairs.
    struct Chunk {
        std::vector<Contact> contacts;
        std::vector<VvCandidate> vv; ///< the current pair's VV candidates
        std::size_t distance_tests = 0;
        std::size_t vv_candidates = 0;
        ClassificationStats stats;
    };
    std::vector<Chunk> chunks;
    std::vector<std::uint32_t> offsets;          ///< counting-sort bucket offsets
    std::vector<std::uint32_t> order, order_tmp; ///< pair counting-sort permutation
    std::vector<unsigned char> repeat;           ///< pair i repeats an earlier pair
};

/// rho: contact search distance (typically 2-3x the max step displacement).
///
/// The result is canonical: contacts are sorted by a total order over their
/// full identity and deduplicated, so any permutation of `pairs`, any
/// repetition of a pair, and any superset whose extra pairs are separated
/// by more than rho produce a bit-identical contact list and identical
/// statistics. This is the property the divergence-aware schedule
/// (pair_classes.hpp) and the persistent pair cache (pair_cache.hpp) rely
/// on; see docs/CONTACTS.md.
///
/// `sched`, when given, prices the modeled narrow-phase launch with the
/// classified schedule's measured warp divergence instead of the default
/// mixed-population estimate.
///
/// This overload writes into `out` and runs on the caller's `ws`, reusing
/// the capacity of both.
void narrow_phase(const block::BlockSystem& sys, std::span<const BlockPair> pairs,
                  double rho, NarrowPhaseWorkspace& ws, NarrowPhaseResult& out,
                  simt::KernelCost* cost = nullptr, const PairScheduleStats* sched = nullptr);

/// Convenience form on a throwaway workspace.
NarrowPhaseResult narrow_phase(const block::BlockSystem& sys,
                               std::span<const BlockPair> pairs, double rho,
                               simt::KernelCost* cost = nullptr,
                               const PairScheduleStats* sched = nullptr);

/// Angle judgment for a VE candidate: the exterior bisector of the vertex
/// wedge must point roughly against the edge's outward normal. Exposed for
/// unit tests.
bool ve_angle_admissible(const block::Block& bi, int vi, const block::Block& bj, int e1);

} // namespace gdda::contact
