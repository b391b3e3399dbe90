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
#include "geometry/polygon.hpp"

namespace gdda::contact {

struct NarrowPhaseResult {
    std::vector<Contact> contacts;
    ClassificationStats stats;
    /// The call was served whole from the canonical list of the last one
    /// (NarrowMemoStats::steady_calls).
    bool steady = false;
};

/// Counters of the narrow-phase memo, monotone over the workspace's life.
struct NarrowMemoStats {
    std::uint64_t pairs_reused = 0;  ///< pairs whose cached result was emitted
    std::uint64_t pairs_rebuilt = 0; ///< pairs run through the judgments
    std::uint64_t steady_calls = 0;  ///< calls served whole from the canonical list
};

/// State of one narrow-phase caller (the engine owns one): reusable scratch
/// and the per-pair memo of the narrow phase's output.
///
/// The memo keeps, per visited pair, the contacts it emitted (after
/// dedupe), its classification and test counts, and a certified robustness
/// radius: the least relative vertex motion that could flip any decision
/// the pair's judgments made. A later call reuses the pair while the
/// blocks' motion since that decision, around a common translation, stays
/// below the radius, so reused output equals a fresh evaluation bit for bit
/// (proof in docs/CONTACTS.md). The buffers keep their capacity across
/// calls; treat the members as internal to narrow_phase.
struct NarrowPhaseWorkspace {
    /// Vertex-vertex candidate: vertex va of block ba against vertex vb of
    /// block bb, with ba < bb.
    struct VvCandidate {
        std::int32_t ba, va, bb, vb;
        friend auto operator<=>(const VvCandidate&, const VvCandidate&) = default;
    };
    /// One emitted contact as the memo stores it: its identity, and whether
    /// its edge_ratio is the distance pass's projection parameter (else the
    /// Contact default). The ratio itself is recomputed on every emission.
    struct Emitted {
        std::int32_t bi, vi, bj, e1, e2;
        ContactKind kind;
        bool ratio_from_distance;
        [[nodiscard]] std::uint64_t key() const { return contact_key(bi, vi, bj, e1); }
        /// The emitted contact's edge_ratio at the current positions.
        [[nodiscard]] double edge_ratio(const block::BlockSystem& sys) const {
            if (!ratio_from_distance) return Contact{}.edge_ratio;
            const std::vector<geom::Vec2>& yv = sys.blocks[bj].verts;
            return geom::closest_param_on_segment(yv[e1], yv[e2], sys.blocks[bi].verts[vi]);
        }
    };
    /// Cached result of one visited pair (a, b).
    struct PairMemo {
        std::int32_t a, b;
        std::uint32_t first, count; ///< its contacts within its chunk
        std::uint32_t distance_tests, vv_candidates;
        std::uint32_t candidates, ve, vv1, vv2, abandoned;
        double radius; ///< relative motion the pair's decisions withstand
        double offset; ///< motion between its decisions and the reference positions
    };
    /// Output and counters of one fixed-size run of visited pairs; between
    /// calls, the memo storage of those pairs.
    struct Chunk {
        std::vector<Emitted> contacts;
        /// Rebuild target while `contacts` of every chunk still serves as
        /// the memo the call reads from; swapped in after the call.
        std::vector<Emitted> spare;
        std::vector<VvCandidate> vv; ///< the current pair's VV candidates
        std::vector<double> edge_dist; ///< containment: the vertex's distance to each edge
        std::size_t distance_tests = 0;
        std::size_t vv_candidates = 0;
        ClassificationStats stats;
        double radius = 0.0; ///< the current pair's robustness radius
        /// Contacts per bi over [bi_lo, bi_lo + hist.size()), later this
        /// chunk's write cursor per bucket; empty when the range is too wide.
        std::vector<std::uint32_t> hist;
        std::int32_t bi_lo = 0;
        bool wide = false; ///< bi range too wide for a chunk-local histogram
    };
    std::vector<Chunk> chunks;
    /// Block b's vertex (and edge) v sits at first_vert[b] + v in the
    /// per-vertex arrays.
    std::vector<std::uint32_t> first_vert;
    /// Unit vectors of the angle judgments, computed once per rebuilding
    /// call for every block, and their reach, the inverse of their motion
    /// sensitivity: a relative motion delta moves the vector by at most
    /// delta / reach.
    std::vector<geom::Vec2> bisector;    ///< outward bisector per vertex
    std::vector<geom::Vec2> edge_dir;    ///< unit direction per edge
    std::vector<geom::Vec2> edge_normal; ///< unit outward normal per edge
    std::vector<double> bisector_reach;  ///< per vertex; 0 where uncertified
    std::vector<double> edge_reach;      ///< per edge, of edge_dir and edge_normal
    std::vector<double> frame_reach;     ///< per edge: 1 / (9 len + 4 rho), see EdgeFrame
    std::vector<std::uint32_t> offsets;          ///< bucket starts, by bi
    std::vector<std::uint32_t> cursor;           ///< bucket write cursors
    std::vector<std::uint32_t> order, order_tmp; ///< pair counting-sort permutation
    std::vector<BlockPair> visit;                ///< deduplicated visit order, unsorted input

    // The memo.
    std::vector<PairMemo> memo, memo_next; ///< one per visited pair, visit order
    std::vector<Emitted> canon;            ///< last canonical output
    std::vector<geom::Vec2> ref_verts;     ///< reference positions, per vertex
    std::vector<geom::Vec2> shift;         ///< per block: motion of vertex 0 since the reference
    std::vector<double> deviation;         ///< per block: largest vertex motion beyond `shift`
    std::vector<std::int32_t> source;      ///< per visited pair: memo index reused, or -1
    std::size_t distance_tests = 0;        ///< totals of the last call
    std::size_t vv_candidates = 0;
    ClassificationStats stats;
    /// Divergence-aware schedule of the last call's pair list
    /// (pair_schedule_stats), valid while have_schedule; a call asked for
    /// the schedule reuses it when the memo finds the list element-wise
    /// unchanged.
    PairScheduleStats schedule;
    bool have_schedule = false;
    double rho = -1.0;       ///< search distance the memo was built with
    double coord_max = 0.0;  ///< largest |coordinate| seen since the memo started
    bool have_memo = false;
    NarrowMemoStats memo_stats;

    /// Forget every cached result (checkpoint restore); the next call runs
    /// every pair through the judgments.
    void drop_memo();
};

/// rho: contact search distance (typically 2-3x the max step displacement).
///
/// The result is canonical: contacts are sorted by a total order over their
/// full identity and deduplicated by key, so any permutation of `pairs`,
/// any repetition of a pair, and any superset whose extra pairs are
/// separated by more than rho produce a bit-identical contact list and
/// identical statistics. This is why the divergence-aware schedule
/// (pair_classes.hpp) need never be materialised; see docs/CONTACTS.md.
///
/// `schedule` prices the modeled narrow-phase launch with the classified
/// schedule's measured warp divergence instead of the default
/// mixed-population estimate: the call computes pair_schedule_stats(sys,
/// pairs, cost) into ws.schedule, which records the `pair_class_bucket`
/// kernel before the narrow-phase one.
///
/// This overload writes into `out` and runs on the caller's `ws`, reusing
/// the capacity of both and the memo of earlier calls: a pair whose blocks
/// moved less than its robustness radius emits its cached contacts, and a
/// call whose every pair is reused on an unchanged pair list emits the
/// cached canonical list directly. On an element-wise unchanged, sorted
/// pair list the schedule statistics are served from ws.schedule too, and
/// the `pair_class_bucket` kernel is still recorded. Counts, statistics and
/// the priced kernels are those of a cold pass.
///
/// `emit_steady = false` is for a caller that still holds the list this
/// workspace last emitted, identity for identity, in its own order: a
/// steady call then leaves out.contacts as it is (out.steady tells), and
/// the caller refreshes its own list with transfer_steady (transfer.hpp).
void narrow_phase(const block::BlockSystem& sys, std::span<const BlockPair> pairs,
                  double rho, NarrowPhaseWorkspace& ws, NarrowPhaseResult& out,
                  simt::KernelCost* cost = nullptr, bool schedule = false,
                  bool emit_steady = true);

/// Convenience form on a throwaway workspace: the cold reference.
NarrowPhaseResult narrow_phase(const block::BlockSystem& sys,
                               std::span<const BlockPair> pairs, double rho,
                               simt::KernelCost* cost = nullptr, bool schedule = false);

/// Angle judgment for a VE candidate: the exterior bisector of the vertex
/// wedge must point roughly against the edge's outward normal. Exposed for
/// unit tests.
bool ve_angle_admissible(const block::Block& bi, int vi, const block::Block& bj, int e1);

} // namespace gdda::contact
