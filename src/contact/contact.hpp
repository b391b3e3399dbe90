#pragma once
// Contact data model. Narrow-phase detection classifies candidate contacts
// into vertex-edge (VE) and vertex-vertex (VV); the angle judgment further
// splits VV into VV1 (parallel adjacent edges -> behaves like two VE
// contacts) and VV2 (non-parallel -> one VE contact on the entrance edge).
// This classification is the paper's Fig. 2/Fig. 3 data-divergence scheme:
// each class runs its own uniform pipeline.
//
// Every classified contact carries one penalty "contact point": a vertex of
// block bi against an edge (e1, e2) of block bj. Open-close state and
// accumulated spring displacements are transferred across steps.

#include <cstdint>
#include <vector>

#include "block/block_system.hpp"
#include "sparse/mat6.hpp"

namespace gdda::contact {

using block::BlockSystem;
using geom::Vec2;
using sparse::Vec6;

enum class ContactKind : std::uint8_t { VE = 0, VV1 = 1, VV2 = 2 };

enum class ContactState : std::uint8_t { Open = 0, Slide = 1, Lock = 2 };

/// Contact::key() of vertex vi of block bi against edge e1 of block bj.
inline std::uint64_t contact_key(std::int32_t bi, std::int32_t vi, std::int32_t bj,
                                 std::int32_t e1) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(bi)) << 40) ^
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(vi) & 0xff) << 32) ^
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(bj)) << 8) ^
           (static_cast<std::uint32_t>(e1) & 0xff);
}

struct Contact {
    ContactKind kind = ContactKind::VE;
    std::int32_t bi = 0; ///< block owning the vertex
    std::int32_t vi = 0; ///< vertex index within bi
    std::int32_t bj = 0; ///< block owning the edge
    std::int32_t e1 = 0; ///< edge start vertex index within bj
    std::int32_t e2 = 0; ///< edge end vertex index within bj (= e1+1 mod n)

    ContactState state = ContactState::Open;
    ContactState prev_state = ContactState::Open;

    /// Accumulated tangential (shear) spring displacement carried across
    /// steps while the contact stays locked.
    double shear_disp = 0.0;
    /// Sliding direction sign from the previous open-close pass (+1/-1).
    double slide_sign = 1.0;
    /// Normal gap observed at the last open-close evaluation; the friction
    /// force of a sliding contact is mu * p * max(-last_gap, 0).
    double last_gap = 0.0;
    /// Contact-point position along the edge (transferred for bookkeeping).
    double edge_ratio = 0.5;

    /// State-switch indicators (paper section III.A): p1 tracks the normal
    /// spring (on/off), p2 the shear spring; values in {-1, 0, +1}.
    std::int8_t p1 = 0;
    std::int8_t p2 = 0;

    /// Canonical identity for transfer matching between steps.
    [[nodiscard]] std::uint64_t key() const { return contact_key(bi, vi, bj, e1); }

    [[nodiscard]] bool has_normal_spring() const { return state != ContactState::Open; }
    [[nodiscard]] bool has_shear_spring() const { return state == ContactState::Lock; }
};

/// Geometry of one contact point, refreshed by contact initialization for
/// the current vertex positions (all first-order DDA quantities).
struct ContactGeometry {
    Vec6 en_i;   ///< gradient of the normal gap w.r.t. d_i
    Vec6 gn_j;   ///< gradient of the normal gap w.r.t. d_j
    Vec6 es_i;   ///< gradient of the shear displacement w.r.t. d_i
    Vec6 gs_j;   ///< gradient of the shear displacement w.r.t. d_j
    double gap0 = 0.0;    ///< current normal gap (negative = penetration)
    double length = 1.0;  ///< contacted edge length
    /// Unclamped projection parameter of the vertex onto the edge line.
    /// Outside [0, 1] the "gap" is measured to the extended line, so a
    /// negative value is a corner artifact rather than real penetration;
    /// the open-close machine refuses to close such contacts.
    double ratio = 0.5;
};

/// Per-category counts after classification (Fig. 2's C1..C5 statistics).
struct ClassificationStats {
    std::size_t candidates = 0; ///< narrow-phase inputs
    std::size_t ve = 0;
    std::size_t vv1 = 0;
    std::size_t vv2 = 0;
    std::size_t abandoned = 0;
};

} // namespace gdda::contact
