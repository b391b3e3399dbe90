#pragma once
// Contact initialization (first-order contact geometry for the current
// vertex positions) and the open-close state machine (loop 3 of the DDA
// pipeline). After every linear solve, each contact's normal gap and shear
// stretch under the candidate displacement decide whether its springs
// switch among open / slide / lock; the step's system is reassembled and
// re-solved until the state vector is a fixed point.

#include <array>
#include <span>
#include <vector>

#include "contact/contact.hpp"
#include "simt/cost_model.hpp"
#include "sparse/bsr.hpp"

namespace gdda::contact {

using sparse::BlockVec;

struct OpenCloseParams {
    double penalty = 1e9;       ///< normal spring stiffness p
    double shear_penalty = 1e9; ///< shear spring stiffness p_s
    /// Hysteresis band around gap zero: a closed contact opens only when
    /// dn > open_tol, an open one closes only when dn < -open_tol. Without
    /// the band, the zero-gap contacts of an initially tight blocky system
    /// flip open/lock on +-1e-16 noise and loop 3 never converges. Scaled
    /// by the engine to ~1e-9 of the model size.
    double open_tol = 0.0;
    /// An *open* contact may only close while its penetration is shallower
    /// than this: per-step displacements are bounded by loop 2, so a deeper
    /// "penetration" on a fresh contact is an extended-line artifact of a
    /// corner candidate, and closing it would release a violent spring.
    /// The engine sets this to the per-step displacement allowance.
    double max_closing_depth = 1e30;
    /// Cap on the stored spring stretch fed into the load vector: a deep
    /// committed overlap is pushed out at a bounded rate (~max_push per
    /// step) instead of in one violent step whose ejection velocity
    /// 2*depth/dt can reach hundreds of m/s. The engine scales this with
    /// the current dt (a recovery speed of ~10 m/s).
    double max_push = 1e30;
};

/// First-order contact geometry for the current configuration: the normal
/// half (gap0, en_i, gn_j, ratio, length) and the shear half (es_i, gs_j)
/// of one implementation. The open-close update evaluates the normal half
/// of an open contact inline and writes the full record when it closes.
ContactGeometry init_contact_geometry(const block::BlockSystem& sys, const Contact& c);

/// Modeled cost of initializing `count` contacts (the `contact_init`
/// kernels init_all_contacts records).
simt::KernelCost contact_init_cost(std::size_t count);

/// Initialize the records of the contacts that are closed now (the paper's
/// per-class contact initialization kernels, priced for every contact):
/// out[k] is written for each closed contact k and left as it was for
/// open ones, which no reader needs (docs/CONTACTS.md, "Contact geometry
/// records"). `out` holds one slot per contact. Returns the deepest
/// penetration the closed, on-span contacts carry (a max from +0).
double init_all_contacts(const block::BlockSystem& sys, std::span<const Contact> contacts,
                         std::span<ContactGeometry> out, simt::KernelCost* cost = nullptr);

/// Every contact's full record, open ones included: for callers outside
/// the step loop that assign contact states by hand. Not priced.
std::vector<ContactGeometry> contact_geometry(const block::BlockSystem& sys,
                                              std::span<const Contact> contacts);

/// What one solve pass's increment does to one block, as the open-close
/// certificate reads it: the translation (d[0], d[1]) and a bound `spin` on
/// how far the rotation and strain terms move any vertex of the block,
/// |T(p) d - (u, v)| <= spin (docs/CONTACTS.md, "The open-close
/// certificate"). update_contact_states fills one per block into the
/// caller's scratch.
struct BlockMotion {
    double u = 0.0;
    double v = 0.0;
    double spin = 0.0;
};

struct OpenCloseResult {
    int state_changes = 0;
    /// state_changes per (from, to) pair, indexed by ContactState: entry
    /// [from][to] counts the contacts that switched from `from` to `to`.
    /// The diagonal stays 0 and the entries sum to state_changes.
    std::array<std::array<int, 3>, 3> transitions{};
    std::size_t closed = 0;       ///< contacts closed after the update
    /// Contacts evaluated under d; the others were open and certified or
    /// off their edge's span, and read no row of d.
    std::size_t evaluated = 0;
    double max_penetration = 0.0; ///< deepest residual penetration (>= 0)
};

/// Evaluate each contact under the solved increment `d` and update states.
/// Returns the number of switches; zero means loop 3 converged. geo[k]
/// must hold contact k's full record while k is closed; an open contact's
/// slot is not read, and gets its full record when the contact closes.
/// `motion` (one slot per block) is scratch: the update fills it from `d`
/// in one parallel pass over the vertices. An open contact whose entry gap
/// certifiably exceeds what its blocks' relative motion can close, or whose
/// projection falls off its edge's span, stays open without reading `d`.
/// Every contact that ends open holds last_gap = +0.
OpenCloseResult update_contact_states(const block::BlockSystem& sys,
                                      std::span<ContactGeometry> geo,
                                      std::vector<Contact>& contacts, const BlockVec& d,
                                      std::span<BlockMotion> motion,
                                      const OpenCloseParams& params,
                                      simt::KernelCost* cost = nullptr);

/// End-of-step bookkeeping: accumulate shear stretch on locked contacts and
/// reset the sliding reference on sliding/open ones (written only where it
/// is not already +0). Reads only the records of locked contacts.
void commit_contact_springs(std::span<const ContactGeometry> geo,
                            std::vector<Contact>& contacts, const BlockVec& d);

} // namespace gdda::contact
