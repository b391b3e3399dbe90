#pragma once
// Contact initialization (first-order contact geometry for the current
// vertex positions) and the open-close state machine (loop 3 of the DDA
// pipeline). After every linear solve, each contact's normal gap and shear
// stretch under the candidate displacement decide whether its springs
// switch among open / slide / lock; the step's system is reassembled and
// re-solved until the state vector is a fixed point.

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

/// First-order contact geometry for the current configuration.
ContactGeometry init_contact_geometry(const block::BlockSystem& sys, const Contact& c);

/// Initialize geometry for all contacts (the paper's per-class contact
/// initialization kernels).
std::vector<ContactGeometry> init_all_contacts(const block::BlockSystem& sys,
                                               std::span<const Contact> contacts,
                                               simt::KernelCost* cost = nullptr);

/// As above, into a caller-owned vector whose capacity is reused.
void init_all_contacts(const block::BlockSystem& sys, std::span<const Contact> contacts,
                       std::vector<ContactGeometry>& out, simt::KernelCost* cost = nullptr);

struct OpenCloseResult {
    int state_changes = 0;
    double max_penetration = 0.0; ///< deepest residual penetration (>= 0)
    double max_tension_violation = 0.0;
};

/// Evaluate each contact under the solved increment `d` and update states.
/// Returns the number of switches; zero means loop 3 converged.
OpenCloseResult update_contact_states(const block::BlockSystem& sys,
                                      std::span<const ContactGeometry> geo,
                                      std::vector<Contact>& contacts, const BlockVec& d,
                                      const OpenCloseParams& params,
                                      simt::KernelCost* cost = nullptr);

/// End-of-step bookkeeping: accumulate shear stretch on locked contacts and
/// reset the sliding reference on sliding/open ones.
void commit_contact_springs(std::span<const ContactGeometry> geo,
                            std::vector<Contact>& contacts, const BlockVec& d);

} // namespace gdda::contact
