#pragma once
// Contact transfer: carry open-close state, accumulated spring displacements
// and bookkeeping from the previous step's contacts into the current step's
// freshly detected set. The GPU algorithm (paper section III.B) sorts the
// combined contact array by block key and binary-searches each previous
// contact; this implementation mirrors that with the par:: radix sort.

#include <span>
#include <vector>

#include "contact/contact.hpp"
#include "contact/narrow_phase.hpp"
#include "simt/cost_model.hpp"

namespace gdda::contact {

struct TransferStats {
    std::size_t matched = 0;
    std::size_t expired = 0; ///< previous contacts with no successor
    std::size_t fresh = 0;   ///< current contacts with no predecessor
};

/// The fields of a contact that an attempt of a step can change, as they
/// stand at step entry. The open-close update also writes prev_state, p1
/// and p2, but at step entry prev_state == state and p1 == p2 == 0, so
/// this record restores the whole contact (restore_entry_states).
struct EntryState {
    double slide_sign;
    double last_gap;
    ContactState state;
};

/// `current` must be sorted by Contact::key() (narrow_phase guarantees it).
/// A non-empty `entry` (one slot per current contact) receives each
/// transferred contact's EntryState.
TransferStats transfer_contacts(std::span<const Contact> previous,
                                std::vector<Contact>& current,
                                simt::KernelCost* cost = nullptr,
                                std::span<EntryState> entry = {});

/// Transfer on a steady step, in place: `contacts` is the list a
/// narrow-phase call emitted from `canon` one step earlier, carried and
/// committed since, and `canon` is unchanged (a steady call that did not
/// emit). Equals emitting `canon` and transferring `contacts` into it, bit
/// for bit: every contact matches itself, so it keeps state, shear_disp,
/// slide_sign and last_gap, gets prev_state = state and p1 = p2 = 0, and
/// its edge_ratio is recomputed as the emission computes it. Writes `entry`
/// like transfer_contacts and records the same priced kernel.
void transfer_steady(const block::BlockSystem& sys,
                     std::span<const NarrowPhaseWorkspace::Emitted> canon,
                     std::span<Contact> contacts, std::span<EntryState> entry,
                     simt::KernelCost* cost = nullptr);

/// A retry: put every contact back to its step-entry state.
void restore_entry_states(std::span<const EntryState> entry, std::span<Contact> contacts);

} // namespace gdda::contact
