// GPU-mode support: preconditioner selection and analytic costs of the
// pure-data-movement pipeline pieces.

#include "core/gpu_support.hpp"

#include "contact/contact.hpp"

namespace gdda::core {

std::unique_ptr<solver::Preconditioner> make_preconditioner(PrecondKind kind,
                                                            const sparse::BsrMatrix& a) {
    switch (kind) {
        case PrecondKind::BlockJacobi: return solver::make_block_jacobi(a);
        case PrecondKind::SsorAi: return solver::make_ssor_ai(a);
        case PrecondKind::Ilu0: return solver::make_ilu0(a);
    }
    return solver::make_block_jacobi(a);
}

simt::KernelCost hsbcsr_conversion_cost(const sparse::HsbcsrMatrix& h) {
    simt::KernelCost kc;
    kc.name = "hsbcsr_layout";
    // One scatter of the block data into the slice layout plus index builds
    // (a stable sort of m keys for the lower-triangle mapping).
    kc.bytes_coalesced = static_cast<double>(h.data_bytes());
    kc.bytes_random = static_cast<double>(h.data_bytes());
    kc.bytes_coalesced += h.m * (sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t)) * 8.0;
    kc.flops = h.m * 40.0;
    kc.depth = 30;
    kc.launches = 4;
    return kc;
}

simt::KernelCost hsbcsr_refill_cost(const sparse::HsbcsrMatrix& h) {
    simt::KernelCost kc;
    kc.name = "hsbcsr_refill";
    // Pure value scatter through the cached slice mapping; the sort and
    // index arrays of hsbcsr_layout are structural and already resident.
    kc.bytes_coalesced = static_cast<double>(h.data_bytes());
    kc.bytes_random = static_cast<double>(h.data_bytes());
    kc.depth = 4;
    kc.launches = 1;
    return kc;
}

simt::KernelCost data_update_cost(const block::BlockSystem& sys, std::size_t contacts) {
    std::size_t verts = 0;
    for (const block::Block& b : sys.blocks) verts += b.verts.size();
    simt::KernelCost kc;
    kc.name = "data_update";
    const double v = static_cast<double>(verts);
    const double n = static_cast<double>(sys.size());
    const double m = static_cast<double>(contacts);
    kc.flops = v * 30.0 + n * 80.0 + m * 30.0;
    kc.bytes_coalesced = v * 4.0 * sizeof(double) + n * (12 + 6 + 3) * sizeof(double) +
                         m * sizeof(contact::Contact);
    kc.bytes_texture = v * 6.0 * sizeof(double);
    kc.depth = 12;
    kc.branch_slots = (v + m) / 16.0;
    kc.divergent_slots = 0.05 * kc.branch_slots;
    kc.launches = 4;
    return kc;
}

} // namespace gdda::core
