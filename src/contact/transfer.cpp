#include "contact/transfer.hpp"

#include <algorithm>

#include "par/deterministic_reduce.hpp"
#include "par/radix_sort.hpp"

namespace gdda::contact {

TransferStats transfer_contacts(std::span<const Contact> previous,
                                std::vector<Contact>& current,
                                simt::KernelCost* cost) {
    TransferStats stats;

    // The previous step's list is normally the narrow phase's canonical
    // output, already strictly increasing in key(): one O(n) check confirms
    // it, and the search then runs on `previous` itself. Any other order
    // goes through the sorted key index (the paper's array SA).
    bool canonical = true;
    for (std::size_t i = 1; i < previous.size() && canonical; ++i)
        canonical = previous[i - 1].key() < previous[i].key();
    std::vector<std::uint32_t> prev_order;
    std::vector<std::uint64_t> sorted_keys;
    if (!canonical) {
        std::vector<std::uint64_t> prev_keys(previous.size());
        for (std::size_t i = 0; i < previous.size(); ++i) prev_keys[i] = previous[i].key();
        prev_order = par::sort_permutation(prev_keys);
        sorted_keys.resize(previous.size());
        for (std::size_t i = 0; i < prev_order.size(); ++i)
            sorted_keys[i] = prev_keys[prev_order[i]];
    }
    const std::size_t n_prev = previous.size();
    auto key_at = [&](std::size_t i) {
        return canonical ? previous[i].key() : sorted_keys[i];
    };
    // First sorted position >= key at or after `from`, galloping out from
    // `from` before the binary search: `current` is key-sorted too, so
    // consecutive searches land close together.
    auto search = [&](std::size_t from, std::uint64_t key) {
        std::size_t lo = from;
        std::size_t hi = from;
        for (std::size_t step = 1; hi < n_prev && key_at(hi) < key; step *= 2) {
            lo = hi + 1;
            hi += step;
        }
        hi = std::min(hi, n_prev);
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (key_at(mid) < key) lo = mid + 1;
            else hi = mid;
        }
        return lo;
    };

    // Fixed chunks of `current`, each writing only its own entries; the
    // match count is an integer sum, exact in any grouping. Within a chunk
    // each search starts from the last hit (or from 0 if the key went down),
    // which any order of `current` keeps correct.
    const std::size_t matched = par::exact_reduce<std::size_t>(
        current.size(),
        [&](std::size_t begin, std::size_t end) {
            std::size_t hits = 0;
            std::size_t pos = 0;
            std::uint64_t last = 0;
            for (std::size_t ci = begin; ci < end; ++ci) {
                Contact& c = current[ci];
                const std::uint64_t key = c.key();
                pos = search(key >= last ? pos : 0, key);
                last = key;
                if (pos < n_prev && key_at(pos) == key) {
                    const Contact& p = previous[canonical ? pos : prev_order[pos]];
                    c.state = p.state;
                    c.prev_state = p.state;
                    c.shear_disp = p.shear_disp;
                    c.slide_sign = p.slide_sign;
                    c.last_gap = p.last_gap;
                    ++hits;
                } else {
                    c.state = ContactState::Open;
                    c.prev_state = ContactState::Open;
                    c.shear_disp = 0.0;
                }
            }
            return hits;
        },
        [](std::size_t x, std::size_t y) { return x + y; });
    stats.matched = matched;
    stats.fresh = current.size() - matched;
    stats.expired = previous.size() - matched;

    if (cost) {
        simt::KernelCost kc;
        kc.name = "contact_transfer";
        const double np = static_cast<double>(previous.size());
        const double nc = static_cast<double>(current.size());
        // Radix sort passes + one binary search per previous contact by a
        // half-warp (the paper assigns 16 threads per search).
        kc.flops = np * 16.0 + nc * 32.0;
        kc.bytes_coalesced = np * (sizeof(std::uint64_t) + sizeof(Contact)) * 3.0 +
                             nc * sizeof(Contact) * 2.0;
        kc.bytes_texture = nc * 24.0 * sizeof(std::uint64_t) / 16.0; // search probes
        kc.depth = 24.0;
        kc.branch_slots = nc;
        kc.divergent_slots = 0.15 * nc;
        kc.launches = 5;
        simt::record_kernel(cost, kc);
    }
    return stats;
}

} // namespace gdda::contact
