// Parallel primitives: scan, compaction, radix sort, segment machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>

#include "par/device_scan.hpp"
#include "par/parallel_for.hpp"
#include "par/radix_sort.hpp"
#include "par/scan.hpp"

namespace p = gdda::par;

TEST(Scan, ExclusiveBasics) {
    const std::vector<std::uint32_t> in = {3, 1, 4, 1, 5};
    std::vector<std::uint32_t> out(in.size());
    const std::uint64_t total = p::exclusive_scan(in, out);
    EXPECT_EQ(total, 14u);
    EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 3, 4, 8, 9}));
}

TEST(Scan, InclusiveBasics) {
    const std::vector<std::uint32_t> in = {3, 1, 4, 1, 5};
    std::vector<std::uint32_t> out(in.size());
    const std::uint64_t total = p::inclusive_scan(in, out);
    EXPECT_EQ(total, 14u);
    EXPECT_EQ(out, (std::vector<std::uint32_t>{3, 4, 8, 9, 14}));
}

TEST(Scan, EmptyInput) {
    std::vector<std::uint32_t> in;
    std::vector<std::uint32_t> out;
    EXPECT_EQ(p::exclusive_scan(in, out), 0u);
}

TEST(Scan, CompactIndices) {
    const std::vector<std::uint32_t> flags = {0, 1, 1, 0, 1, 0, 0, 1};
    EXPECT_EQ(p::compact_indices(flags), (std::vector<std::uint32_t>{1, 2, 4, 7}));
    EXPECT_TRUE(p::compact_indices(std::vector<std::uint32_t>{}).empty());
    EXPECT_TRUE(p::compact_indices(std::vector<std::uint32_t>{0, 0}).empty());
}

TEST(Scan, Gather) {
    const std::vector<int> vals = {10, 20, 30, 40};
    const std::vector<std::uint32_t> idx = {3, 0, 3};
    EXPECT_EQ(p::gather<int>(vals, idx), (std::vector<int>{40, 10, 40}));
}

TEST(Scan, SegmentHeadsAndEnds) {
    const std::vector<std::uint64_t> keys = {5, 5, 7, 9, 9, 9};
    const auto heads = p::segment_heads(keys);
    EXPECT_EQ(heads, (std::vector<std::uint32_t>{1, 0, 1, 1, 0, 0}));
    const auto ends = p::segment_ends(heads);
    EXPECT_EQ(ends, (std::vector<std::uint32_t>{2, 3, 6}));
}

TEST(Scan, SegmentSingletons) {
    const std::vector<std::uint64_t> keys = {1, 2, 3};
    const auto ends = p::segment_ends(p::segment_heads(keys));
    EXPECT_EQ(ends, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(RadixSort, MatchesStdSort) {
    std::mt19937_64 rng(42);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{31}, std::size_t{32}, std::size_t{1000}, std::size_t{4096}}) {
        std::vector<std::uint64_t> keys(n);
        for (auto& k : keys) k = rng();
        std::vector<std::uint64_t> expect = keys;
        std::sort(expect.begin(), expect.end());
        p::radix_sort(keys);
        EXPECT_EQ(keys, expect) << "n=" << n;
    }
}

TEST(RadixSort, SmallKeyRangeSkipsPasses) {
    // All keys < 256: only the first pass should move anything, and the
    // result must still be correct.
    std::mt19937_64 rng(1);
    std::vector<std::uint64_t> keys(500);
    for (auto& k : keys) k = rng() % 256;
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    p::radix_sort(keys);
    EXPECT_EQ(keys, expect);
}

TEST(RadixSort, PairsStable) {
    // Duplicate keys must preserve payload order (stability is what keeps
    // the spatial-hash grid layout, and a Fig. 4 sort/scan assembly,
    // independent of the emission chunking).
    std::vector<std::uint64_t> keys = {2, 1, 2, 1, 2};
    std::vector<std::uint32_t> vals = {0, 1, 2, 3, 4};
    p::radix_sort_pairs(keys, vals);
    EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 1, 2, 2, 2}));
    EXPECT_EQ(vals, (std::vector<std::uint32_t>{1, 3, 0, 2, 4}));
}

TEST(RadixSort, SortPermutation) {
    const std::vector<std::uint64_t> keys = {30, 10, 20};
    const auto perm = p::sort_permutation(keys);
    EXPECT_EQ(perm, (std::vector<std::uint32_t>{1, 2, 0}));
}

TEST(RadixSort, PairsRandomAgainstStableSort) {
    std::mt19937_64 rng(7);
    std::vector<std::uint64_t> keys(2000);
    std::vector<std::uint32_t> vals(2000);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i] = rng() % 97; // many duplicates
        vals[i] = static_cast<std::uint32_t>(i);
    }
    std::vector<std::size_t> order(keys.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
    auto k = keys;
    auto v = vals;
    p::radix_sort_pairs(k, v);
    for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(k[i], keys[order[i]]);
        EXPECT_EQ(v[i], vals[order[i]]);
    }
}

TEST(ParallelFor, CoversAllIndicesOnce) {
    std::vector<int> hits(10000, 0);
    p::parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
    EXPECT_GE(p::hardware_threads(), 1);
}

TEST(DeviceScan, MatchesReferenceAcrossBlockBoundaries) {
    std::mt19937 rng(21);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, p::kScanBlock - 1, p::kScanBlock,
                          p::kScanBlock + 1, 5 * p::kScanBlock + 17}) {
        std::vector<std::uint32_t> in(n);
        for (auto& v : in) v = rng() % 100;
        std::vector<std::uint32_t> ref(n);
        std::vector<std::uint32_t> dev(n);
        const auto t_ref = p::exclusive_scan(in, ref);
        gdda::simt::KernelCost kc{.name = {}, .launches = 0};
        const auto t_dev = p::device_exclusive_scan(in, dev, &kc);
        EXPECT_EQ(t_ref, t_dev) << "n=" << n;
        EXPECT_EQ(ref, dev) << "n=" << n;
        if (n > 0) {
            EXPECT_EQ(kc.launches, 3);
        }
    }
}

TEST(ReduceByKey, SumsRuns) {
    const std::vector<std::uint64_t> keys = {2, 2, 5, 7, 7, 7};
    const std::vector<double> vals = {1.0, 2.0, 10.0, 1.5, 1.5, 1.0};
    const auto r = p::reduce_by_key(keys, vals);
    EXPECT_EQ(r.keys, (std::vector<std::uint64_t>{2, 5, 7}));
    ASSERT_EQ(r.sums.size(), 3u);
    EXPECT_DOUBLE_EQ(r.sums[0], 3.0);
    EXPECT_DOUBLE_EQ(r.sums[1], 10.0);
    EXPECT_DOUBLE_EQ(r.sums[2], 4.0);
}

TEST(ReduceByKey, EmptyAndSingleton) {
    const auto empty = p::reduce_by_key(std::vector<std::uint64_t>{}, std::vector<double>{});
    EXPECT_TRUE(empty.keys.empty());
    const auto one =
        p::reduce_by_key(std::vector<std::uint64_t>{9}, std::vector<double>{4.5});
    ASSERT_EQ(one.keys.size(), 1u);
    EXPECT_DOUBLE_EQ(one.sums[0], 4.5);
}

TEST(ReduceByKey, RandomAgainstMap) {
    std::mt19937 rng(33);
    std::vector<std::uint64_t> keys(3000);
    std::vector<double> vals(3000);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i] = rng() % 50;
        vals[i] = 0.25 * (rng() % 8);
    }
    std::sort(keys.begin(), keys.end());
    std::map<std::uint64_t, double> expect;
    for (std::size_t i = 0; i < keys.size(); ++i) expect[keys[i]] += vals[i];
    const auto r = p::reduce_by_key(keys, vals);
    ASSERT_EQ(r.keys.size(), expect.size());
    std::size_t idx = 0;
    for (const auto& [k, v] : expect) {
        EXPECT_EQ(r.keys[idx], k);
        EXPECT_DOUBLE_EQ(r.sums[idx], v);
        ++idx;
    }
}
