#pragma once
// Scratch array whose slots start uninitialized. A std::vector value-
// initializes every element it grows by, which makes every page of the
// buffer resident even when a pass only ever writes a few slots. Kernels
// that own sparse slots of a large index space (the assembly's per-contact
// contribution slots and the engine's contact geometry records, written
// only for closed contacts) keep their scratch here instead, so untouched
// slots never cost memory.
//
// Growing discards the contents: callers must read only slots they wrote
// since the last reset(). Element types must be trivially copyable (they
// are created implicitly in the malloc'd storage, C++20 [intro.object]).

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <type_traits>

namespace gdda::par {

template <typename T>
class ScratchArray {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

public:
    /// Size the array to `n` slots. Keeps the storage when it is large
    /// enough; otherwise replaces it. Slot contents are unspecified after.
    void reset(std::size_t n) {
        if (n > capacity_) {
            // The contents are discarded, so the old block is freed before
            // the new one is taken: the allocator can then reuse or coalesce
            // it. Taking first leaves a hole behind every growth, and arrays
            // that grow in turn step after step (a settling scene's contact
            // count) ratchet the heap up.
            data_.reset();
            size_ = capacity_ = 0;
            data_.reset(static_cast<T*>(std::malloc(n * sizeof(T))));
            if (!data_) throw std::bad_alloc();
            capacity_ = n;
        }
        size_ = n;
    }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] T* data() { return data_.get(); }
    [[nodiscard]] const T* data() const { return data_.get(); }
    [[nodiscard]] std::span<T> span() { return {data_.get(), size_}; }
    [[nodiscard]] std::span<const T> span() const { return {data_.get(), size_}; }
    T& operator[](std::size_t i) { return data_.get()[i]; }
    const T& operator[](std::size_t i) const { return data_.get()[i]; }

private:
    struct Free {
        void operator()(T* p) const { std::free(p); }
    };
    std::unique_ptr<T, Free> data_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

} // namespace gdda::par
