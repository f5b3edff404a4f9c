// Minimal dense tensor types for the SNN kernels.
//
// The network layer works on float precision: the Diehl&Cook dynamics are
// robust to it and it halves memory traffic in the training inner loop.
//
// Matrix storage is 64-byte aligned and every row is padded to a 64-byte
// stride (kernels::kPadFloats floats, see snn/kernels.hpp). The padding
// lanes are ALWAYS zero — construction, fill() and the store codec keep
// the invariant — so the sparse drive-accumulation kernel can stream
// whole padded rows without a scalar tail: accumulating a zero padding
// lane never perturbs a logical column. Logical accessors (row(),
// operator(), to_vector()) never expose padding; kernels reach it via
// padded_row()/stride().
#pragma once

#include <cstddef>
#include <limits>
#include <new>
#include <span>
#include <stdexcept>
#include <vector>

#include "snn/kernels.hpp"

namespace snnfi::snn {

/// std::vector allocator with 64-byte alignment — the hot-path buffers
/// (weight rows, drive accumulators) want whole-cache-line rows for the
/// blocked kernels.
template <class T>
struct AlignedAllocator {
    using value_type = T;

    AlignedAllocator() = default;
    template <class U>
    AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

    T* allocate(std::size_t n) {
        return static_cast<T*>(::operator new(
            n * sizeof(T), std::align_val_t{kernels::kAlignBytes}));
    }
    void deallocate(T* p, std::size_t) noexcept {
        ::operator delete(p, std::align_val_t{kernels::kAlignBytes});
    }

    template <class U>
    bool operator==(const AlignedAllocator<U>&) const noexcept {
        return true;
    }
};

/// 64-byte-aligned float buffer (matrix storage, drive accumulators).
using AlignedVector = std::vector<float, AlignedAllocator<float>>;

/// Row-major 2-D array (rows = pre-synaptic, cols = post-synaptic for
/// weight matrices), padded per row to the kernel stride.
class Matrix {
public:
    Matrix() = default;
    /// Throws std::length_error when the padded row or the whole storage
    /// would not fit in std::size_t.
    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
        : rows_(rows), cols_(cols), stride_(checked_stride(rows, cols)),
          data_(rows * stride_, 0.0f) {
        if (fill != 0.0f) this->fill(fill);
    }

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    /// Padded row length (a multiple of kernels::kPadFloats).
    std::size_t stride() const noexcept { return stride_; }
    bool empty() const noexcept { return data_.empty(); }

    float& operator()(std::size_t r, std::size_t c) {
        return data_[r * stride_ + c];
    }
    float operator()(std::size_t r, std::size_t c) const {
        return data_[r * stride_ + c];
    }
    float& at(std::size_t r, std::size_t c);
    float at(std::size_t r, std::size_t c) const;

    std::span<float> row(std::size_t r) {
        return {data_.data() + r * stride_, cols_};
    }
    std::span<const float> row(std::size_t r) const {
        return {data_.data() + r * stride_, cols_};
    }
    /// The full padded row (trailing stride()-cols() lanes are zero) —
    /// kernel input only; logical code uses row().
    std::span<const float> padded_row(std::size_t r) const {
        return {data_.data() + r * stride_, stride_};
    }
    /// Base pointer of the padded storage (row r at data() + r*stride()).
    const float* data() const noexcept { return data_.data(); }
    /// Mutable padded storage, for kernels that keep the padding lanes
    /// zero.
    float* data() noexcept { return data_.data(); }

    /// Logical elements in row-major order, padding elided — the
    /// serialisation form (the store blob layout predates padding and
    /// stays unchanged).
    std::vector<float> to_vector() const;

    void fill(float value) {
        for (std::size_t r = 0; r < rows_; ++r) {
            float* p = data_.data() + r * stride_;
            for (std::size_t c = 0; c < cols_; ++c) p[c] = value;
        }
    }

    /// Sum over rows for one column (total input weight of a post neuron).
    float column_sum(std::size_t c) const;
    /// Multiplies every entry of column c by factor.
    void scale_column(std::size_t c, float factor);

private:
    /// padded_size(cols), once it and rows * stride are known not to wrap
    /// (a wrapped size would allocate less than the rows index).
    static std::size_t checked_stride(std::size_t rows, std::size_t cols) {
        constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
        if (cols > kMax - (kernels::kPadFloats - 1))
            throw std::length_error("Matrix: padded row length overflows");
        const std::size_t stride = kernels::padded_size(cols);
        if (stride != 0 && rows > kMax / stride)
            throw std::length_error("Matrix: storage size overflows");
        return stride;
    }

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t stride_ = 0;
    AlignedVector data_;
};

inline float& Matrix::at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * stride_ + c];
}

inline float Matrix::at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * stride_ + c];
}

inline std::vector<float> Matrix::to_vector() const {
    std::vector<float> flat;
    flat.reserve(rows_ * cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        const auto src = row(r);
        flat.insert(flat.end(), src.begin(), src.end());
    }
    return flat;
}

inline float Matrix::column_sum(std::size_t c) const {
    float total = 0.0f;
    for (std::size_t r = 0; r < rows_; ++r) total += data_[r * stride_ + c];
    return total;
}

inline void Matrix::scale_column(std::size_t c, float factor) {
    for (std::size_t r = 0; r < rows_; ++r) data_[r * stride_ + c] *= factor;
}

}  // namespace snnfi::snn
