#include "spice/linear.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace snnfi::spice {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

void Matrix::fill(double value) { data_.assign(data_.size(), value); }

std::span<double> Matrix::row(std::size_t r) {
    if (r >= rows_) throw std::out_of_range("Matrix::row");
    return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
    if (r >= rows_) throw std::out_of_range("Matrix::row");
    return {data_.data() + r * cols_, cols_};
}

std::vector<double> Matrix::multiply(std::span<const double> x) const {
    if (x.size() != cols_) throw std::invalid_argument("Matrix::multiply: size mismatch");
    std::vector<double> y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        const double* row_ptr = data_.data() + r * cols_;
        for (std::size_t c = 0; c < cols_; ++c) acc += row_ptr[c] * x[c];
        y[r] = acc;
    }
    return y;
}

namespace {

/// A pivot smaller than this in magnitude makes the matrix singular.
constexpr double kSingularPivot = 1e-300;

/// True if some entry of `values` that `outside` masks (all ones) is
/// nonzero; -0.0 counts as zero. Four independent lanes keep the scan off
/// one dependency chain.
bool any_outside(const double* values, const std::uint64_t* outside, std::size_t size) {
    std::uint64_t lanes[4] = {0, 0, 0, 0};
    std::size_t i = 0;
    for (; i + 4 <= size; i += 4)
        for (std::size_t j = 0; j < 4; ++j)
            lanes[j] |= (std::bit_cast<std::uint64_t>(values[i + j]) << 1) & outside[i + j];
    for (; i < size; ++i)
        lanes[0] |= (std::bit_cast<std::uint64_t>(values[i]) << 1) & outside[i];
    return (lanes[0] | lanes[1] | lanes[2] | lanes[3]) != 0;
}

}  // namespace

bool LuFactorization::factorize(const Matrix& a, bool record_pattern) {
    if (a.rows() != a.cols()) throw std::invalid_argument("LuFactorization: non-square");
    factored_ = false;
    replayed_ = false;
    if (recorded_ && a.rows() == n_ && !any_outside(a.data(), outside_.data(), n_ * n_)) {
        const Replay outcome = replay(a);
        if (outcome == Replay::kDone) return factored_ = replayed_ = true;
        if (outcome == Replay::kSingular) return false;  // the record stays valid
    }
    // No record fits, or a step picked another pivot than the recorded one:
    // the dense elimination from the start.
    n_ = a.rows();
    lu_ = a;
    pivot_.resize(n_);
    pivot_pos_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) pivot_[i] = i;
    recorded_ = false;
    if (!eliminate()) return false;
    if (record_pattern) record(a);
    return factored_ = true;
}

LuFactorization::Replay LuFactorization::replay(const Matrix& a) {
    const std::size_t n = n_;
    double* const lu = lu_.data();
    const std::uint32_t* const index = index_.data();
    // Each row goes straight to the position the recorded elimination
    // leaves it in.
    for (std::size_t r = 0; r < n; ++r) std::copy_n(a.data() + pivot_[r] * n, n, lu + r * n);
    for (std::size_t k = 0; k < n; ++k) {
        const Step& step = steps_[k];
        // The dense pivot search over the rows that can be nonzero: the
        // others hold +0.0, which never beats the diagonal under >.
        std::uint32_t best = step.diagonal;
        double best_mag = std::abs(lu[best * n + k]);
        for (std::uint32_t i = step.search; i < step.column; ++i) {
            const double mag = std::abs(lu[index[i] * n + k]);
            if (mag > best_mag) {
                best_mag = mag;
                best = index[i];
            }
        }
        if (best_mag < kSingularPivot) return Replay::kSingular;
        if (best != k) return Replay::kDiverged;  // the recorded pivot row ends at k
        const double* pivot = lu + k * n;
        const double diag_inv = 1.0 / pivot[k];
        const std::uint32_t upper_end = steps_[k + 1].search;
        for (std::uint32_t i = step.column; i < step.upper; ++i) {
            double* row = lu + index[i] * n;
            const double factor = row[k] * diag_inv;
            row[k] = factor;
            if (factor == 0.0) continue;
            for (std::uint32_t j = step.upper; j < upper_end; ++j)
                row[index[j]] -= factor * pivot[index[j]];
        }
    }
    return Replay::kDone;
}

bool LuFactorization::eliminate() {
    const std::size_t n = n_;
    double* const lu = lu_.data();
    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivot: largest magnitude in column k at/below the diagonal.
        std::size_t best = k;
        double best_mag = std::abs(lu[k * n + k]);
        for (std::size_t r = k + 1; r < n; ++r) {
            const double mag = std::abs(lu[r * n + k]);
            if (mag > best_mag) {
                best_mag = mag;
                best = r;
            }
        }
        if (best_mag < kSingularPivot) return false;  // numerically singular
        pivot_pos_[k] = best;
        if (best != k) {
            std::swap(pivot_[k], pivot_[best]);
            std::swap_ranges(lu + k * n, lu + (k + 1) * n, lu + best * n);
        }
        const double diag_inv = 1.0 / lu[k * n + k];
        for (std::size_t r = k + 1; r < n; ++r) {
            const double factor = lu[r * n + k] * diag_inv;
            lu[r * n + k] = factor;
            if (factor == 0.0) continue;
            for (std::size_t c = k + 1; c < n; ++c) lu[r * n + c] -= factor * lu[k * n + c];
        }
    }
    return true;
}

void LuFactorization::record(const Matrix& a) {
    // The elimination run on the pattern, one bitset per row of `a`: an
    // entry can be nonzero once it is nonzero in `a` or a step updates it
    // from a nonzero factor and a nonzero pivot-row entry. The lists name
    // each row by the position it ends at (`where`), and are built without
    // branching on the pattern (store, then advance by the bit), which the
    // pattern's irregularity would mispredict.
    const std::size_t n = n_;
    const std::size_t words = (n + 63) / 64;
    structure_.resize(n * words);
    outside_.resize(n * n);
    order_.resize(2 * n);
    steps_.resize(n + 1);
    // Each step lists at most n - 1 rows twice, L and U hold at most n - 1
    // columns per row, and a list's last store may land one past its end.
    index_.resize(2 * n * n);
    std::uint64_t* const rows = structure_.data();
    std::uint64_t* const outside = outside_.data();
    std::size_t* const order = order_.data();  // row at each position, step by step
    std::size_t* const where = order + n;      // final position of each row
    std::uint32_t* const index = index_.data();
    const double* const values = a.data();
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t bits = 0;
            for (std::size_t c = w * 64; c < std::min(n, w * 64 + 64); ++c) {
                const std::uint64_t nonzero = values[r * n + c] != 0.0;
                outside[r * n + c] = nonzero - 1;  // all ones where zero
                bits |= nonzero << (c % 64);
            }
            rows[r * words + w] = bits;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        order[i] = i;
        where[pivot_[i]] = i;
    }
    const auto bit = [&](std::size_t row, std::size_t col) -> std::size_t {
        return (rows[row * words + col / 64] >> (col % 64)) & 1;
    };

    std::size_t next = 0;
    const auto rows_below = [&](std::size_t k) {
        for (std::size_t j = k + 1; j < n; ++j) {
            index[next] = static_cast<std::uint32_t>(where[order[j]]);
            next += bit(order[j], k);
        }
    };
    for (std::size_t k = 0; k < n; ++k) {
        Step& step = steps_[k];
        step.diagonal = static_cast<std::uint32_t>(where[order[k]]);
        step.search = static_cast<std::uint32_t>(next);
        rows_below(k);
        std::swap(order[k], order[pivot_pos_[k]]);
        const std::size_t p = order[k];
        step.column = static_cast<std::uint32_t>(next);
        rows_below(k);
        step.upper = static_cast<std::uint32_t>(next);
        for (std::size_t c = k + 1; c < n; ++c) {
            index[next] = static_cast<std::uint32_t>(c);
            next += bit(p, c);
        }
        // Every row below with an entry in column k gains the pivot row's
        // entries right of k.
        for (std::size_t j = k + 1; j < n; ++j) {
            if (!bit(order[j], k)) continue;
            for (std::size_t w = 0; w < words; ++w) {
                const std::size_t first = w * 64;  // the column of bit 0
                const std::uint64_t right =
                    k < first ? ~std::uint64_t{0}
                              : (k - first >= 63 ? 0 : ~std::uint64_t{0} << (k - first + 1));
                rows[order[j] * words + w] |= rows[p * words + w] & right;
            }
        }
    }
    steps_[n].search = static_cast<std::uint32_t>(next);
    for (std::size_t k = 0; k < n; ++k) {
        steps_[k].lower = static_cast<std::uint32_t>(next);
        for (std::size_t c = 0; c < k; ++c) {
            index[next] = static_cast<std::uint32_t>(c);
            next += bit(pivot_[k], c);
        }
    }
    steps_[n].lower = static_cast<std::uint32_t>(next);
    recorded_ = true;
}

std::vector<double> LuFactorization::solve(std::span<const double> b) const {
    if (!factored_) throw std::logic_error("LuFactorization::solve: no factorisation");
    if (b.size() != n_) throw std::invalid_argument("LuFactorization::solve: size mismatch");
    std::vector<double> x(n_);
    const double* const lu = lu_.data();
    const std::uint32_t* const index = index_.data();
    // Forward substitution with row permutation, then backward
    // substitution, over the recorded L and U when there is a record and
    // over every column otherwise.
    for (std::size_t r = 0; r < n_; ++r) {
        const double* row = lu + r * n_;
        double acc = b[pivot_[r]];
        if (recorded_) {
            for (std::uint32_t i = steps_[r].lower; i < steps_[r + 1].lower; ++i)
                acc -= row[index[i]] * x[index[i]];
        } else {
            for (std::size_t c = 0; c < r; ++c) acc -= row[c] * x[c];
        }
        x[r] = acc;
    }
    for (std::size_t r = n_; r-- > 0;) {
        const double* row = lu + r * n_;
        double acc = x[r];
        if (recorded_) {
            for (std::uint32_t i = steps_[r].upper; i < steps_[r + 1].search; ++i)
                acc -= row[index[i]] * x[index[i]];
        } else {
            for (std::size_t c = r + 1; c < n_; ++c) acc -= row[c] * x[c];
        }
        x[r] = acc / row[r];
    }
    return x;
}

std::vector<double> solve_linear_system(const Matrix& a, std::span<const double> b) {
    LuFactorization lu;
    if (!lu.factorize(a)) throw std::runtime_error("solve_linear_system: singular matrix");
    return lu.solve(b);
}

}  // namespace snnfi::spice
