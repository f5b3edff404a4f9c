// Linear algebra for MNA systems.
//
// Circuit matrices in this library are small (tens of unknowns) and
// sparse, and a transient factorises thousands of them that share one
// nonzero pattern and, almost always, one pivot sequence. So the LU keeps
// dense storage and dense partial pivoting, and replays the structure of
// its last elimination on the next matrix: the refactorisation of KLU
// (Davis & Palamadai Natarajan, "Algorithm 907: KLU", ACM TOMS 2010), with
// every pivot still chosen and checked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace snnfi::spice {

/// Row-major dense matrix of doubles.
class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }

    double& at(std::size_t r, std::size_t c);
    double at(std::size_t r, std::size_t c) const;
    double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    void fill(double value);
    /// Row-major storage: (r, c) is data()[r * cols() + c].
    double* data() noexcept { return data_.data(); }
    const double* data() const noexcept { return data_.data(); }
    std::span<double> row(std::size_t r);
    std::span<const double> row(std::size_t r) const;

    /// y = A x (sizes must agree).
    std::vector<double> multiply(std::span<const double> x) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// LU factorisation with partial pivoting that replays its last elimination.
///
/// A factorize() that cannot replay runs the dense elimination (at step k
/// the largest |a(r, k)| at or below the diagonal, the first on ties) and
/// records the matrix's nonzero pattern, the pivot row of each step and
/// the fill of that pivot sequence. The next factorize() replays if
/// every nonzero of its matrix lies inside the recorded pattern: each step
/// runs the same pivot search over the rows that can be nonzero and
/// updates only the recorded rows x columns. At the first step that picks
/// another pivot than the recorded one, it runs the dense elimination
/// instead and records again. solve() walks the recorded L and U
/// structure, or every column when the factors have no record.
///
/// Every operation the replay and solve() skip is x - f * (+0.0) with f
/// finite, which leaves x unchanged unless x is -0.0. So for finite
/// matrices and right-hand sides without -0.0 entries (MNA assembly starts
/// from fill(0.0), and +0.0 + -0.0 = +0.0) the results are bit-identical
/// to the dense elimination's.
class LuFactorization {
public:
    /// Factorises a copy of `a` (must be square). Returns false if the
    /// matrix is numerically singular. A dense elimination records only if
    /// `record_pattern`: a record costs about two dense eliminations, so it
    /// pays only where many factorisations follow it.
    bool factorize(const Matrix& a, bool record_pattern = true);
    /// Solves A x = b using the stored factors. factorize() must have
    /// succeeded. b.size() must equal the matrix dimension.
    std::vector<double> solve(std::span<const double> b) const;

    std::size_t dimension() const noexcept { return n_; }
    /// True if the last factorize() ran the recorded elimination to the
    /// end, with no dense step.
    bool replayed() const noexcept { return replayed_; }

private:
    /// Step k of the recorded elimination. Rows are named by the position
    /// they end at, so the pivot row of step k is row k. The lists lie back
    /// to back in index_: [search, column) are the rows below position k
    /// that can be nonzero in column k before the pivot swap, in position
    /// order; [column, upper) those below it after the swap; [upper, the
    /// next step's search) the columns right of k that can be nonzero in
    /// row k of U. After all steps' lists, [lower, the next step's lower)
    /// are the columns left of k that can be nonzero in row k of L.
    struct Step {
        std::uint32_t diagonal;  ///< the row at position k before the swap
        std::uint32_t search;
        std::uint32_t column;
        std::uint32_t upper;
        std::uint32_t lower;
    };

    enum class Replay { kDone, kSingular, kDiverged };
    /// Runs the recorded elimination on `a`, up to a singular pivot or a
    /// step that picks another pivot than the recorded one.
    Replay replay(const Matrix& a);
    /// The dense elimination of lu_, from the identity permutation.
    bool eliminate();
    /// Records `a`'s pattern and the fill of the pivot sequence just run.
    void record(const Matrix& a);

    // Row k of lu_ holds position k: row pivot_[k] of A, eliminated.
    std::size_t n_ = 0;
    Matrix lu_;
    std::vector<std::size_t> pivot_;      ///< position k holds row pivot_[k] of A
    std::vector<std::size_t> pivot_pos_;  ///< step k swapped positions k and pivot_pos_[k]
    bool recorded_ = false;
    bool factored_ = false;
    bool replayed_ = false;

    // The record: all ones outside the pattern, and n + 1 steps (the last
    // closes the lists).
    std::vector<std::uint64_t> outside_;
    std::vector<Step> steps_;
    std::vector<std::uint32_t> index_;
    // record()'s working copies of the pattern (one bitset per row) and of
    // the row order; kept, with index_'s capacity, so that recording again
    // allocates nothing.
    std::vector<std::uint64_t> structure_;
    std::vector<std::size_t> order_;
};

/// Convenience: solves A x = b once; throws std::runtime_error on singular A.
std::vector<double> solve_linear_system(const Matrix& a, std::span<const double> b);

}  // namespace snnfi::spice
