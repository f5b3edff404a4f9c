#include "spice/linear.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "util/random.hpp"

namespace snnfi::spice {
namespace {

TEST(Matrix, BasicAccess) {
    Matrix m(2, 3, 1.0);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    m(1, 2) = 5.0;
    EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
    m.fill(0.0);
    EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
}

TEST(Matrix, RowSpanAliasesStorage) {
    Matrix m(2, 2);
    m.row(0)[1] = 9.0;
    EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
    EXPECT_THROW(m.row(5), std::out_of_range);
}

TEST(Matrix, Multiply) {
    Matrix m(2, 3);
    m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
    m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
    const std::vector<double> x = {1.0, 0.5, -1.0};
    const auto y = m.multiply(x);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[0], -1.0);
    EXPECT_DOUBLE_EQ(y[1], 0.5);
    EXPECT_THROW(m.multiply(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Lu, SolvesKnownSystem) {
    Matrix a(2, 2);
    a(0, 0) = 2.0; a(0, 1) = 1.0;
    a(1, 0) = 1.0; a(1, 1) = 3.0;
    const auto x = solve_linear_system(a, std::vector<double>{5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
    // Zero diagonal forces a row swap.
    Matrix a(2, 2);
    a(0, 0) = 0.0; a(0, 1) = 1.0;
    a(1, 0) = 1.0; a(1, 1) = 0.0;
    const auto x = solve_linear_system(a, std::vector<double>{2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
    Matrix a(2, 2);
    a(0, 0) = 1.0; a(0, 1) = 2.0;
    a(1, 0) = 2.0; a(1, 1) = 4.0;
    LuFactorization lu;
    EXPECT_FALSE(lu.factorize(a));
    EXPECT_THROW(solve_linear_system(a, std::vector<double>{1.0, 1.0}),
                 std::runtime_error);
}

TEST(Lu, NonSquareThrows) {
    LuFactorization lu;
    EXPECT_THROW(lu.factorize(Matrix(2, 3)), std::invalid_argument);
}

TEST(Lu, SolveSizeMismatchThrows) {
    Matrix a(2, 2);
    a(0, 0) = a(1, 1) = 1.0;
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(a));
    EXPECT_THROW(lu.solve(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Lu, ReusableFactorization) {
    Matrix a(2, 2);
    a(0, 0) = 3.0; a(1, 1) = 4.0;
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(a));
    EXPECT_NEAR(lu.solve(std::vector<double>{3.0, 4.0})[0], 1.0, 1e-12);
    EXPECT_NEAR(lu.solve(std::vector<double>{6.0, 8.0})[1], 2.0, 1e-12);
}

/// Property: random diagonally-dominant systems solve to small residuals.
class LuProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuProperty, RandomSystemResidual) {
    const std::size_t n = GetParam();
    util::Rng rng(n * 7919);
    for (int trial = 0; trial < 5; ++trial) {
        Matrix a(n, n);
        std::vector<double> b(n);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
            a(r, r) += static_cast<double>(n) + 1.0;
            b[r] = rng.uniform(-10.0, 10.0);
        }
        const auto x = solve_linear_system(a, b);
        const auto ax = a.multiply(x);
        for (std::size_t r = 0; r < n; ++r) EXPECT_NEAR(ax[r], b[r], 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuProperty, ::testing::Values(1u, 2u, 5u, 13u, 40u));

TEST(Lu, SolveWithoutFactorizationThrows) {
    LuFactorization lu;
    EXPECT_THROW(lu.solve(std::vector<double>{}), std::logic_error);
    Matrix singular(2, 2);
    singular(0, 0) = 1.0;
    EXPECT_FALSE(lu.factorize(singular));
    EXPECT_THROW(lu.solve(std::vector<double>{1.0, 1.0}), std::logic_error);
}

// --- replay against the dense elimination ---------------------------------

/// The dense LU with partial pivoting (the largest |a(r, k)| at or below the
/// diagonal, the first on ties), written out independently of
/// LuFactorization: the results a replay must reproduce bit for bit.
struct DenseLu {
    bool ok = true;
    std::size_t n = 0;
    std::vector<double> lu;         ///< row-major, rows swapped into place
    std::vector<std::size_t> perm;  ///< position r holds row perm[r] of A
    std::vector<std::size_t> pivots;  ///< position chosen by each completed step

    explicit DenseLu(const Matrix& a) : n(a.rows()), lu(n * n), perm(n) {
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c) lu[r * n + c] = a(r, c);
        for (std::size_t i = 0; i < n; ++i) perm[i] = i;
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t best = k;
            double best_mag = std::abs(lu[k * n + k]);
            for (std::size_t r = k + 1; r < n; ++r) {
                if (std::abs(lu[r * n + k]) > best_mag) {
                    best_mag = std::abs(lu[r * n + k]);
                    best = r;
                }
            }
            if (best_mag < 1e-300) {
                ok = false;
                return;
            }
            pivots.push_back(best);
            std::swap(perm[k], perm[best]);
            for (std::size_t c = 0; c < n; ++c) std::swap(lu[k * n + c], lu[best * n + c]);
            const double diag_inv = 1.0 / lu[k * n + k];
            for (std::size_t r = k + 1; r < n; ++r) {
                const double factor = lu[r * n + k] * diag_inv;
                lu[r * n + k] = factor;
                if (factor == 0.0) continue;
                for (std::size_t c = k + 1; c < n; ++c) lu[r * n + c] -= factor * lu[k * n + c];
            }
        }
    }

    std::vector<double> solve(const std::vector<double>& b) const {
        std::vector<double> x(n);
        for (std::size_t r = 0; r < n; ++r) {
            double acc = b[perm[r]];
            for (std::size_t c = 0; c < r; ++c) acc -= lu[r * n + c] * x[c];
            x[r] = acc;
        }
        for (std::size_t r = n; r-- > 0;) {
            double acc = x[r];
            for (std::size_t c = r + 1; c < n; ++c) acc -= lu[r * n + c] * x[c];
            x[r] = acc / lu[r * n + r];
        }
        return x;
    }
};

/// An MNA-shaped circuit over `n` unknowns: node rows joined by
/// conductances (to each other and to ground), one-sided transconductance
/// stamps, and voltage-source branch rows with a zero diagonal, which force
/// row swaps. values() assembles a matrix from fill(0.0) the way the
/// engine's Stamper does; the pattern depends only on the circuit.
class MnaCircuit {
public:
    MnaCircuit(std::size_t n, util::Rng& rng)
        : n_(n), nodes_(n - (n + 3) / 5) {
        for (std::size_t a = 0; a < nodes_; ++a) {
            elements_.push_back({Kind::kConductance, a, kGround, 0});
            const auto b = static_cast<std::size_t>(rng.below(nodes_));
            if (b != a) elements_.push_back({Kind::kConductance, a, b, 0});
            const auto g = static_cast<std::size_t>(rng.below(nodes_));
            const auto s = rng.bernoulli(0.5) ? kGround : static_cast<std::size_t>(rng.below(nodes_));
            if (g != a && s != a) elements_.push_back({Kind::kTransconductance, a, g, s});
        }
        // The second branch runs from the first one's node to the next
        // node: that node's column then holds two equal 1.0 candidates,
        // which the first-on-ties rule decides.
        for (std::size_t branch = nodes_; branch < n_; ++branch) {
            if (branch == nodes_ + 1) {
                const std::size_t p = elements_.back().b;
                elements_.push_back({Kind::kBranch, branch, p, (p + 1) % nodes_});
                continue;
            }
            const auto p = static_cast<std::size_t>(rng.below(nodes_));
            elements_.push_back({Kind::kBranch, branch, p, kGround});
        }
    }

    std::size_t size() const { return n_; }

    /// One magnitude per element: conductances 1 uS..1 mS, transconductances
    /// of either sign.
    std::vector<double> draw(util::Rng& rng) const {
        std::vector<double> values;
        for (const Element& e : elements_) {
            const double magnitude = std::pow(10.0, rng.uniform(-6.0, -3.0));
            values.push_back(e.kind == Kind::kTransconductance && rng.bernoulli(0.5)
                                 ? -magnitude
                                 : magnitude);
        }
        return values;
    }

    Matrix assemble(const std::vector<double>& values) const {
        Matrix g(n_, n_);
        g.fill(0.0);
        const auto add = [&](std::size_t r, std::size_t c, double v) {
            if (r != kGround && c != kGround) g(r, c) += v;
        };
        for (std::size_t i = 0; i < elements_.size(); ++i) {
            const Element& e = elements_[i];
            const double v = values[i];
            switch (e.kind) {
                case Kind::kConductance:
                    add(e.a, e.a, v);
                    add(e.b, e.b, v);
                    add(e.a, e.b, -v);
                    add(e.b, e.a, -v);
                    break;
                case Kind::kTransconductance:  // current into a set by V(b) - V(c)
                    add(e.a, e.b, v);
                    add(e.a, e.c, -v);
                    break;
                case Kind::kBranch:  // V(b) - V(c) fixed by branch row a
                    add(e.b, e.a, 1.0);
                    add(e.c, e.a, -1.0);
                    add(e.a, e.b, 1.0);
                    add(e.a, e.c, -1.0);
                    break;
            }
        }
        for (std::size_t node = 0; node < nodes_; ++node) g(node, node) += 1e-12;
        return g;
    }

private:
    static constexpr std::size_t kGround = static_cast<std::size_t>(-1);
    enum class Kind { kConductance, kTransconductance, kBranch };
    struct Element {
        Kind kind;
        std::size_t a, b, c;
    };
    std::size_t n_;
    std::size_t nodes_;
    std::vector<Element> elements_;
};

std::vector<bool> pattern_of(const Matrix& m) {
    std::vector<bool> pattern(m.rows() * m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c) pattern[r * m.cols() + c] = m(r, c) != 0.0;
    return pattern;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Every value perturbed by a relative 1e-9: the same pattern and, almost
/// always, the same pivots.
std::vector<double> nudge(std::vector<double> values, util::Rng& rng) {
    for (double& v : values) v *= 1.0 + 1e-9 * rng.uniform(-1.0, 1.0);
    return values;
}

class LuReplay : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuReplay, EveryFactorizationMatchesAFreshOneAndTheDenseElimination) {
    const std::size_t n = GetParam();
    util::Rng rng(n * 104729 + 17);
    const MnaCircuit circuit(n, rng);
    const std::vector<double> base = circuit.draw(rng);
    const Matrix base_matrix = circuit.assemble(base);
    const DenseLu base_lu(base_matrix);
    ASSERT_TRUE(base_lu.ok);

    // The sequence: replays, a nonzero outside the pattern, a pivot forced
    // to change at a middle step, a matrix that is singular inside the
    // pattern and one outside it, each followed by regular matrices.
    std::vector<std::pair<const char*, Matrix>> sequence;
    sequence.emplace_back("base", base_matrix);
    for (int i = 0; i < 5; ++i) sequence.emplace_back("nudged", circuit.assemble(nudge(base, rng)));
    if (n > 1) {
        Matrix stray = circuit.assemble(nudge(base, rng));
        for (std::size_t i = 0; i < n * n; ++i) {
            if (stray.data()[i] == 0.0) {
                stray.data()[i] = 0.25;
                break;
            }
        }
        sequence.emplace_back("outside the pattern", stray);
        sequence.emplace_back("nudged", circuit.assemble(nudge(base, rng)));
    }
    // Scaling down the row that pivots at step k keeps steps 0..k-1 (that
    // row never won them and no other row depends on it yet) and hands step
    // k to another candidate, if column k has one.
    bool forced = false;
    for (std::size_t k = n / 2; k < n && !forced; ++k) {
        Matrix scaled = base_matrix;
        for (std::size_t c = 0; c < n; ++c) scaled(base_lu.perm[k], c) *= 1e-6;
        const DenseLu scaled_lu(scaled);
        if (!scaled_lu.ok || scaled_lu.pivots[k] == base_lu.pivots[k]) continue;
        ASSERT_TRUE(std::equal(base_lu.pivots.begin(), base_lu.pivots.begin() + static_cast<std::ptrdiff_t>(k),
                               scaled_lu.pivots.begin()));
        sequence.emplace_back("pivot changed at a middle step", scaled);
        sequence.emplace_back("base", base_matrix);
        forced = true;
    }
    if (n >= 5) EXPECT_TRUE(forced) << "no middle step could change its pivot";
    {
        Matrix singular = circuit.assemble(nudge(base, rng));
        for (std::size_t r = 0; r < n; ++r) singular(r, n - 1) = 0.0;
        sequence.emplace_back("singular inside the pattern", singular);
        sequence.emplace_back("nudged", circuit.assemble(nudge(base, rng)));
        // Still singular, and no longer inside the pattern.
        for (std::size_t i = 0; i < n * n; ++i) {
            if (i % n != n - 1 && base_matrix.data()[i] == 0.0) {
                singular.data()[i] = 0.5;
                sequence.emplace_back("singular outside the pattern", singular);
                sequence.emplace_back("base", base_matrix);
                break;
            }
        }
    }

    LuFactorization lu;
    std::vector<bool> recorded_pattern;
    std::vector<std::size_t> recorded_pivots;
    std::size_t replays = 0;
    for (const auto& [label, matrix] : sequence) {
        SCOPED_TRACE(label);
        std::vector<double> b(n);
        for (double& v : b) v = rng.uniform(-1.0, 1.0);
        const DenseLu dense(matrix);
        LuFactorization fresh;
        const bool ok = lu.factorize(matrix);
        ASSERT_EQ(fresh.factorize(matrix), dense.ok);
        ASSERT_EQ(ok, dense.ok);

        // The replay runs while the matrix stays inside the recorded pattern
        // and each step picks the recorded pivot.
        const std::vector<bool> pattern = pattern_of(matrix);
        bool inside = !recorded_pattern.empty();
        for (std::size_t i = 0; inside && i < pattern.size(); ++i)
            inside = !pattern[i] || recorded_pattern[i];
        const bool same_prefix =
            inside && std::equal(dense.pivots.begin(), dense.pivots.end(), recorded_pivots.begin());
        EXPECT_EQ(lu.replayed(), ok && same_prefix);
        replays += lu.replayed() ? 1 : 0;
        if (ok && !lu.replayed()) {
            recorded_pattern = pattern;
            recorded_pivots = dense.pivots;
        } else if (!ok && !same_prefix) {
            recorded_pattern.clear();  // the dense elimination failed: no record
        }
        if (!ok) continue;

        const std::vector<double> x = lu.solve(b);
        EXPECT_TRUE(same_bits(x, fresh.solve(b)));
        EXPECT_TRUE(same_bits(x, dense.solve(b)));
    }
    EXPECT_GE(replays, 3u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuReplay, ::testing::Values(1u, 2u, 5u, 13u, 40u));

}  // namespace
}  // namespace snnfi::spice
