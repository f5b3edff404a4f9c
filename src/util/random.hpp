// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components in the library (Poisson encoders, weight
// initialisation, fault-mask selection, synthetic data) draw from Rng so a
// single seed reproduces an entire experiment bit-for-bit across runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace snnfi::util {

/// A polynomial over GF(2) of degree below 256: bit k of word k / 64 is the
/// coefficient of x^k.
using Gf2Poly = std::array<std::uint64_t, 4>;

/// The characteristic polynomial p(x) of xoshiro256's state transition,
/// x^256 plus these low coefficients. Berlekamp–Massey over bit 0 of the
/// generator's state yields it; x^(2^128) mod p is the published jump
/// constant of xoshiro256.
inline constexpr Gf2Poly kXoshiroCharPoly = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                                             0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

/// a(x) b(x) mod p(x).
Gf2Poly gf2_mulmod(const Gf2Poly& a, const Gf2Poly& b) noexcept;
/// x^n mod p(x).
Gf2Poly gf2_x_pow(std::uint64_t n) noexcept;

/// xoshiro256++ generator (Blackman & Vigna). Fast, 256-bit state, passes
/// BigCrush; quality is more than sufficient for simulation workloads.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the full 256-bit state from one 64-bit seed via SplitMix64.
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept { reseed(seed); }

    void reseed(std::uint64_t seed) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    result_type operator()() noexcept { return next_u64(); }

    /// Defined inline: this is the innermost call of every Poisson encoder
    /// step (one draw per active pixel per timestep), so it must not cost a
    /// cross-TU function call in the simulation hot path.
    std::uint64_t next_u64() noexcept {
        const std::uint64_t result = rotl_(state_[0] + state_[3], 23) + state_[0];
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl_(state_[3], 45);
        return result;
    }

    /// Leaves the state where exactly `n` next_u64() calls would, in
    /// O(log n). The state transition T is linear over GF(2), so
    /// T^n = r(T) with r(x) = x^n mod p(x) (Haramoto et al., "Efficient
    /// Jump Ahead for F2-Linear Random Number Generators", INFORMS J.
    /// Computing 2008). Like n real draws, it leaves a cached Box–Muller
    /// deviate pending. One call costs tens of microseconds: jump to the
    /// start of a chunk of work, never per draw.
    void advance(std::uint64_t n) noexcept;

    /// Uniform double in [0, 1). 53-bit mantissa yields a uniform double.
    double uniform() noexcept {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }
    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }
    /// Uniform integer in [0, n). Requires n > 0.
    std::uint64_t below(std::uint64_t n);
    /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
    std::int64_t between(std::int64_t lo, std::int64_t hi);

    /// Bernoulli trial with success probability p (clamped to [0,1]).
    bool bernoulli(double p) noexcept;
    /// Standard normal via Box–Muller (cached second deviate).
    double normal() noexcept;
    double normal(double mean, double stddev) noexcept;
    /// Poisson-distributed count; inversion for small lambda, PTRS-style
    /// normal approximation fallback for large lambda.
    std::uint64_t poisson(double lambda);
    /// Geometric: number of failures before first success, p in (0, 1].
    /// Used for event-driven (skip-ahead) Poisson spike train sampling.
    std::uint64_t geometric(double p);

    /// Fisher–Yates shuffle.
    template <typename T>
    void shuffle(std::span<T> items) {
        if (items.size() < 2) return;
        for (std::size_t i = items.size() - 1; i > 0; --i) {
            const std::size_t j = static_cast<std::size_t>(below(i + 1));
            std::swap(items[i], items[j]);
        }
    }

    /// k distinct indices drawn uniformly from [0, n), in random order.
    /// Used to pick "x% of the neurons in a layer" for localized faults.
    std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

    /// Full generator state for persistence (src/store artifact blobs):
    /// the four xoshiro words plus the cached Box–Muller deviate, so a
    /// restored generator reproduces the stream bit-exactly — including a
    /// pending second normal deviate.
    struct Snapshot {
        std::array<std::uint64_t, 4> words{};
        double cached_normal = 0.0;
        bool has_cached_normal = false;
    };
    Snapshot snapshot() const noexcept;
    void restore(const Snapshot& snapshot) noexcept;

    /// Equal states draw equal streams from here on.
    bool operator==(const Rng&) const = default;

private:
    static constexpr std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4] = {};
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

/// SplitMix64 step; also useful for deriving independent stream seeds.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Derives a child seed for a named subsystem so parallel components get
/// decorrelated but reproducible streams.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream_id) noexcept;

}  // namespace snnfi::util
