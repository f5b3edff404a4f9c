#include "util/random.hpp"

#include <bit>
#include <cmath>
#include <numbers>

namespace snnfi::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream_id) noexcept {
    std::uint64_t s = root ^ (0xa0761d6478bd642fULL * (stream_id + 1));
    // Two mixing rounds decorrelate adjacent stream ids.
    (void)splitmix64(s);
    return splitmix64(s);
}

namespace {

/// a(x) x mod p(x): shifting out x^256 folds it back in as p's low
/// coefficients.
void times_x(Gf2Poly& a) noexcept {
    const std::uint64_t carry = 0 - (a[3] >> 63);
    for (std::size_t w = 3; w > 0; --w) a[w] = (a[w] << 1) | (a[w - 1] >> 63);
    a[0] <<= 1;
    for (std::size_t w = 0; w < 4; ++w) a[w] ^= kXoshiroCharPoly[w] & carry;
}

}  // namespace

Gf2Poly gf2_mulmod(const Gf2Poly& a, const Gf2Poly& b) noexcept {
    // Horner over b's bits, highest first: acc = acc x + b_k a.
    Gf2Poly acc{};
    for (std::size_t k = 256; k-- > 0;) {
        times_x(acc);
        const std::uint64_t take = 0 - ((b[k / 64] >> (k % 64)) & 1);
        for (std::size_t w = 0; w < 4; ++w) acc[w] ^= a[w] & take;
    }
    return acc;
}

Gf2Poly gf2_x_pow(std::uint64_t n) noexcept {
    // Square-and-multiply over n's bits, highest first.
    Gf2Poly r = {1, 0, 0, 0};
    for (int bit = static_cast<int>(std::bit_width(n)) - 1; bit >= 0; --bit) {
        r = gf2_mulmod(r, r);
        if ((n >> bit) & 1) times_x(r);
    }
    return r;
}

void Rng::advance(std::uint64_t n) noexcept {
    // r(T) state = sum of T^k state over r's set bits: the accumulate loop
    // of xoshiro's own jump(), with r in place of the jump constant.
    const Gf2Poly r = gf2_x_pow(n);
    std::uint64_t acc[4] = {};
    for (std::size_t k = 0; k < 256; ++k) {
        if ((r[k / 64] >> (k % 64)) & 1) {
            for (std::size_t w = 0; w < 4; ++w) acc[w] ^= state_[w];
        }
        (void)next_u64();
    }
    for (std::size_t w = 0; w < 4; ++w) state_[w] = acc[w];
}

void Rng::reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
    has_cached_normal_ = false;
}

Rng::Snapshot Rng::snapshot() const noexcept {
    Snapshot snap;
    for (std::size_t i = 0; i < 4; ++i) snap.words[i] = state_[i];
    snap.cached_normal = cached_normal_;
    snap.has_cached_normal = has_cached_normal_;
    return snap;
}

void Rng::restore(const Snapshot& snapshot) noexcept {
    for (std::size_t i = 0; i < 4; ++i) state_[i] = snapshot.words[i];
    cached_normal_ = snapshot.cached_normal;
    has_cached_normal_ = snapshot.has_cached_normal;
}

std::uint64_t Rng::below(std::uint64_t n) {
    if (n == 0) throw std::invalid_argument("Rng::below: n must be > 0");
    // Rejection sampling removes modulo bias.
    const std::uint64_t threshold = (0ULL - n) % n;
    for (;;) {
        const std::uint64_t r = next_u64();
        if (r >= threshold) return r % n;
    }
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::between: lo > hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(span == 0 ? next_u64() : below(span));
}

bool Rng::bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
}

double Rng::normal() noexcept {
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cached_normal_ = radius * std::sin(angle);
    has_cached_normal_ = true;
    return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
}

std::uint64_t Rng::poisson(double lambda) {
    if (lambda < 0.0) throw std::invalid_argument("Rng::poisson: lambda < 0");
    if (lambda == 0.0) return 0;
    if (lambda < 30.0) {
        // Knuth inversion: multiply uniforms until the product drops below
        // exp(-lambda).
        const double limit = std::exp(-lambda);
        std::uint64_t count = 0;
        double product = uniform();
        while (product > limit) {
            ++count;
            product *= uniform();
        }
        return count;
    }
    // Normal approximation with continuity correction; adequate for the
    // spike-count scales used in experiments (lambda rarely exceeds ~100).
    const double sample = normal(lambda, std::sqrt(lambda));
    return sample <= 0.0 ? 0 : static_cast<std::uint64_t>(sample + 0.5);
}

std::uint64_t Rng::geometric(double p) {
    if (p <= 0.0 || p > 1.0) throw std::invalid_argument("Rng::geometric: p outside (0,1]");
    if (p == 1.0) return 0;
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
    if (k > n) throw std::invalid_argument("Rng::sample_indices: k > n");
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    // Partial Fisher–Yates: only the first k positions need to be drawn.
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j = i + static_cast<std::size_t>(below(n - i));
        std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
}

}  // namespace snnfi::util
