#include "util/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace snnfi::util {
namespace {

TEST(Rng, SameSeedSameStream) {
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next_u64() == b.next_u64()) ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
    Rng rng(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 16; ++i) first.push_back(rng.next_u64());
    rng.reseed(7);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.next_u64(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(42);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(42);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, BelowIsUnbiased) {
    Rng rng(11);
    std::vector<int> counts(10, 0);
    const int draws = 50000;
    for (int i = 0; i < draws; ++i) ++counts[rng.below(10)];
    for (const int c : counts) EXPECT_NEAR(c, draws / 10, draws / 10 / 5);
}

TEST(Rng, BelowZeroThrows) {
    Rng rng(1);
    EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, BetweenInclusive) {
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.between(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_THROW(rng.between(3, 2), std::invalid_argument);
}

TEST(Rng, BernoulliMatchesProbability) {
    Rng rng(9);
    int hits = 0;
    const int draws = 40000;
    for (int i = 0; i < draws; ++i) hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.01);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, NormalMoments) {
    Rng rng(13);
    double sum = 0.0, sum_sq = 0.0;
    const int draws = 50000;
    for (int i = 0; i < draws; ++i) {
        const double x = rng.normal(2.0, 3.0);
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / draws;
    const double var = sum_sq / draws - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.06);
    EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Rng, PoissonMeanSmallAndLargeLambda) {
    Rng rng(17);
    for (const double lambda : {0.5, 4.0, 60.0}) {
        double total = 0.0;
        const int draws = 20000;
        for (int i = 0; i < draws; ++i)
            total += static_cast<double>(rng.poisson(lambda));
        EXPECT_NEAR(total / draws, lambda, lambda * 0.05 + 0.05) << "lambda=" << lambda;
    }
    EXPECT_EQ(rng.poisson(0.0), 0u);
    EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
}

TEST(Rng, GeometricMean) {
    Rng rng(23);
    const double p = 0.2;
    double total = 0.0;
    const int draws = 30000;
    for (int i = 0; i < draws; ++i) total += static_cast<double>(rng.geometric(p));
    // mean failures before success = (1-p)/p = 4
    EXPECT_NEAR(total / draws, 4.0, 0.15);
    EXPECT_EQ(rng.geometric(1.0), 0u);
    EXPECT_THROW(rng.geometric(0.0), std::invalid_argument);
    EXPECT_THROW(rng.geometric(1.5), std::invalid_argument);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
    Rng rng(31);
    const auto sample = rng.sample_indices(50, 20);
    EXPECT_EQ(sample.size(), 20u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (const auto idx : sample) EXPECT_LT(idx, 50u);
    EXPECT_THROW(rng.sample_indices(5, 6), std::invalid_argument);
    EXPECT_TRUE(rng.sample_indices(5, 0).empty());
}

TEST(Rng, SampleIndicesFullPermutation) {
    Rng rng(37);
    auto sample = rng.sample_indices(10, 10);
    std::sort(sample.begin(), sample.end());
    for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, ShuffleKeepsMultiset) {
    Rng rng(41);
    std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = values;
    rng.shuffle(std::span<int>(copy));
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, values);
}

TEST(DeriveSeed, StreamsDecorrelated) {
    const std::uint64_t root = 99;
    std::set<std::uint64_t> seeds;
    for (std::uint64_t s = 0; s < 100; ++s) seeds.insert(derive_seed(root, s));
    EXPECT_EQ(seeds.size(), 100u);
    EXPECT_EQ(derive_seed(root, 5), derive_seed(root, 5));
    EXPECT_NE(derive_seed(root, 5), derive_seed(root + 1, 5));
}

TEST(RngAdvance, EqualsThatManyDraws) {
    // Word boundaries of the 256-bit residue, and jumps of a chunk's size.
    for (const std::uint64_t n : {0ULL, 1ULL, 63ULL, 64ULL, 65ULL, 255ULL, 256ULL, 257ULL,
                                  12345ULL, 196017ULL, 5000000ULL}) {
        Rng drawn(0xad7a);
        for (std::uint64_t i = 0; i < n; ++i) (void)drawn.next_u64();
        Rng jumped(0xad7a);
        jumped.advance(n);
        ASSERT_EQ(jumped, drawn) << "n = " << n;
        EXPECT_EQ(jumped.next_u64(), drawn.next_u64()) << "n = " << n;
    }
}

TEST(RngAdvance, PolynomialGivesThePublishedJump) {
    // xoshiro256's jump() advances 2^128 draws with this constant, which
    // is x^(2^128) mod p.
    const Gf2Poly published = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                               0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    Gf2Poly r = gf2_x_pow(2);  // x^(2^1)
    for (int i = 1; i < 128; ++i) r = gf2_mulmod(r, r);
    EXPECT_EQ(r, published);
}

TEST(RngAdvance, BerlekampMasseyYieldsTheCheckedInPolynomial) {
    // Bit 0 of the state obeys the generator's minimal polynomial, which
    // for a full-period xoshiro256 is its degree-256 characteristic one.
    constexpr std::size_t kBits = 600;
    Rng rng(31337);
    std::vector<int> bits(kBits);
    for (int& bit : bits) {
        bit = static_cast<int>(rng.snapshot().words[0] & 1);
        (void)rng.next_u64();
    }
    // Connection polynomial c (c[0] = 1) of the shortest recurrence.
    std::vector<int> c(kBits + 1, 0);
    std::vector<int> b(kBits + 1, 0);
    c[0] = b[0] = 1;
    std::size_t length = 0;
    std::size_t shift = 1;
    for (std::size_t n = 0; n < kBits; ++n) {
        int discrepancy = bits[n];
        for (std::size_t i = 1; i <= length; ++i) discrepancy ^= c[i] & bits[n - i];
        if (discrepancy == 0) {
            ++shift;
            continue;
        }
        const std::vector<int> previous = c;
        for (std::size_t i = 0; i + shift <= kBits; ++i) c[i + shift] ^= b[i];
        if (2 * length <= n) {
            length = n + 1 - length;
            b = previous;
            shift = 1;
        } else {
            ++shift;
        }
    }
    ASSERT_EQ(length, 256u);
    // p(x) = x^256 + sum c[i] x^(256 - i).
    Gf2Poly p{};
    for (std::size_t i = 1; i <= length; ++i) {
        const std::size_t k = length - i;
        if (c[i] != 0) p[k / 64] |= 1ULL << (k % 64);
    }
    EXPECT_EQ(p, kXoshiroCharPoly);
}

TEST(RngAdvance, KeepsAPendingNormalDeviate) {
    Rng drawn(77);
    (void)drawn.normal();  // caches the second Box–Muller deviate
    Rng jumped = drawn;
    for (int i = 0; i < 1000; ++i) (void)drawn.next_u64();
    jumped.advance(1000);
    EXPECT_TRUE(jumped.snapshot().has_cached_normal);
    ASSERT_EQ(jumped, drawn);
    EXPECT_EQ(jumped.normal(), drawn.normal());
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanStableAcrossSeeds) {
    Rng rng(GetParam());
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) sum += rng.uniform();
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1u, 2u, 42u, 1234567u, 0xFFFFFFFFFFFFULL));

}  // namespace
}  // namespace snnfi::util
