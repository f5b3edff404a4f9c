#include "snn/connection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "snn/kernels.hpp"

namespace snnfi::snn {
namespace {

StdpParams test_params() {
    StdpParams p;
    p.nu_pre = 0.1f;
    p.nu_post = 0.2f;
    p.trace_tau_ms = 20.0f;
    p.wmin = 0.0f;
    p.wmax = 1.0f;
    return p;
}

TEST(DenseConnection, InitialWeightsInRangeAndNormalized) {
    util::Rng rng(3);
    DenseConnection conn(10, 4, test_params(), /*norm_total=*/2.0f, rng);
    for (std::size_t j = 0; j < 4; ++j)
        EXPECT_NEAR(conn.weights().column_sum(j), 2.0f, 1e-4);
    for (const float w : conn.weights().to_vector()) EXPECT_GE(w, 0.0f);
}

TEST(DenseConnection, PreEventDepressesViaPostTrace) {
    util::Rng rng(3);
    DenseConnection conn(2, 1, test_params(), 0.0f, rng);
    conn.weights().fill(0.5f);
    // First a post spike (sets post trace), then a pre spike: depression.
    conn.learn({}, std::vector<std::uint8_t>{1});
    const float w_before = conn.weights()(0, 0);
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    EXPECT_LT(conn.weights()(0, 0), w_before);
    // Pre neuron 1 never spiked: untouched.
    EXPECT_FLOAT_EQ(conn.weights()(1, 0), w_before);
}

TEST(DenseConnection, PostEventPotentiatesViaPreTrace) {
    util::Rng rng(3);
    DenseConnection conn(2, 1, test_params(), 0.0f, rng);
    conn.weights().fill(0.5f);
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});  // pre trace
    const float w_before = conn.weights()(0, 0);
    conn.learn({}, std::vector<std::uint8_t>{1});  // post spike
    EXPECT_GT(conn.weights()(0, 0), w_before);
    EXPECT_FLOAT_EQ(conn.weights()(1, 0), 0.5f);  // no pre trace on input 1
}

TEST(DenseConnection, WeightsClampedToBounds) {
    util::Rng rng(3);
    StdpParams params = test_params();
    params.nu_pre = 10.0f;
    params.nu_post = 10.0f;
    DenseConnection conn(1, 1, params, 0.0f, rng);
    conn.weights().fill(0.5f);
    conn.learn({}, std::vector<std::uint8_t>{1});          // post trace = 1
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    EXPECT_FLOAT_EQ(conn.weights()(0, 0), 0.0f);           // clamped at wmin
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    conn.learn({}, std::vector<std::uint8_t>{1});
    EXPECT_FLOAT_EQ(conn.weights()(0, 0), 1.0f);           // clamped at wmax
}

TEST(DenseConnection, TracesDecayAndReset) {
    util::Rng rng(3);
    DenseConnection conn(1, 1, test_params(), 0.0f, rng);
    conn.weights().fill(0.5f);
    conn.learn({}, std::vector<std::uint8_t>{1});  // post trace = 1
    // Let the trace decay for many steps, then a pre event: small change.
    for (int step = 0; step < 200; ++step) conn.learn({}, std::vector<std::uint8_t>{0});
    const float w_before = conn.weights()(0, 0);
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    EXPECT_NEAR(conn.weights()(0, 0), w_before, 1e-5);

    conn.weights().fill(0.5f);
    conn.reset_traces();  // clear the pre trace left by the first phase
    conn.learn({}, std::vector<std::uint8_t>{1});  // post spike, no pre trace
    EXPECT_FLOAT_EQ(conn.weights()(0, 0), 0.5f);   // nothing to potentiate
    conn.reset_traces();
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    EXPECT_FLOAT_EQ(conn.weights()(0, 0), 0.5f);  // trace cleared -> no change
}

TEST(DenseConnection, NormalizePreservesBudget) {
    util::Rng rng(3);
    DenseConnection conn(4, 2, test_params(), 3.0f, rng);
    conn.weights()(0, 0) = 0.9f;
    conn.normalize();
    EXPECT_NEAR(conn.weights().column_sum(0), 3.0f, 1e-4);
    EXPECT_NEAR(conn.weights().column_sum(1), 3.0f, 1e-4);
}

bool same_weights(const Matrix& a, const Matrix& b) {
    return a.rows() == b.rows() && a.stride() == b.stride() &&
           std::memcmp(a.data(), b.data(), a.rows() * a.stride() * sizeof(float)) == 0;
}

TEST(DenseConnection, LearnRejectsOutOfRangeSpikes) {
    util::Rng rng(3);
    DenseConnection conn(2, 1, test_params(), 0.0f, rng);
    conn.learn(std::vector<std::uint32_t>{1}, std::vector<std::uint8_t>{1});
    DenseConnection untouched = conn;
    EXPECT_THROW(conn.learn(std::vector<std::uint32_t>{40}, std::vector<std::uint8_t>{0}),
                 std::out_of_range);
    EXPECT_THROW(conn.learn({}, std::vector<std::uint8_t>(40, 1)), std::invalid_argument);
    EXPECT_THROW(conn.learn(std::vector<std::uint32_t>{0, 2}, std::vector<std::uint8_t>{1}),
                 std::out_of_range);
    // A spike list names each input once, in ascending order.
    EXPECT_THROW(conn.learn(std::vector<std::uint32_t>{1, 1}, std::vector<std::uint8_t>{0}),
                 std::invalid_argument);
    EXPECT_THROW(conn.learn(std::vector<std::uint32_t>{1, 0}, std::vector<std::uint8_t>{0}),
                 std::invalid_argument);
    // Nothing changed: traces, weights and the fired set are untouched.
    for (int step = 0; step < 40; ++step) {
        const std::vector<std::uint32_t> pre =
            step % 3 == 0 ? std::vector<std::uint32_t>{0} : std::vector<std::uint32_t>{};
        const std::vector<std::uint8_t> post{static_cast<std::uint8_t>(step % 4 == 1)};
        conn.learn(pre, post);
        untouched.learn(pre, post);
        ASSERT_TRUE(same_weights(std::as_const(conn).weights(),
                                 std::as_const(untouched).weights()))
            << "step " << step;
    }
}

/// A post spike with no pre spike still clamps weights above wmax, as the
/// dense rule does. Two ways put a weight there behind the no-op check's
/// back, and both make it stale: a write through weights(), and a
/// reset_traces() that returns a depressed row to the unfired set.
TEST(DenseConnection, PotentiationClampsWeightsAboveWmaxWithoutPreTrace) {
    util::Rng rng(3);
    DenseConnection conn(2, 1, test_params(), 0.0f, rng);
    conn.learn({}, std::vector<std::uint8_t>{1});  // the check runs, and holds
    conn.weights().fill(2.0f);
    conn.learn({}, std::vector<std::uint8_t>{1});
    EXPECT_EQ(std::as_const(conn).weights()(0, 0), 1.0f);
    EXPECT_EQ(std::as_const(conn).weights()(1, 0), 1.0f);

    // Depression stops at wmin, here above wmax.
    StdpParams params = test_params();
    params.wmin = 1.5f;
    DenseConnection floored(2, 1, params, 0.0f, rng);
    floored.weights().fill(0.5f);
    floored.learn({}, std::vector<std::uint8_t>{1});  // the check runs, and holds
    floored.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    ASSERT_EQ(std::as_const(floored).weights()(0, 0), 1.5f);
    floored.reset_traces();
    floored.learn({}, std::vector<std::uint8_t>{1});
    EXPECT_EQ(std::as_const(floored).weights()(0, 0), 1.0f);
    EXPECT_EQ(std::as_const(floored).weights()(1, 0), 0.5f);
}

/// The dense STDP rule the connection's event-driven step must reproduce
/// bit for bit: every trace decays every step, and a post spike
/// potentiates every row.
struct DenseReference {
    Matrix w;
    StdpParams p;
    float norm_total;
    float decay;
    std::vector<float> trace_pre;
    std::vector<float> trace_post;

    DenseReference(Matrix initial, StdpParams params, float total)
        : w(std::move(initial)), p(params), norm_total(total),
          decay(std::exp(-params.dt_ms / params.trace_tau_ms)),
          trace_pre(w.rows(), 0.0f), trace_post(w.cols(), 0.0f) {}

    void learn(const std::vector<std::uint32_t>& active,
               const std::vector<std::uint8_t>& post_spiked) {
        for (float& t : trace_pre) t *= decay;
        for (float& t : trace_post) t *= decay;
        for (const std::uint32_t a : active) {
            for (std::size_t j = 0; j < w.cols(); ++j)
                w(a, j) = std::max(p.wmin, w(a, j) - p.nu_pre * trace_post[j]);
        }
        for (const std::uint32_t a : active) trace_pre[a] = 1.0f;
        for (std::size_t j = 0; j < w.cols(); ++j) {
            if (!post_spiked[j]) continue;
            for (std::size_t i = 0; i < w.rows(); ++i)
                w(i, j) = std::min(p.wmax, w(i, j) + p.nu_post * trace_pre[i]);
        }
        for (std::size_t j = 0; j < w.cols(); ++j) {
            if (post_spiked[j]) trace_post[j] = 1.0f;
        }
    }
    void normalize() {
        if (norm_total <= 0.0f) return;
        for (std::size_t j = 0; j < w.cols(); ++j) {
            const float sum = w.column_sum(j);
            if (sum > 0.0f) w.scale_column(j, norm_total / sum);
        }
    }
    void reset_traces() {
        std::fill(trace_pre.begin(), trace_pre.end(), 0.0f);
        std::fill(trace_post.begin(), trace_post.end(), 0.0f);
    }
};

/// Random spike streams through learn() and through the dense reference,
/// weights compared bit for bit: samples separated by reset_traces() with
/// normalize() after each, then one stream of 3,100 steps without a
/// reset, which runs past the trace table's fixed point. In that stream
/// input 0 spikes once, at the start, and post 3 first spikes at step
/// 2,100, so cell (0, 3), zeroed first, gains the fixed-point trace (a
/// denormal) times nu_post; input 1 never spikes. The budgets put weights
/// above wmax after some normalisations, so both potentiation walks run.
TEST(DenseConnection, EventDrivenLearnMatchesDenseReference) {
    constexpr std::size_t kPre = 40;
    constexpr std::size_t kPost = 7;
    StdpParams params;
    params.nu_pre = 0.05f;
    params.nu_post = 0.5f;
    std::size_t noop_steps = 0;
    std::size_t rewrite_steps = 0;
    for (const float norm_total : {0.0f, 4.0f, 36.0f}) {
        util::Rng rng(61);
        Matrix initial(kPre, kPost);
        for (std::size_t r = 0; r < kPre; ++r) {
            for (float& x : initial.row(r)) x = static_cast<float>(rng.uniform(0.0, 0.3));
        }
        DenseConnection conn(initial, params, norm_total);
        DenseReference reference(initial, params, norm_total);
        const auto step = [&](std::vector<std::uint32_t> active,
                              std::vector<std::uint8_t> post) {
            if (std::ranges::count(post, 1) > 0) {
                const bool noop = kernels::potentiation_is_noop(
                    reference.w.data(), reference.w.stride(), kPre, params.nu_post,
                    params.wmax);
                ++(noop ? noop_steps : rewrite_steps);
            }
            conn.learn(active, post);
            reference.learn(active, post);
        };
        const auto draw = [&](std::uint32_t first_pre, double pre_rate, double post_rate) {
            std::vector<std::uint32_t> active;
            for (std::uint32_t a = first_pre; a < kPre; ++a) {
                if (rng.uniform() < pre_rate) active.push_back(a);
            }
            std::vector<std::uint8_t> post(kPost, 0);
            for (auto& s : post) s = rng.uniform() < post_rate ? 1 : 0;
            return std::pair{active, post};
        };
        for (std::size_t sample = 0; sample < 12; ++sample) {
            conn.reset_traces();
            reference.reset_traces();
            for (std::size_t s = 0; s < 100; ++s) {
                const auto [active, post] = draw(0, 0.06, 0.05);
                step(active, post);
            }
            conn.normalize();
            reference.normalize();
            ASSERT_TRUE(same_weights(std::as_const(conn).weights(), reference.w))
                << "norm_total " << norm_total << " sample " << sample;
        }

        conn.reset_traces();
        reference.reset_traces();
        conn.weights()(0, 3) = 0.0f;
        reference.w(0, 3) = 0.0f;
        step({0}, std::vector<std::uint8_t>(kPost, 0));
        for (std::size_t s = 1; s < 3100; ++s) {
            auto [active, post] = draw(2, 0.02, 0.01);
            post[3] = s == 2100 || s == 2500 || s == 3000;
            step(active, post);
            if (s % 500 == 0) {
                conn.normalize();
                reference.normalize();
            }
        }
        ASSERT_NE(reference.w(0, 3), 0.0f) << "the fixed-point trace left no mark";
        ASSERT_TRUE(same_weights(std::as_const(conn).weights(), reference.w))
            << "norm_total " << norm_total << " long stream";
    }
    EXPECT_GT(noop_steps, 0u);
    EXPECT_GT(rewrite_steps, 0u);
}

}  // namespace
}  // namespace snnfi::snn
