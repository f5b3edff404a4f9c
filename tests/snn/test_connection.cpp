#include "snn/connection.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace snnfi::snn
