// FaultOverlay semantics: bit-flip weight patches round-trip bit-exactly,
// composition is order-independent on distinct targets (the paper's
// combined attacks), last-writer-wins on conflicting targets, every field
// kind expands into the runtime's fault state, and the two threshold
// semantics read back through NetworkRuntime::effective_threshold.
#include "snn/overlay.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "snn/model.hpp"
#include "snn/runtime.hpp"

namespace snnfi::snn {
namespace {

DiehlCookConfig tiny_config() {
    DiehlCookConfig cfg;
    cfg.n_neurons = 16;
    cfg.steps_per_sample = 100;
    return cfg;
}

TEST(FaultOverlay, BitFlipPatchRoundTripsBitExact) {
    const auto model = NetworkModel::random(tiny_config(), 5);

    FaultOverlay once;
    once.flip_weight_bit(9, 4, 30);
    NetworkRuntime flipped(model, once);
    EXPECT_NE(std::memcmp(&flipped.weight_row(9)[4], &model->weight_row(9)[4],
                          sizeof(float)),
              0);

    // Flipping the same bit twice restores the weight — and because the
    // restored row is bit-identical, the whole effective matrix matches
    // the model bit-for-bit.
    FaultOverlay twice = once;
    twice.flip_weight_bit(9, 4, 30);
    NetworkRuntime restored(model, twice);
    for (std::size_t pre = 0; pre < model->n_input(); ++pre) {
        const auto row = restored.weight_row(pre);
        EXPECT_EQ(std::memcmp(row.data(), model->weight_row(pre).data(),
                              row.size() * sizeof(float)),
                  0)
            << "row " << pre;
    }
}

TEST(FaultOverlay, CompositionOrderIndependentOnDistinctTargets) {
    // The paper's attack 5 combines a threshold shift with a driver-gain
    // change; the overlay composition must not care which lands first.
    std::vector<std::size_t> all(tiny_config().n_neurons);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

    FaultOverlay threshold;
    threshold.shift_threshold_value(OverlayLayer::kExcitatory, all, -0.2f);
    threshold.shift_threshold_value(OverlayLayer::kInhibitory, all, -0.2f);
    FaultOverlay gain;
    gain.set_driver_gain(0.9f);

    const auto model = NetworkModel::random(tiny_config(), 17);
    util::Rng rng(1);
    const auto image = data::render_digit(2, rng, {});

    const auto run = [&](const FaultOverlay& overlay) {
        NetworkRuntime runtime(model, overlay);
        runtime.rng().reseed(0x5EED);
        return runtime.run_sample(image).exc_counts;
    };
    EXPECT_EQ(run(FaultOverlay::compose(threshold, gain)),
              run(FaultOverlay::compose(gain, threshold)));
}

TEST(FaultOverlay, LastWriterWinsOnConflictingTargets) {
    const auto model = NetworkModel::random(tiny_config(), 3);
    const std::size_t mask[] = {2};
    FaultOverlay first;
    first.scale_threshold(OverlayLayer::kExcitatory, mask, 0.5f);
    FaultOverlay second;
    second.scale_threshold(OverlayLayer::kExcitatory, mask, 2.0f);

    NetworkRuntime forward(model, FaultOverlay::compose(first, second));
    EXPECT_FLOAT_EQ(forward.threshold_scale(OverlayLayer::kExcitatory, 2), 2.0f);
    NetworkRuntime reverse(model, FaultOverlay::compose(second, first));
    EXPECT_FLOAT_EQ(reverse.threshold_scale(OverlayLayer::kExcitatory, 2), 0.5f);
}

TEST(FaultOverlay, EveryFieldKindExpandsIntoRuntimeState) {
    const auto model = NetworkModel::random(tiny_config(), 3);
    const std::size_t n2[] = {2};
    const std::size_t n3[] = {3};
    const std::size_t n4[] = {4};
    FaultOverlay overlay;
    overlay.set_driver_gain(1.25f)
        .scale_driver_gain(n2, 0.7f)
        .force_state(OverlayLayer::kInhibitory, n3, NeuronFault::kSaturated)
        .override_refractory(OverlayLayer::kExcitatory, n4, 9)
        .set_weight(1, 1, 0.33f);
    NetworkRuntime runtime(model, overlay);

    EXPECT_FLOAT_EQ(runtime.driver_gain(), 1.25f);
    EXPECT_FLOAT_EQ(runtime.neuron_driver_gain(OverlayLayer::kExcitatory, 2), 0.7f);
    EXPECT_EQ(runtime.forced_state(OverlayLayer::kInhibitory, 3),
              NeuronFault::kSaturated);
    EXPECT_EQ(runtime.refractory_steps(OverlayLayer::kExcitatory, 4), 9);
    EXPECT_FLOAT_EQ(runtime.weight_row(1)[1], 0.33f);
    // Untouched neurons keep nominal state.
    EXPECT_EQ(runtime.forced_state(OverlayLayer::kInhibitory, 4),
              NeuronFault::kNominal);
    EXPECT_EQ(runtime.refractory_steps(OverlayLayer::kExcitatory, 3),
              tiny_config().excitatory.lif.refrac_steps);
}

/// The two threshold semantics move the threshold in opposite directions:
/// scaling the rest-to-threshold distance by (1 + delta) lowers it for
/// delta < 0, while BindsNET's value delta (v_thresh * (1 + delta)) on a
/// negative threshold raises it.
TEST(FaultOverlay, ValueDeltaAndDistanceScaleMoveThresholdOppositeWays) {
    const auto model = NetworkModel::random(tiny_config(), 3);
    const LifParams& lif = tiny_config().excitatory.lif;
    const std::size_t target[] = {0};
    const OverlayLayer exc = OverlayLayer::kExcitatory;
    const auto threshold = [&](const FaultOverlay& overlay) {
        return NetworkRuntime(model, overlay).effective_threshold(exc, 0);
    };
    for (const float delta : {-0.2f, -0.1f, 0.1f, 0.2f}) {
        const float by_distance =
            threshold(FaultOverlay().scale_threshold(exc, target, 1.0f + delta));
        const float by_value =
            threshold(FaultOverlay().shift_threshold_value(exc, target, delta));
        EXPECT_NEAR(by_distance, lif.v_rest + (lif.v_thresh - lif.v_rest) * (1 + delta),
                    1e-4);
        EXPECT_NEAR(by_value, lif.v_thresh * (1 + delta), 1e-3);
        // delta < 0: the distance scale lowers the threshold (easier
        // firing), the value delta raises it (harder); delta > 0 inverts.
        const float sign = delta < 0.0f ? -1.0f : 1.0f;
        EXPECT_GT(sign * (by_distance - lif.v_thresh), 0.0f) << delta;
        EXPECT_LT(sign * (by_value - lif.v_thresh), 0.0f) << delta;
    }
}

/// A threshold fault scales the rest-to-threshold distance only; the
/// adaptive theta is added on top unscaled.
TEST(FaultOverlay, ThresholdFaultDoesNotScaleTheta) {
    const DiehlCookConfig config = tiny_config();
    const auto random = NetworkModel::random(config, 3);
    std::vector<float> theta(config.n_neurons, 0.0f);
    theta[0] = 0.05f;
    const auto model = std::make_shared<const NetworkModel>(
        config, random->input_weights(), theta);
    const std::size_t target[] = {0};
    FaultOverlay halved;
    halved.scale_threshold(OverlayLayer::kExcitatory, target, 0.5f);
    const NetworkRuntime runtime(model, halved);
    const LifParams& lif = config.excitatory.lif;
    EXPECT_NEAR(runtime.effective_threshold(OverlayLayer::kExcitatory, 0),
                lif.v_rest + (lif.v_thresh - lif.v_rest) * 0.5f + 0.05f, 1e-4);
}

TEST(FaultOverlay, Validation) {
    FaultOverlay overlay;
    const std::size_t mask[] = {1};
    EXPECT_THROW(overlay.override_refractory(OverlayLayer::kExcitatory, mask, -1),
                 std::invalid_argument);
    EXPECT_THROW(overlay.flip_weight_bit(0, 0, 32), std::invalid_argument);

    FaultOverlay out_of_range;
    const std::size_t bad[] = {999};
    out_of_range.force_state(OverlayLayer::kExcitatory, bad, NeuronFault::kDead);
    EXPECT_THROW(NetworkRuntime(NetworkModel::random(tiny_config(), 1),
                                out_of_range),
                 std::out_of_range);
}

TEST(FaultOverlay, EmptyAndDriverGainInspection) {
    FaultOverlay overlay;
    EXPECT_TRUE(overlay.empty());
    EXPECT_FALSE(overlay.has_driver_gain());
    overlay.set_driver_gain(0.8f);
    EXPECT_FALSE(overlay.empty());
    EXPECT_FLOAT_EQ(overlay.driver_gain(), 0.8f);
}

}  // namespace
}  // namespace snnfi::snn
