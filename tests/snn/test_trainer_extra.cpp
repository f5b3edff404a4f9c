// Trainer metric semantics and fault-interaction edge cases (Model/Runtime).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "snn/encoding.hpp"
#include "snn/runtime.hpp"
#include "snn/trainer.hpp"
#include "store/artifacts.hpp"

namespace snnfi::snn {
namespace {

DiehlCookConfig tiny_config() {
    DiehlCookConfig cfg;
    cfg.n_neurons = 30;
    cfg.steps_per_sample = 120;
    return cfg;
}

NetworkRuntime fresh_runtime(std::uint64_t seed, FaultOverlay overlay = {}) {
    return NetworkRuntime(NetworkModel::random(tiny_config(), seed),
                          std::move(overlay));
}

TEST(TrainerMetrics, WindowLargerThanDatasetScoresNothingOnline) {
    const auto dataset = data::make_synthetic_dataset(30, 5);
    auto runtime = fresh_runtime(7);
    Trainer trainer(runtime, /*eval_window=*/100);
    const auto result = trainer.run(dataset);
    EXPECT_DOUBLE_EQ(result.train_accuracy, 0.0);  // no window completed
    EXPECT_GT(result.retro_accuracy, 0.0);         // retro still defined
}

TEST(TrainerMetrics, OnlineScoresExactlyAfterFirstWindow) {
    const auto dataset = data::make_synthetic_dataset(60, 5);
    auto runtime = fresh_runtime(7);
    Trainer trainer(runtime, /*eval_window=*/20);
    // 60 samples, window 20: samples 20..59 are scored (40 predictions).
    const auto result = trainer.run(dataset);
    // Accuracy is a multiple of 1/40.
    const double scaled = result.train_accuracy * 40.0;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
}

TEST(TrainerMetrics, ZeroWindowRejected) {
    const auto dataset = data::make_synthetic_dataset(10, 5);
    auto runtime = fresh_runtime(7);
    Trainer trainer(runtime, 0);
    EXPECT_THROW(trainer.run(dataset), std::invalid_argument);
}

TEST(TrainerFaults, ThresholdFaultChangesTrajectory) {
    const auto dataset = data::make_synthetic_dataset(60, 5);
    std::vector<std::size_t> all(30);
    std::iota(all.begin(), all.end(), 0u);
    FaultOverlay fault;
    fault.shift_threshold_value(OverlayLayer::kInhibitory, all, -0.2f);
    auto clean = fresh_runtime(7);
    auto faulted = fresh_runtime(7, fault);
    const auto clean_result = Trainer(clean, 20).run(dataset);
    const auto fault_result = Trainer(faulted, 20).run(dataset);
    EXPECT_NE(clean_result.total_exc_spikes, fault_result.total_exc_spikes);
    // Disabled inhibition (value semantics, -20% on IL) raises activity.
    EXPECT_GT(fault_result.total_exc_spikes, clean_result.total_exc_spikes);
}

TEST(TrainerFaults, DriverGainPersistsAcrossSamples) {
    const auto dataset = data::make_synthetic_dataset(20, 5);
    auto boosted = fresh_runtime(7, FaultOverlay{}.set_driver_gain(1.5f));
    auto nominal = fresh_runtime(7);
    const auto boosted_result = Trainer(boosted, 10).run(dataset);
    const auto nominal_result = Trainer(nominal, 10).run(dataset);
    EXPECT_GT(boosted_result.total_exc_spikes, nominal_result.total_exc_spikes);
    EXPECT_FLOAT_EQ(boosted.driver_gain(), 1.5f);  // unchanged by training
}

TEST(TrainerFaults, LearningFrozenRuntimeKeepsWeights) {
    const auto dataset = data::make_synthetic_dataset(20, 5);
    auto runtime = fresh_runtime(7);
    // Learning never enabled: inference path over the shared model rows.
    const auto model = runtime.model_ptr();
    for (const auto& image : dataset.images) (void)runtime.run_sample(image);
    for (std::size_t pre = 0; pre < model->n_input(); ++pre) {
        // Every effective row is still the immutable model's, bit for bit.
        const std::vector<float> row = runtime.weight_row(pre);
        const auto model_row = model->weight_row(pre);
        ASSERT_EQ(row.size(), model_row.size());
        ASSERT_EQ(std::memcmp(row.data(), model_row.data(), row.size() * sizeof(float)),
                  0)
            << "row " << pre;
    }
    EXPECT_THROW((void)runtime.weight_row(model->n_input()), std::out_of_range);
}

TEST(TrainerFaults, TrainingMovesWeights) {
    const auto dataset = data::make_synthetic_dataset(20, 5);
    const auto model = NetworkModel::random(tiny_config(), 7);
    NetworkRuntime runtime(model);
    Trainer(runtime, 10).run(dataset);
    const auto trained = runtime.freeze();
    double total_change = 0.0;
    for (std::size_t r = 0; r < model->input_weights().rows(); ++r)
        for (std::size_t c = 0; c < model->input_weights().cols(); ++c)
            total_change += std::abs(trained->input_weights()(r, c) -
                                     model->input_weights()(r, c));
    EXPECT_GT(total_change, 0.1);
}

TEST(TrainerFaults, NormalizationHoldsDuringTraining) {
    const auto dataset = data::make_synthetic_dataset(15, 5);
    const DiehlCookConfig cfg = tiny_config();
    NetworkRuntime runtime(NetworkModel::random(cfg, 7));
    Trainer(runtime, 5).run(dataset);
    const auto trained = runtime.freeze();
    for (std::size_t j = 0; j < cfg.n_neurons; ++j)
        EXPECT_NEAR(trained->input_weights().column_sum(j), cfg.norm_total,
                    cfg.norm_total * 0.01)
            << "column " << j;
}

/// Property: accuracy is invariant to the data seed only through quality,
/// not determinism — but for a FIXED seed pair everything reproduces.
class TrainerDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrainerDeterminism, ExactReproduction) {
    const auto dataset = data::make_synthetic_dataset(40, GetParam());
    auto a = fresh_runtime(GetParam() + 1);
    auto b = fresh_runtime(GetParam() + 1);
    const auto ra = Trainer(a, 20).run(dataset);
    const auto rb = Trainer(b, 20).run(dataset);
    EXPECT_DOUBLE_EQ(ra.train_accuracy, rb.train_accuracy);
    EXPECT_EQ(ra.total_exc_spikes, rb.total_exc_spikes);
    EXPECT_EQ(ra.total_inh_spikes, rb.total_inh_spikes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrainerDeterminism, ::testing::Values(3u, 9u, 27u));

// --- raster replay: the same pass as live encoding, bit for bit ------------

SpikeRaster raster_for(const Dataset& dataset, const NetworkModel& model) {
    return SpikeRaster::encode(model.config().encoder, model.config().steps_per_sample,
                               dataset.images, model.init_rng());
}

/// Trains one runtime over `model` live and one replaying `raster`, both
/// under `overlay` and, for samples in [window_begin, window_end), under
/// `schedule`; everything the pass yields must match.
void expect_replay_equals_live(const std::shared_ptr<const NetworkModel>& model,
                               const Dataset& dataset, const SpikeRaster& raster,
                               const FaultOverlay& overlay,
                               const OverlaySchedule& schedule = {},
                               std::size_t window_begin = 0,
                               std::size_t window_end = 0) {
    const auto train = [&](const SpikeRaster* replay) {
        NetworkRuntime runtime(model, overlay);
        const SampleHook hook = [&](std::size_t sample) {
            if (sample == window_begin && !schedule.empty()) runtime.set_schedule(schedule);
            if (sample == window_end && !schedule.empty()) runtime.set_schedule({});
        };
        const TrainResult result = Trainer(runtime, 20, replay).run(dataset, nullptr, hook);
        return std::make_pair(result, runtime.freeze());
    };
    const auto [live, live_model] = train(nullptr);
    const auto [replayed, replayed_model] = train(&raster);

    EXPECT_EQ(replayed.train_accuracy, live.train_accuracy);
    EXPECT_EQ(replayed.retro_accuracy, live.retro_accuracy);
    EXPECT_EQ(replayed.total_exc_spikes, live.total_exc_spikes);
    EXPECT_EQ(replayed.total_inh_spikes, live.total_inh_spikes);
    EXPECT_EQ(replayed.mean_exc_spikes_per_sample, live.mean_exc_spikes_per_sample);
    EXPECT_EQ(replayed_model->input_weights().to_vector(),
              live_model->input_weights().to_vector());
    const auto theta_live = live_model->exc_theta();
    const auto theta_replayed = replayed_model->exc_theta();
    EXPECT_TRUE(std::equal(theta_live.begin(), theta_live.end(), theta_replayed.begin(),
                           theta_replayed.end()));
    EXPECT_EQ(replayed_model->init_rng(), live_model->init_rng());
    // The stored-baseline blob (weights, theta, post-training stream and
    // metrics) is byte-identical.
    EXPECT_EQ(store::encode_trained_baseline({replayed_model, replayed}),
              store::encode_trained_baseline({live_model, live}));
}

TEST(TrainerReplay, CleanPassEqualsLiveEncoding) {
    const auto dataset = data::make_synthetic_dataset(60, 5);
    const auto model = NetworkModel::random(tiny_config(), 7);
    expect_replay_equals_live(model, dataset, raster_for(dataset, *model), {});
}

TEST(TrainerReplay, ThresholdOverlayPassEqualsLiveEncoding) {
    const auto dataset = data::make_synthetic_dataset(60, 5);
    const auto model = NetworkModel::random(tiny_config(), 7);
    std::vector<std::size_t> half(15);
    std::iota(half.begin(), half.end(), 0u);
    FaultOverlay fault;
    fault.shift_threshold_value(OverlayLayer::kExcitatory, half, -0.2f);
    expect_replay_equals_live(model, dataset, raster_for(dataset, *model), fault);
}

TEST(TrainerReplay, ScheduledGlitchWindowEqualsLiveEncoding) {
    const auto dataset = data::make_synthetic_dataset(60, 5);
    const auto model = NetworkModel::random(tiny_config(), 7);
    std::vector<std::size_t> all(30);
    std::iota(all.begin(), all.end(), 0u);
    FaultOverlay glitch;
    glitch.set_driver_gain(1.4f).shift_threshold_value(OverlayLayer::kInhibitory, all,
                                                       -0.3f);
    const OverlaySchedule schedule{ScheduledOverlay{30, 70, glitch}};
    expect_replay_equals_live(model, dataset, raster_for(dataset, *model), {}, schedule,
                              20, 40);
}

TEST(TrainerReplay, RejectsARasterThatDoesNotMatch) {
    const auto dataset = data::make_synthetic_dataset(30, 5);
    const auto model = NetworkModel::random(tiny_config(), 7);
    const auto rejects = [&](const SpikeRaster& raster) {
        NetworkRuntime runtime(model);
        Trainer trainer(runtime, 10, &raster);
        EXPECT_THROW(trainer.run(dataset), std::invalid_argument);
    };
    const DiehlCookConfig& config = model->config();
    // Wrong sample count.
    const std::vector<std::vector<float>> fewer(dataset.images.begin(),
                                                dataset.images.end() - 1);
    rejects(SpikeRaster::encode(config.encoder, config.steps_per_sample, fewer,
                                model->init_rng()));
    // A different start state.
    util::Rng other = model->init_rng();
    (void)other.next_u64();
    rejects(SpikeRaster::encode(config.encoder, config.steps_per_sample, dataset.images,
                                other));
    // A different steps_per_sample.
    rejects(SpikeRaster::encode(config.encoder, config.steps_per_sample - 1,
                                dataset.images, model->init_rng()));
    // A different encoder config.
    PoissonEncoderConfig faster = config.encoder;
    faster.max_rate_hz *= 2.0;
    rejects(SpikeRaster::encode(faster, config.steps_per_sample, dataset.images,
                                model->init_rng()));
}

}  // namespace
}  // namespace snnfi::snn
