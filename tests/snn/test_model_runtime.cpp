// Model/Runtime split: deterministic init/training/inference, freeze round
// trips, fault-spec overlay expansion, weight patches that leave the shared
// model untouched, and lockstep batch runs.
#include "snn/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "attack/fault_model.hpp"
#include "data/synthetic_digits.hpp"
#include "obs/metrics.hpp"
#include "snn/trainer.hpp"

namespace snnfi::snn {
namespace {

DiehlCookConfig tiny_config() {
    DiehlCookConfig cfg;
    cfg.n_neurons = 24;
    cfg.steps_per_sample = 120;
    return cfg;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Trains a fresh runtime and freezes the learned parameters.
std::shared_ptr<const NetworkModel> trained_model(const Dataset& dataset,
                                                  std::uint64_t seed,
                                                  std::size_t window) {
    NetworkRuntime runtime(NetworkModel::random(tiny_config(), seed));
    (void)Trainer(runtime, window).run(dataset);
    return runtime.freeze();
}

TEST(NetworkModel, RandomInitDeterministicBitExact) {
    const auto a = NetworkModel::random(tiny_config(), 7);
    const auto b = NetworkModel::random(tiny_config(), 7);
    EXPECT_TRUE(same_bits(a->input_weights().to_vector(),
                          b->input_weights().to_vector()));
    const auto c = NetworkModel::random(tiny_config(), 8);
    EXPECT_FALSE(same_bits(a->input_weights().to_vector(),
                           c->input_weights().to_vector()));
    for (const float theta : a->exc_theta()) EXPECT_EQ(theta, 0.0f);
}

TEST(NetworkRuntime, TrainingDeterministicAndFreezeRoundTrips) {
    const auto dataset = data::make_synthetic_dataset(60, 11);

    NetworkRuntime first(NetworkModel::random(tiny_config(), 13));
    const TrainResult result_a = Trainer(first, 30).run(dataset);
    NetworkRuntime second(NetworkModel::random(tiny_config(), 13));
    const TrainResult result_b = Trainer(second, 30).run(dataset);

    EXPECT_DOUBLE_EQ(result_a.train_accuracy, result_b.train_accuracy);
    EXPECT_DOUBLE_EQ(result_a.retro_accuracy, result_b.retro_accuracy);
    EXPECT_EQ(result_a.total_exc_spikes, result_b.total_exc_spikes);
    EXPECT_EQ(result_a.total_inh_spikes, result_b.total_inh_spikes);

    const auto frozen_a = first.freeze();
    const auto frozen_b = second.freeze();
    EXPECT_TRUE(same_bits(frozen_a->input_weights().to_vector(),
                          frozen_b->input_weights().to_vector()));
    EXPECT_TRUE(same_bits(frozen_a->exc_theta(), frozen_b->exc_theta()));
    // Training actually moved the adaptive thresholds.
    float theta_total = 0.0f;
    for (const float theta : frozen_a->exc_theta()) theta_total += theta;
    EXPECT_GT(theta_total, 0.0f);
}

TEST(NetworkRuntime, InferenceOnFrozenModelIsDeterministic) {
    const auto dataset = data::make_synthetic_dataset(30, 5);
    const auto model = trained_model(dataset, 9, 15);

    NetworkRuntime a(model);
    NetworkRuntime b(model);
    a.rng().reseed(0xBEEF);
    b.rng().reseed(0xBEEF);
    for (std::size_t i = 0; i < 5; ++i) {
        const SampleActivity act_a = a.run_sample(dataset.images[i]);
        const SampleActivity act_b = b.run_sample(dataset.images[i]);
        EXPECT_EQ(act_a.exc_counts, act_b.exc_counts) << "sample " << i;
        EXPECT_EQ(act_a.total_inh_spikes, act_b.total_inh_spikes) << "sample " << i;
    }
}

TEST(NetworkRuntime, OverlayForExpandsFaultSpec) {
    attack::FaultSpec fault;
    fault.layer = attack::TargetLayer::kBoth;
    fault.fraction = 0.5;
    fault.threshold_delta = -0.2;
    fault.driver_gain = 1.1;

    NetworkRuntime runtime(NetworkModel::random(tiny_config(), 21),
                           attack::overlay_for(fault, tiny_config()));
    EXPECT_FLOAT_EQ(runtime.driver_gain(), 1.1f);
    // Exactly half of each layer carries a shifted threshold.
    for (const OverlayLayer layer :
         {OverlayLayer::kExcitatory, OverlayLayer::kInhibitory}) {
        std::size_t shifted = 0;
        for (std::size_t i = 0; i < tiny_config().n_neurons; ++i) {
            if (runtime.threshold_scale(layer, i) != 1.0f) ++shifted;
        }
        EXPECT_EQ(shifted, tiny_config().n_neurons / 2) << to_string(layer);
    }
    // The two layers draw independent masks from the same seed.
    std::vector<bool> exc_mask, inh_mask;
    for (std::size_t i = 0; i < tiny_config().n_neurons; ++i) {
        exc_mask.push_back(runtime.threshold_scale(OverlayLayer::kExcitatory, i) !=
                           1.0f);
        inh_mask.push_back(runtime.threshold_scale(OverlayLayer::kInhibitory, i) !=
                           1.0f);
    }
    EXPECT_NE(exc_mask, inh_mask);
}

TEST(NetworkRuntime, WeightPatchesChangeOnlyTheReplica) {
    const auto model = NetworkModel::random(tiny_config(), 3);
    FaultOverlay overlay;
    overlay.set_weight(5, 2, 0.75f);
    NetworkRuntime runtime(model, overlay);

    // The patched cell reads its patched value; every other cell, the
    // model's, bit for bit.
    std::vector<float> expected(model->weight_row(5).begin(), model->weight_row(5).end());
    expected[2] = 0.75f;
    EXPECT_TRUE(same_bits(runtime.weight_row(5), expected));
    EXPECT_TRUE(same_bits(runtime.weight_row(0), model->weight_row(0)));
    // The shared model itself is untouched.
    EXPECT_NE(model->input_weights()(5, 2), 0.75f);

    // Clearing the overlay drops the patch.
    runtime.set_overlay(FaultOverlay{});
    EXPECT_TRUE(same_bits(runtime.weight_row(5), model->weight_row(5)));
    EXPECT_THROW((void)runtime.weight_row(model->n_input()), std::out_of_range);
}

TEST(NetworkRuntime, FreezeAfterPatchMaterialisesThePatch) {
    const auto model = NetworkModel::random(tiny_config(), 3);
    FaultOverlay overlay;
    overlay.set_weight(7, 1, 0.5f);
    NetworkRuntime runtime(model, overlay);
    const auto frozen = runtime.freeze();
    EXPECT_EQ(frozen->input_weights()(7, 1), 0.5f);
    // Everything else is the model's values, bit-exact.
    EXPECT_EQ(frozen->input_weights()(7, 0), model->input_weights()(7, 0));
    EXPECT_TRUE(same_bits(frozen->weight_row(0), model->weight_row(0)));
}

TEST(NetworkRuntime, DisabledLearningKeepsTheLearnedWeights) {
    // Disabling learning stops STDP and normalisation, while the replica
    // keeps driving from its learned weights: samples run afterwards
    // leave freeze()'s weights the same bit for bit.
    const auto dataset = data::make_synthetic_dataset(6, 5);
    const auto model = NetworkModel::random(tiny_config(), 13);
    NetworkRuntime runtime(model);
    runtime.set_learning(true);
    (void)runtime.run_sample(dataset.images[0]);
    const auto learned = runtime.freeze();
    ASSERT_FALSE(same_bits(learned->input_weights().to_vector(),
                           model->input_weights().to_vector()));

    runtime.set_learning(false);
    EXPECT_FALSE(runtime.learning_enabled());
    std::uint64_t exc_spikes = 0;
    for (std::size_t i = 1; i < dataset.size(); ++i)
        exc_spikes += runtime.run_sample(dataset.images[i]).total_exc_spikes;
    EXPECT_GT(exc_spikes, 0u);  // spikes STDP would have learned from
    EXPECT_TRUE(same_bits(runtime.freeze()->input_weights().to_vector(),
                          learned->input_weights().to_vector()));
}

TEST(BatchRunner, LockstepMatchesStandaloneRuns) {
    const auto dataset = data::make_synthetic_dataset(20, 5);
    const auto model = trained_model(dataset, 9, 10);

    FaultOverlay dead;
    const std::size_t mask[] = {3};
    dead.force_state(OverlayLayer::kExcitatory, mask, NeuronFault::kDead);
    FaultOverlay gain;
    gain.set_driver_gain(1.2f);
    // Weight patches on the pixels that spike most over the four samples
    // (central, lit in every digit), so the patched cells bite: stuck-at
    // wmax on several, and an exponent-bit flip.
    std::vector<float> intensity(model->n_input(), 0.0f);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t pre = 0; pre < intensity.size(); ++pre)
            intensity[pre] += dataset.images[i][pre];
    }
    std::vector<std::size_t> bright(intensity.size());
    std::iota(bright.begin(), bright.end(), 0u);
    std::sort(bright.begin(), bright.end(), [&](std::size_t a, std::size_t b) {
        return intensity[a] != intensity[b] ? intensity[a] > intensity[b] : a < b;
    });
    FaultOverlay stuck;
    for (std::size_t k = 0; k < 6; ++k) stuck.set_weight(bright[k], k, 1.0f);
    FaultOverlay flipped;
    flipped.flip_weight_bit(bright[0], 3, 30).flip_weight_bit(bright[1], 7, 22);

    const std::vector<FaultOverlay> overlays = {FaultOverlay{}, dead, gain, stuck,
                                                flipped};
    // Standalone reference runs, one shared stream per replica.
    std::vector<std::vector<std::uint32_t>> reference;
    for (const FaultOverlay& overlay : overlays) {
        NetworkRuntime runtime(model, overlay);
        runtime.rng().reseed(0xABCD);
        std::vector<std::uint32_t> counts;
        for (std::size_t i = 0; i < 4; ++i) {
            const auto activity = runtime.run_sample(dataset.images[i]);
            counts.insert(counts.end(), activity.exc_counts.begin(),
                          activity.exc_counts.end());
        }
        reference.push_back(std::move(counts));
    }

    // The same three replicas advanced in lockstep.
    std::vector<NetworkRuntime> runtimes;
    runtimes.reserve(overlays.size());
    std::vector<NetworkRuntime*> members;
    for (const FaultOverlay& overlay : overlays) runtimes.emplace_back(model, overlay);
    for (NetworkRuntime& runtime : runtimes) members.push_back(&runtime);
    BatchRunner batch(*model, members);
    util::Rng rng(0);
    rng.reseed(0xABCD);
    std::vector<std::vector<std::uint32_t>> batched(overlays.size());
    for (std::size_t i = 0; i < 4; ++i) {
        const auto activities = batch.run_sample(dataset.images[i], rng);
        for (std::size_t k = 0; k < activities.size(); ++k) {
            batched[k].insert(batched[k].end(), activities[k].exc_counts.begin(),
                              activities[k].exc_counts.end());
        }
    }
    for (std::size_t k = 0; k < overlays.size(); ++k)
        EXPECT_EQ(batched[k], reference[k]) << "replica " << k;
    // The weight patches bite: the patched replicas differ from the clean
    // one, or their agreement above proves little.
    EXPECT_NE(reference[3], reference[0]);
    EXPECT_NE(reference[4], reference[0]);
}

bool same_activity(const SampleActivity& a, const SampleActivity& b) {
    return a.exc_counts == b.exc_counts && a.total_exc_spikes == b.total_exc_spikes &&
           a.total_inh_spikes == b.total_inh_spikes;
}

TEST(BatchRunner, RasterReplayMatchesLiveEncoding) {
    const auto dataset = data::make_synthetic_dataset(20, 5);
    const auto model = trained_model(dataset, 9, 10);
    const DiehlCookConfig& config = model->config();
    constexpr std::size_t kSamples = 6;

    FaultOverlay patched;
    for (std::size_t pre = 200; pre < 600; pre += 3) patched.set_weight(pre, 2, 1.0f);
    FaultOverlay dead;
    const std::size_t mask[] = {3, 5};
    dead.force_state(OverlayLayer::kExcitatory, mask, NeuronFault::kDead);
    FaultOverlay gain;
    gain.set_driver_gain(1.5f);
    const OverlaySchedule schedule = {{30, 90, gain}};

    // One batch of a clean, a weight-patched, a dead-neuron and a scheduled
    // member per run; `feed` supplies each sample's input spikes.
    const auto run = [&](const auto& feed) {
        NetworkRuntime clean(model);
        NetworkRuntime weights(model, patched);
        NetworkRuntime dead_neurons(model, dead);
        NetworkRuntime scheduled(model);
        scheduled.set_schedule(schedule);
        BatchRunner batch(*model, {&clean, &weights, &dead_neurons, &scheduled});
        std::vector<std::vector<SampleActivity>> out;
        std::vector<SampleActivity> activities(batch.size());
        for (std::size_t i = 0; i < kSamples; ++i) {
            feed(batch, i, std::span<SampleActivity>(activities));
            out.push_back(activities);
        }
        return out;
    };

    const util::Rng start(0xBEEF);
    util::Rng rng = start;
    const auto live = run([&](BatchRunner& batch, std::size_t i,
                              std::span<SampleActivity> activities) {
        batch.run_sample_into(dataset.images[i], rng, activities);
    });
    const SpikeRaster raster = SpikeRaster::encode(
        config.encoder, config.steps_per_sample,
        std::span<const std::vector<float>>(dataset.images.data(), kSamples), start);
    const ReferenceRun reference(model, raster);
    const auto replayed = run([&](BatchRunner& batch, std::size_t i,
                                  std::span<SampleActivity> activities) {
        batch.run_sample_into(reference, i, activities);
    });

    EXPECT_EQ(rng, raster.end_rng());
    for (std::size_t i = 0; i < kSamples; ++i) {
        for (std::size_t k = 0; k < live[i].size(); ++k) {
            EXPECT_TRUE(same_activity(live[i][k], replayed[i][k]))
                << "sample " << i << " member " << k;
        }
    }
    // The faults bite: every faulty member differs from the clean one
    // somewhere, or the comparison above proves little.
    for (std::size_t k = 1; k < live.front().size(); ++k) {
        bool differs = false;
        for (std::size_t i = 0; i < kSamples; ++i)
            differs = differs || !same_activity(live[i][k], live[i][0]);
        EXPECT_TRUE(differs) << "member " << k << " behaves like the clean one";
    }
}

/// Turns telemetry on over an empty global registry, and back off (the
/// default other tests rely on) when it goes out of scope.
struct TelemetryOn {
    TelemetryOn() {
        obs::set_enabled(true);
        obs::Registry::global().reset();
    }
    ~TelemetryOn() {
        obs::set_enabled(false);
        obs::Registry::global().reset();
    }
};

TEST(BatchRunner, ActiveFractionTallyMatchesPerStepObservation) {
    const auto dataset = data::make_synthetic_dataset(20, 5);
    const auto model = trained_model(dataset, 9, 10);
    const DiehlCookConfig& config = model->config();
    constexpr std::size_t kSamples = 4;
    const SpikeRaster raster = SpikeRaster::encode(
        config.encoder, config.steps_per_sample,
        std::span<const std::vector<float>>(dataset.images.data(), kSamples),
        util::Rng(0xBEEF));
    const ReferenceRun reference(model, raster);

    const TelemetryOn telemetry;
    // Each sample once through a standalone runtime and once through a
    // three-member batch, which records each step once for the batch. Two
    // members are clean, so they follow the reference dormant throughout;
    // the third saturates an inhibitory neuron, so it wakes at step 0 and
    // re-runs its sample, which observes no step again.
    NetworkRuntime single(model);
    NetworkRuntime first(model);
    NetworkRuntime second(model);
    FaultOverlay saturated;
    const std::size_t one[] = {3};
    saturated.force_state(OverlayLayer::kInhibitory, one, NeuronFault::kSaturated);
    NetworkRuntime woken(model, saturated);
    BatchRunner batch(*model, {&first, &second, &woken});
    SampleActivity activity;
    std::vector<SampleActivity> activities(batch.size());
    for (std::size_t i = 0; i < kSamples; ++i) {
        single.run_sample_into(raster, i, activity);
        batch.run_sample_into(reference, i, activities);
    }
    obs::Histogram& tallied = obs::Registry::global().histogram("snn.active_fraction", {});

    // The per-step version: one observe() per step into a private histogram.
    obs::Registry registry;
    obs::Histogram& per_step = registry.histogram("per_step", tallied.bounds());
    const double inv_input = 1.0 / static_cast<double>(config.n_input);
    SampleSpikes spikes;
    double last = 0.0;
    for (int run = 0; run < 2; ++run) {
        for (std::size_t i = 0; i < kSamples; ++i) {
            raster.decode(i, spikes);
            for (std::size_t step = 0; step < config.steps_per_sample; ++step) {
                last = static_cast<double>(spikes.step(step).size()) * inv_input;
                per_step.observe(last);
            }
        }
    }
    EXPECT_EQ(per_step.count(), 2 * kSamples * config.steps_per_sample);
    EXPECT_EQ(tallied.count(), per_step.count());
    EXPECT_EQ(tallied.counts(), per_step.counts());
    EXPECT_EQ(obs::Registry::global().gauge("snn.active_fraction.last").value(), last);
    const std::uint64_t dormant =
        obs::Registry::global().counter("snn.steps.dormant").value();
    EXPECT_EQ(obs::Registry::global().counter("snn.steps.fast").value() +
                  obs::Registry::global().counter("snn.steps.scalar").value() + dormant,
              4 * kSamples * config.steps_per_sample);
    EXPECT_EQ(dormant, 2 * kSamples * config.steps_per_sample);
    EXPECT_GT(obs::Registry::global().counter("snn.dormant.wakes").value(), 0u);
}

/// A bit flip that puts a cell above wmax is clamped by learning the way
/// the dense STDP rule clamps it: the first post spike of its column
/// potentiates it by a zero pre trace, min(wmax, w + 0) = wmax, though its
/// input never fires. With norm_total = 0 no normalize runs, so only the
/// no-op check, made stale by writing the cell into the materialised
/// matrix, sends that potentiation over every row.
TEST(NetworkRuntime, LearningClampsAPatchedCellAboveWmax) {
    DiehlCookConfig config = tiny_config();
    config.norm_total = 0.0f;
    // A digit whose corner pixel is dark: its input never fires.
    std::vector<float> image = data::make_synthetic_dataset(1, 5).images[0];
    const std::size_t dark = 0;
    image[dark] = 0.0f;
    const auto model = NetworkModel::random(config, 17);

    // Which post neuron spikes: the patch cannot change it, as its row
    // never drives and no normalize reads it.
    NetworkRuntime clean(model);
    clean.set_learning(true);
    const SampleActivity activity = clean.run_sample(image);
    const auto post = static_cast<std::size_t>(
        std::ranges::max_element(activity.exc_counts) - activity.exc_counts.begin());
    ASSERT_GT(activity.exc_counts[post], 0u);

    FaultOverlay overlay;
    overlay.flip_weight_bit(dark, post, 30);
    const float flipped = xor_weight_bits(model->input_weights()(dark, post), 1u << 30);
    ASSERT_GT(flipped, config.stdp.wmax);
    const TelemetryOn telemetry;
    NetworkRuntime patched(model, overlay);
    patched.set_learning(true);
    EXPECT_EQ(patched.run_sample(image).exc_counts, activity.exc_counts);
    const auto frozen = patched.freeze();
    EXPECT_EQ(frozen->input_weights()(dark, post), config.stdp.wmax);
    EXPECT_GT(obs::Registry::global().counter("snn.stdp.full_walks").value(), 0u);
    // Every other cell learned what the clean run learned.
    Matrix expected = clean.freeze()->input_weights();
    expected(dark, post) = config.stdp.wmax;
    EXPECT_TRUE(same_bits(frozen->input_weights().to_vector(), expected.to_vector()));
}

TEST(BatchRunner, RasterReplayRejectsMismatchedShape) {
    const auto model = NetworkModel::random(tiny_config(), 1);
    const DiehlCookConfig& config = model->config();
    NetworkRuntime runtime(model);
    BatchRunner batch(*model, {&runtime});
    std::vector<SampleActivity> activities(1);

    const std::vector<std::vector<float>> images(2, std::vector<float>(config.n_input, 0.5f));
    const std::vector<std::vector<float>> small(2, std::vector<float>(config.n_input - 1, 0.5f));
    const SpikeRaster wrong_size =
        SpikeRaster::encode(config.encoder, config.steps_per_sample, small, util::Rng(1));
    EXPECT_THROW(ReferenceRun(model, wrong_size), std::invalid_argument);
    const SpikeRaster wrong_steps = SpikeRaster::encode(
        config.encoder, config.steps_per_sample + 1, images, util::Rng(1));
    EXPECT_THROW(ReferenceRun(model, wrong_steps), std::invalid_argument);

    const ReferenceRun reference(
        model,
        SpikeRaster::encode(config.encoder, config.steps_per_sample, images, util::Rng(1)));
    EXPECT_NO_THROW(batch.run_sample_into(reference, 1, activities));
    std::vector<SampleActivity> too_many(2);
    EXPECT_THROW(batch.run_sample_into(reference, 0, too_many), std::invalid_argument);
    EXPECT_THROW(batch.run_sample_into(reference, 2, activities), std::out_of_range);

    // A reference recorded over another model is refused before any member
    // changes.
    const std::vector<float> theta(runtime.exc_theta().begin(), runtime.exc_theta().end());
    const ReferenceRun other_model(NetworkModel::random(config, 2), reference.raster());
    EXPECT_THROW(batch.run_sample_into(other_model, 0, activities), std::invalid_argument);
    EXPECT_TRUE(same_bits(runtime.exc_theta(), theta));
}

TEST(BatchRunner, RejectsForeignModelsAndLearningRuntimes) {
    const auto model = NetworkModel::random(tiny_config(), 1);
    const auto other = NetworkModel::random(tiny_config(), 2);
    NetworkRuntime mine(model);
    NetworkRuntime foreign(other);
    EXPECT_THROW(BatchRunner(*model, {&mine, &foreign}), std::invalid_argument);

    NetworkRuntime learner(model);
    learner.set_learning(true);
    EXPECT_THROW(BatchRunner(*model, {&learner}), std::invalid_argument);
    EXPECT_THROW(BatchRunner(*model, {}), std::invalid_argument);
}

TEST(BatchRunner, RejectsAMemberThatStartsLearningAfterJoining) {
    const auto model = NetworkModel::random(tiny_config(), 1);
    const DiehlCookConfig& config = model->config();
    NetworkRuntime clean(model);
    NetworkRuntime learner(model);
    BatchRunner batch(*model, {&clean, &learner});
    learner.set_learning(true);
    const std::vector<float> before = learner.freeze()->input_weights().to_vector();

    // The batch steps over the model's matrix, so a run would drive the
    // learner from weights its STDP never writes; both overloads refuse
    // before any member changes.
    const std::vector<std::vector<float>> images(2, std::vector<float>(config.n_input, 0.5f));
    std::vector<SampleActivity> activities(2);
    util::Rng rng(3);
    EXPECT_THROW(batch.run_sample_into(images[0], rng, activities), std::invalid_argument);
    const SpikeRaster raster =
        SpikeRaster::encode(config.encoder, config.steps_per_sample, images, util::Rng(1));
    const ReferenceRun reference(model, raster);
    EXPECT_THROW(batch.run_sample_into(reference, 0, activities), std::invalid_argument);
    EXPECT_TRUE(same_bits(learner.freeze()->input_weights().to_vector(), before));
}

}  // namespace
}  // namespace snnfi::snn
