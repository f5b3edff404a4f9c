// Scheduled overlays: piecewise fault activation at step boundaries.
// The invariants the glitch pipeline rests on: a one-segment full-range
// schedule is bit-identical to the static overlay, schedules reset between
// samples, swaps preserve dynamic state, and the lockstep batch path
// agrees with standalone scheduled runs.
#include <gtest/gtest.h>

#include "data/synthetic_digits.hpp"
#include "snn/model.hpp"
#include "snn/runtime.hpp"
#include "snn/trainer.hpp"

namespace snnfi::snn {
namespace {

DiehlCookConfig tiny_config() {
    DiehlCookConfig cfg;
    cfg.n_neurons = 20;
    cfg.steps_per_sample = 120;
    return cfg;
}

std::shared_ptr<const NetworkModel> trained_model() {
    static const std::shared_ptr<const NetworkModel> model = [] {
        const auto dataset = data::make_synthetic_dataset(30, 5);
        NetworkRuntime runtime(NetworkModel::random(tiny_config(), 9));
        (void)Trainer(runtime, 15).run(dataset);
        return runtime.freeze();
    }();
    return model;
}

FaultOverlay glitch_overlay() {
    std::vector<std::size_t> all(tiny_config().n_neurons);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    FaultOverlay overlay;
    overlay.shift_threshold_value(OverlayLayer::kExcitatory, all, -0.18f);
    overlay.shift_threshold_value(OverlayLayer::kInhibitory, all, -0.18f);
    overlay.set_driver_gain(0.68f);
    return overlay;
}

std::vector<std::uint32_t> run_counts(NetworkRuntime& runtime,
                                      const Dataset& dataset, std::size_t samples,
                                      std::uint64_t seed) {
    runtime.rng().reseed(seed);
    std::vector<std::uint32_t> counts;
    for (std::size_t i = 0; i < samples; ++i) {
        const auto activity = runtime.run_sample(dataset.images[i]);
        counts.insert(counts.end(), activity.exc_counts.begin(),
                      activity.exc_counts.end());
    }
    return counts;
}

TEST(OverlaySchedule, FullRangeSegmentMatchesStaticOverlayBitExact) {
    const auto dataset = data::make_synthetic_dataset(10, 7);
    const auto model = trained_model();

    NetworkRuntime static_runtime(model, glitch_overlay());
    NetworkRuntime scheduled_runtime(model);
    scheduled_runtime.set_schedule(
        {{0, tiny_config().steps_per_sample, glitch_overlay()}});

    EXPECT_EQ(run_counts(static_runtime, dataset, 4, 0xAB),
              run_counts(scheduled_runtime, dataset, 4, 0xAB));
}

TEST(OverlaySchedule, SegmentBeyondSampleNeverActivates) {
    const auto dataset = data::make_synthetic_dataset(10, 7);
    const auto model = trained_model();

    NetworkRuntime clean(model);
    NetworkRuntime scheduled(model);
    scheduled.set_schedule({{tiny_config().steps_per_sample,
                             tiny_config().steps_per_sample + 10,
                             glitch_overlay()}});
    EXPECT_EQ(run_counts(clean, dataset, 3, 0xCD),
              run_counts(scheduled, dataset, 3, 0xCD));
}

TEST(OverlaySchedule, MidSampleGlitchDiffersFromCleanAndStatic) {
    const auto dataset = data::make_synthetic_dataset(10, 7);
    const auto model = trained_model();

    NetworkRuntime clean(model);
    NetworkRuntime static_runtime(model, glitch_overlay());
    NetworkRuntime scheduled(model);
    scheduled.set_schedule({{40, 80, glitch_overlay()}});

    const auto clean_counts = run_counts(clean, dataset, 4, 0xEF);
    const auto static_counts = run_counts(static_runtime, dataset, 4, 0xEF);
    const auto glitch_counts = run_counts(scheduled, dataset, 4, 0xEF);
    EXPECT_NE(glitch_counts, clean_counts);
    EXPECT_NE(glitch_counts, static_counts);
}

TEST(OverlaySchedule, ResetsBetweenSamples) {
    const auto dataset = data::make_synthetic_dataset(10, 7);
    const auto model = trained_model();
    const OverlaySchedule schedule = {
        {100, tiny_config().steps_per_sample, glitch_overlay()}};

    // The segment runs to the end of sample 1: runtime X relies on the
    // automatic between-samples reset, runtime Y re-installs the schedule
    // (a guaranteed-fresh cursor and base fault state) before sample 2.
    // Both see identical encoder streams and theta trajectories, so equal
    // sample-2 activity proves the automatic reset is complete.
    NetworkRuntime x(model);
    x.set_schedule(schedule);
    (void)run_counts(x, dataset, 1, 0x11);
    // Mid-segment at sample end: the segment's fault state is still
    // applied until the next sample begins.
    EXPECT_FLOAT_EQ(x.driver_gain(), 0.68f);
    x.rng().reseed(0x12);
    const auto second_auto = x.run_sample(dataset.images[1]).exc_counts;

    NetworkRuntime y(model);
    y.set_schedule(schedule);
    (void)run_counts(y, dataset, 1, 0x11);
    y.set_schedule(schedule);  // explicit fresh re-install
    EXPECT_FLOAT_EQ(y.driver_gain(), 1.0f);  // base state outside segments
    y.rng().reseed(0x12);
    const auto second_fresh = y.run_sample(dataset.images[1]).exc_counts;

    EXPECT_EQ(second_auto, second_fresh);
}

TEST(OverlaySchedule, MultiSegmentDeadWindowSuppressesSpikes) {
    const auto dataset = data::make_synthetic_dataset(10, 7);
    const auto model = trained_model();
    std::vector<std::size_t> all(tiny_config().n_neurons);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    FaultOverlay dead;
    dead.force_state(OverlayLayer::kExcitatory, all, NeuronFault::kDead);

    NetworkRuntime whole(model);
    whole.set_schedule({{0, tiny_config().steps_per_sample, dead}});
    NetworkRuntime brief(model);
    brief.set_schedule({{0, 10, dead}, {50, 60, dead}});

    EXPECT_EQ(run_counts(whole, dataset, 2, 0x22),
              std::vector<std::uint32_t>(2 * tiny_config().n_neurons, 0));
    std::size_t brief_total = 0;
    for (const std::uint32_t count : run_counts(brief, dataset, 2, 0x22))
        brief_total += count;
    EXPECT_GT(brief_total, 0u);
}

TEST(OverlaySchedule, BatchMatchesStandaloneScheduledRuns) {
    const auto dataset = data::make_synthetic_dataset(10, 7);
    const auto model = trained_model();
    const OverlaySchedule schedule = {{30, 90, glitch_overlay()}};

    // Standalone references: clean, scheduled, static.
    std::vector<std::vector<std::uint32_t>> reference;
    {
        NetworkRuntime clean(model);
        reference.push_back(run_counts(clean, dataset, 3, 0x33));
        NetworkRuntime scheduled(model);
        scheduled.set_schedule(schedule);
        reference.push_back(run_counts(scheduled, dataset, 3, 0x33));
        NetworkRuntime static_runtime(model, glitch_overlay());
        reference.push_back(run_counts(static_runtime, dataset, 3, 0x33));
    }

    NetworkRuntime clean(model);
    NetworkRuntime scheduled(model);
    scheduled.set_schedule(schedule);
    NetworkRuntime static_runtime(model, glitch_overlay());
    BatchRunner batch(*model, {&clean, &scheduled, &static_runtime});
    util::Rng rng(0);
    rng.reseed(0x33);
    std::vector<std::vector<std::uint32_t>> batched(3);
    for (std::size_t i = 0; i < 3; ++i) {
        const auto activities = batch.run_sample(dataset.images[i], rng);
        for (std::size_t k = 0; k < 3; ++k) {
            batched[k].insert(batched[k].end(), activities[k].exc_counts.begin(),
                              activities[k].exc_counts.end());
        }
    }
    for (std::size_t k = 0; k < 3; ++k)
        EXPECT_EQ(batched[k], reference[k]) << "replica " << k;
}

TEST(OverlaySchedule, Validation) {
    const auto model = NetworkModel::random(tiny_config(), 1);
    NetworkRuntime runtime(model);
    // Empty segment.
    EXPECT_THROW(runtime.set_schedule({{10, 10, FaultOverlay{}}}),
                 std::invalid_argument);
    // Overlap / unsorted.
    EXPECT_THROW(runtime.set_schedule(
                     {{0, 50, FaultOverlay{}}, {40, 60, FaultOverlay{}}}),
                 std::invalid_argument);
    EXPECT_THROW(runtime.set_schedule(
                     {{50, 60, FaultOverlay{}}, {0, 10, FaultOverlay{}}}),
                 std::invalid_argument);

    // Schedules and learning now cooperate (the train-time glitch path):
    // enabling either order works.
    runtime.set_schedule({{0, 10, FaultOverlay{}}});
    runtime.set_learning(true);
    NetworkRuntime learner(model);
    learner.set_learning(true);
    learner.set_schedule({{0, 10, FaultOverlay{}}});
}

// --- training-time schedules (STDP under a mid-epoch glitch) -------------

/// Trains `samples` images and returns the final weights + theta so runs
/// can be compared bit-for-bit.
std::pair<std::vector<float>, std::vector<float>> train_and_freeze(
    NetworkRuntime& runtime, const Dataset& dataset, std::size_t samples) {
    Trainer trainer(runtime, 5);
    Dataset slice = dataset;
    slice.images.resize(samples);
    slice.labels.resize(samples);
    (void)trainer.run(slice);
    const auto frozen = runtime.freeze();
    return {frozen->input_weights().to_vector(),
            {frozen->exc_theta().begin(), frozen->exc_theta().end()}};
}

TEST(OverlaySchedule, FullRangeScheduleUnderLearningMatchesStaticBitExact) {
    const auto dataset = data::make_synthetic_dataset(20, 5);
    const auto model = NetworkModel::random(tiny_config(), 9);

    NetworkRuntime static_runtime(model, glitch_overlay());
    NetworkRuntime scheduled_runtime(model);
    scheduled_runtime.set_schedule(
        {{0, tiny_config().steps_per_sample, glitch_overlay()}});

    const auto static_state = train_and_freeze(static_runtime, dataset, 20);
    const auto scheduled_state = train_and_freeze(scheduled_runtime, dataset, 20);
    // The static train-under-fault path and the one-segment full-range
    // schedule are THE SAME training, bit for bit — the invariant the
    // fi.glitch.train fig7b regression rests on.
    EXPECT_EQ(static_state.first, scheduled_state.first);
    EXPECT_EQ(static_state.second, scheduled_state.second);
}

TEST(OverlaySchedule, MidSampleGlitchUnderLearningDiffersFromClean) {
    const auto dataset = data::make_synthetic_dataset(20, 5);
    const auto model = NetworkModel::random(tiny_config(), 9);

    NetworkRuntime clean(model);
    NetworkRuntime glitched(model);
    glitched.set_schedule({{40, 80, glitch_overlay()}});

    const auto clean_state = train_and_freeze(clean, dataset, 20);
    const auto glitched_state = train_and_freeze(glitched, dataset, 20);
    EXPECT_NE(clean_state.first, glitched_state.first);
}

TEST(OverlaySchedule, BaseWeightPatchSurvivesParametricScheduleBoundaries) {
    // A persistent base-overlay weight patch crossed with a schedule that
    // carries NO weight ops: the segment boundaries must not roll the
    // patched row back (STDP keeps accumulating on it) — training with
    // the pure-boundary schedule is bit-identical to training without it.
    const auto dataset = data::make_synthetic_dataset(10, 7);
    const auto model = NetworkModel::random(tiny_config(), 9);
    FaultOverlay patch;
    patch.set_weight(5, 2, 0.9f);

    NetworkRuntime plain(model, patch);
    NetworkRuntime crossed(model, patch);
    crossed.set_schedule({{40, 80, FaultOverlay{}}});  // boundary crossings only

    const auto plain_state = train_and_freeze(plain, dataset, 10);
    const auto crossed_state = train_and_freeze(crossed, dataset, 10);
    EXPECT_EQ(plain_state.first, crossed_state.first);
    EXPECT_EQ(plain_state.second, crossed_state.second);
}

TEST(NetworkRuntime, LearningRejectsWeightPatchChanges) {
    // Weight faults are inference-time faults: once learning has
    // materialised the weights, the weight ops in force are fixed, and
    // each entry point rejects a change before it touches the replica —
    // never mid-sample.
    const auto model = NetworkModel::random(tiny_config(), 3);
    FaultOverlay base;
    base.set_weight(5, 2, 0.75f);
    FaultOverlay other;
    other.set_weight(7, 1, 0.5f);

    // set_learning: not while a schedule segment carries weight ops.
    NetworkRuntime scheduled(model, base);
    scheduled.set_schedule({{40, 80, other}});
    EXPECT_THROW(scheduled.set_learning(true), std::invalid_argument);
    EXPECT_FALSE(scheduled.learning_enabled());
    scheduled.set_overlay(other);  // still an inference replica
    scheduled.set_schedule({});
    scheduled.set_learning(true);
    EXPECT_EQ(scheduled.weight_row(7)[1], 0.5f);

    NetworkRuntime runtime(model, base);
    runtime.set_learning(true);
    EXPECT_EQ(runtime.weight_row(5)[2], 0.75f);
    // set_overlay: dropping, adding to or replacing the weight ops.
    EXPECT_THROW(runtime.set_overlay(FaultOverlay{}), std::invalid_argument);
    EXPECT_THROW(runtime.set_overlay(FaultOverlay::compose(base, other)),
                 std::invalid_argument);
    EXPECT_THROW(runtime.set_overlay(other), std::invalid_argument);
    // set_schedule: a segment carrying weight ops.
    EXPECT_THROW(runtime.set_schedule({{40, 80, other}}), std::invalid_argument);
    // Frozen learning keeps the materialised weights, so the ops stay fixed.
    runtime.set_learning(false);
    EXPECT_THROW(runtime.set_overlay(FaultOverlay{}), std::invalid_argument);

    // The rejected calls changed nothing, and parametric faults over the
    // same weight ops still come and go.
    EXPECT_EQ(runtime.overlay().weight_ops().size(), 1u);
    EXPECT_TRUE(runtime.schedule().empty());
    EXPECT_EQ(runtime.weight_row(5)[2], 0.75f);
    runtime.set_learning(true);
    runtime.set_overlay(FaultOverlay::compose(base, glitch_overlay()));
    EXPECT_FLOAT_EQ(runtime.driver_gain(), 0.68f);
    runtime.set_schedule({{40, 80, glitch_overlay()}});
    EXPECT_NO_THROW(
        (void)runtime.run_sample(std::vector<float>(tiny_config().n_input, 0.5f)));
}

TEST(NetworkRuntime, FaultSettersChangeAllOrNothing) {
    // Every op of an overlay or schedule is range-checked before either
    // setter changes anything: a neuron or cell outside the network
    // throws std::out_of_range on the call, not at a later step, and the
    // replica keeps the overlay and schedule it had — its next sample is
    // a fresh replica's under them.
    const auto dataset = data::make_synthetic_dataset(2, 7);
    const auto model = trained_model();
    const std::size_t n = tiny_config().n_neurons;
    const std::vector<std::size_t> first = {0, 1, 2, 3};
    FaultOverlay dead_segment;
    dead_segment.force_state(OverlayLayer::kExcitatory, first, NeuronFault::kDead);
    const OverlaySchedule schedule = {{40, 80, dead_segment}};

    // Each bad overlay applies valid ops before its bad one.
    const std::vector<std::size_t> beyond = {999};
    FaultOverlay bad_neuron;
    bad_neuron.scale_threshold(OverlayLayer::kExcitatory, first, 2.0f)
        .force_state(OverlayLayer::kInhibitory, beyond, NeuronFault::kSaturated);
    FaultOverlay bad_post;
    bad_post.scale_threshold(OverlayLayer::kExcitatory, first, 2.0f).set_weight(3, n, 0.5f);
    FaultOverlay bad_pre;
    bad_pre.set_weight(3, 1, 0.5f).flip_weight_bit(model->n_input(), 0, 30);

    NetworkRuntime runtime(model, glitch_overlay());
    runtime.set_schedule(schedule);
    for (const FaultOverlay& bad : {bad_neuron, bad_post, bad_pre}) {
        EXPECT_THROW(runtime.set_overlay(bad), std::out_of_range);
        EXPECT_THROW(runtime.set_schedule({{40, 80, bad}}), std::out_of_range);
        EXPECT_THROW(runtime.set_schedule({{0, 10, FaultOverlay{}}, {40, 80, bad}}),
                     std::out_of_range);
    }
    EXPECT_EQ(runtime.overlay().neuron_ops().size(),
              glitch_overlay().neuron_ops().size());
    EXPECT_TRUE(runtime.overlay().weight_ops().empty());
    ASSERT_EQ(runtime.schedule().size(), 1u);

    NetworkRuntime fresh(model, glitch_overlay());
    fresh.set_schedule(schedule);
    NetworkRuntime clean(model);
    for (const auto& image : dataset.images) {
        const SampleActivity expected = fresh.run_sample(image);
        const SampleActivity got = runtime.run_sample(image);
        EXPECT_EQ(got.exc_counts, expected.exc_counts);
        EXPECT_EQ(got.total_inh_spikes, expected.total_inh_spikes);
        // The kept faults are visible: a clean replica spikes otherwise.
        EXPECT_NE(clean.run_sample(image).exc_counts, expected.exc_counts);
    }
}

}  // namespace
}  // namespace snnfi::snn
