#include "attack/scenarios.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "snn/classifier.hpp"
#include "util/stats.hpp"

namespace snnfi::attack {

AttackSuite::AttackSuite(std::shared_ptr<const snn::Dataset> dataset,
                         AttackRunConfig config)
    : dataset_(std::move(dataset)), config_(config) {
    if (!dataset_ || dataset_->size() == 0)
        throw std::invalid_argument("AttackSuite: empty dataset");
    if (config_.train_samples > dataset_->size())
        config_.train_samples = dataset_->size();
    if (config_.train_samples < dataset_->size()) {
        const auto n = static_cast<std::ptrdiff_t>(config_.train_samples);
        auto truncated = std::make_shared<snn::Dataset>();
        truncated->image_size = dataset_->image_size;
        truncated->images.assign(dataset_->images.begin(),
                                 dataset_->images.begin() + n);
        truncated->labels.assign(dataset_->labels.begin(),
                                 dataset_->labels.begin() + n);
        dataset_ = std::move(truncated);
    }
}

AttackSuite::AttackSuite(snn::Dataset dataset, AttackRunConfig config)
    : AttackSuite(std::make_shared<const snn::Dataset>(std::move(dataset)), config) {}

const std::shared_ptr<const snn::NetworkModel>& AttackSuite::seed_model() {
    if (!seed_model_)
        seed_model_ = snn::NetworkModel::random(config_.network, config_.network_seed);
    return seed_model_;
}

const snn::SpikeRaster& AttackSuite::raster() {
    if (!raster_) {
        obs::Span span("attack.raster");
        raster_ = snn::SpikeRaster::encode(config_.network.encoder,
                                           config_.network.steps_per_sample,
                                           dataset_->images, seed_model()->init_rng(),
                                           pool_);
        span.tag("samples", static_cast<double>(raster_->samples()));
        span.tag("bytes", static_cast<double>(raster_->bytes()));
    }
    return *raster_;
}

void AttackSuite::train_baseline(obs::Context parent) {
    obs::Span span("session.train", parent);
    span.tag("samples", static_cast<double>(dataset_->size()));
    span.tag("neurons", static_cast<double>(config_.network.n_neurons));
    snn::NetworkRuntime runtime(seed_model());
    snn::Trainer trainer(runtime, config_.eval_window, &raster());
    baseline_ = trainer.run(*dataset_);
    baseline_model_ = runtime.freeze();
}

double AttackSuite::baseline_accuracy() {
    if (!baseline_) train_baseline(obs::current_context());
    return baseline_->train_accuracy;
}

std::shared_ptr<const snn::NetworkModel> AttackSuite::baseline_model() {
    (void)baseline_accuracy();
    return baseline_model_;
}

double AttackSuite::baseline_retro_accuracy() {
    (void)baseline_accuracy();
    return baseline_->retro_accuracy;
}

const snn::TrainResult& AttackSuite::baseline_result() {
    (void)baseline_accuracy();
    return *baseline_;
}

void AttackSuite::adopt_baseline(std::shared_ptr<const snn::NetworkModel> model,
                                 snn::TrainResult result) {
    if (!model) throw std::invalid_argument("adopt_baseline: null model");
    if (baseline_)
        throw std::logic_error("adopt_baseline: baseline already trained");
    baseline_ = result;
    baseline_model_ = std::move(model);
}

std::vector<AttackOutcome> AttackSuite::for_each_point(
    const std::vector<const char*>& modes,
    const std::function<AttackOutcome(std::size_t)>& point) {
    // An untrained baseline is task 0, beside the points.
    const std::size_t baseline_tasks = baseline_ ? 0 : 1;
    std::vector<AttackOutcome> outcomes(modes.size());
    // Capture the span context BEFORE dispatch: pool workers cannot see
    // this thread's current span.
    const obs::Context parent = obs::current_context();
    const auto run_task = [&](std::size_t task) {
        if (task < baseline_tasks) {
            train_baseline(parent);
            return;
        }
        const std::size_t index = task - baseline_tasks;
        obs::Span span("attack.point", parent);
        span.tag("mode", modes[index]);
        outcomes[index] = point(index);
    };
    if (pool_) {
        pool_->parallel_for(baseline_tasks + modes.size(), run_task);
    } else {
        util::ThreadPool local(config_.max_workers);
        local.parallel_for(baseline_tasks + modes.size(), run_task);
    }
    const double base = baseline_->train_accuracy;
    for (AttackOutcome& outcome : outcomes)
        outcome.degradation_pct =
            base > 0.0 ? util::percent_change(outcome.accuracy, base) : 0.0;
    return outcomes;
}

std::vector<AttackOutcome> AttackSuite::train_many(
    const std::vector<TrainingFault>& faults) {
    const std::size_t n = dataset_->size();
    const auto samples = static_cast<double>(n);
    std::vector<std::pair<std::size_t, std::size_t>> windows;
    std::vector<const char*> modes;
    windows.reserve(faults.size());
    modes.reserve(faults.size());
    for (const TrainingFault& fault : faults) {
        if (fault.sample_begin < 0.0 || fault.sample_end > 1.0 ||
            fault.sample_begin >= fault.sample_end)
            throw std::invalid_argument("AttackSuite: training window outside [0, 1]");
        auto begin = static_cast<std::size_t>(fault.sample_begin * samples + 0.5);
        auto end = static_cast<std::size_t>(fault.sample_end * samples + 0.5);
        if (begin >= end) {
            // A non-empty fractional window must glitch at least one sample —
            // the sample-axis twin of the compiler's one-step clamp (a narrow
            // window must not silently train glitch-free).
            begin = std::min(begin, n - 1);
            end = begin + 1;
        }
        windows.emplace_back(begin, end);
        modes.push_back(fault.schedule.empty() ? "train" : "train+sched");
    }
    // Built here, before dispatch: an adopted baseline never builds them,
    // the workers (the baseline's task among them) must only read them,
    // and the raster's encode uses the pool.
    const std::shared_ptr<const snn::NetworkModel> seed = seed_model();
    const snn::SpikeRaster& stream = raster();

    return for_each_point(modes, [&](std::size_t index) {
        const TrainingFault& fault = faults[index];
        snn::NetworkRuntime runtime(seed, fault.overlay);
        snn::Trainer trainer(runtime, config_.eval_window, &stream);
        // The hook installs/retracts the schedule at the window's sample
        // boundaries; inside the window every sample runs STDP under the
        // glitch's step-axis segments.
        snn::SampleHook hook;
        bool installed = false;
        if (!fault.schedule.empty()) {
            hook = [&, window = windows[index]](std::size_t sample) {
                const bool inside = sample >= window.first && sample < window.second;
                if (inside && !installed) {
                    runtime.set_schedule(fault.schedule);
                    installed = true;
                } else if (!inside && installed) {
                    runtime.set_schedule({});
                    installed = false;
                }
            };
        }
        const snn::TrainResult result = trainer.run(*dataset_, nullptr, hook);

        AttackOutcome outcome;
        outcome.accuracy = result.train_accuracy;
        outcome.retro_accuracy = result.retro_accuracy;
        outcome.exc_spikes_per_sample = result.mean_exc_spikes_per_sample;
        return outcome;
    });
}

AttackOutcome AttackSuite::evaluate_inference_only(const snn::FaultOverlay& overlay) {
    // Start from the clean-trained baseline, then inject the fault and
    // re-evaluate with frozen weights and frozen assignments (ablation
    // mode; see DESIGN.md). The baseline model carries the trained
    // weights, theta and the post-training encoder stream, so this equals
    // retraining clean here. run_many() trains it before forking.
    snn::NetworkRuntime runtime(baseline_model());

    constexpr std::size_t kNumClasses = 10;
    snn::ActivityClassifier classifier(config_.network.n_neurons, kNumClasses);
    // Clean inference pass establishes assignments.
    const snn::Dataset& data = *dataset_;
    std::vector<snn::SampleActivity> clean;
    clean.reserve(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        clean.push_back(runtime.run_sample(data.images[i]));
        classifier.accumulate(clean.back().exc_counts, data.labels[i]);
    }
    classifier.assign_labels();

    runtime.set_overlay(overlay);
    std::size_t correct = 0;
    double exc_spikes = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const snn::SampleActivity activity = runtime.run_sample(data.images[i]);
        exc_spikes += static_cast<double>(activity.total_exc_spikes);
        if (classifier.predict(activity.exc_counts) == data.labels[i]) ++correct;
    }

    AttackOutcome outcome;
    outcome.accuracy = static_cast<double>(correct) / static_cast<double>(data.size());
    outcome.retro_accuracy = outcome.accuracy;
    outcome.exc_spikes_per_sample = exc_spikes / static_cast<double>(data.size());
    return outcome;
}

std::vector<AttackOutcome> AttackSuite::run_many(const std::vector<FaultSpec>& faults,
                                                 AttackPhase phase) {
    if (phase == AttackPhase::kInferenceOnly) {
        // Every point starts from the trained baseline: train it first.
        (void)baseline_accuracy();
        return for_each_point(std::vector<const char*>(faults.size(), "infer"),
                              [&](std::size_t index) {
                                  return evaluate_inference_only(
                                      overlay_for(faults[index], config_.network));
                              });
    }
    std::vector<TrainingFault> training(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
        training[i].overlay = overlay_for(faults[i], config_.network);
    return train_many(training);
}

}  // namespace snnfi::attack
