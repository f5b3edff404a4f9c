#include "attack/scenarios.hpp"

#include <algorithm>
#include <stdexcept>

#include "snn/classifier.hpp"
#include "util/stats.hpp"

namespace snnfi::attack {

AttackSuite::AttackSuite(snn::Dataset dataset, AttackRunConfig config)
    : dataset_(std::move(dataset)), config_(config) {
    if (dataset_.size() == 0) throw std::invalid_argument("AttackSuite: empty dataset");
    if (config_.train_samples > dataset_.size())
        config_.train_samples = dataset_.size();
    if (config_.train_samples < dataset_.size()) {
        dataset_.images.resize(config_.train_samples);
        dataset_.labels.resize(config_.train_samples);
    }
}

const std::shared_ptr<const snn::NetworkModel>& AttackSuite::seed_model() {
    if (!seed_model_)
        seed_model_ = snn::NetworkModel::random(config_.network, config_.network_seed);
    return seed_model_;
}

double AttackSuite::baseline_accuracy() {
    if (!baseline_) {
        snn::NetworkRuntime runtime(seed_model());
        snn::Trainer trainer(runtime, config_.eval_window);
        baseline_ = trainer.run(dataset_);
        baseline_model_ = runtime.freeze();
    }
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

AttackOutcome AttackSuite::evaluate(const FaultSpec& fault) {
    // One replica over the shared untrained model, trained under the
    // fault overlay (the paper's setting). run()/run_many() build the seed
    // model before forking workers, so this lazy access never races.
    snn::NetworkRuntime runtime(seed_model(), overlay_for(fault, config_.network));
    snn::Trainer trainer(runtime, config_.eval_window);
    const snn::TrainResult result = trainer.run(dataset_);

    AttackOutcome outcome;
    outcome.fault = fault;
    outcome.accuracy = result.train_accuracy;
    outcome.retro_accuracy = result.retro_accuracy;
    outcome.exc_spikes_per_sample = result.mean_exc_spikes_per_sample;
    return outcome;
}

AttackOutcome AttackSuite::evaluate_inference_only(const FaultSpec& fault) {
    // Start from the clean-trained baseline, then inject the fault and
    // re-evaluate with frozen weights and frozen assignments (ablation
    // mode; see DESIGN.md). The baseline model carries the trained
    // weights, theta and the post-training encoder stream, so this equals
    // retraining clean here. run()/run_many() train it before forking.
    snn::NetworkRuntime runtime(baseline_model());

    constexpr std::size_t kNumClasses = 10;
    snn::ActivityClassifier classifier(config_.network.n_neurons, kNumClasses);
    // Clean inference pass establishes assignments.
    std::vector<snn::SampleActivity> clean;
    clean.reserve(dataset_.size());
    for (std::size_t i = 0; i < dataset_.size(); ++i) {
        clean.push_back(runtime.run_sample(dataset_.images[i]));
        classifier.accumulate(clean.back().exc_counts, dataset_.labels[i]);
    }
    classifier.assign_labels();

    runtime.set_overlay(overlay_for(fault, config_.network));
    std::size_t correct = 0;
    double exc_spikes = 0.0;
    for (std::size_t i = 0; i < dataset_.size(); ++i) {
        const snn::SampleActivity activity = runtime.run_sample(dataset_.images[i]);
        exc_spikes += static_cast<double>(activity.total_exc_spikes);
        if (classifier.predict(activity.exc_counts) == dataset_.labels[i]) ++correct;
    }

    AttackOutcome outcome;
    outcome.fault = fault;
    outcome.accuracy = static_cast<double>(correct) / static_cast<double>(dataset_.size());
    outcome.retro_accuracy = outcome.accuracy;
    outcome.exc_spikes_per_sample = exc_spikes / static_cast<double>(dataset_.size());
    return outcome;
}

AttackOutcome AttackSuite::evaluate_scheduled(const ScheduledTrainingSpec& spec) {
    if (spec.sample_begin < 0.0 || spec.sample_end > 1.0 ||
        spec.sample_begin >= spec.sample_end)
        throw std::invalid_argument(
            "AttackSuite: scheduled training window outside [0, 1]");
    const auto n = static_cast<double>(dataset_.size());
    auto begin = static_cast<std::size_t>(spec.sample_begin * n + 0.5);
    auto end = static_cast<std::size_t>(spec.sample_end * n + 0.5);
    if (begin >= end) {
        // A non-empty fractional window must glitch at least one sample —
        // the sample-axis twin of the compiler's one-step clamp (a narrow
        // window must not silently train glitch-free).
        begin = std::min(begin, dataset_.size() - 1);
        end = begin + 1;
    }

    snn::NetworkRuntime runtime(seed_model());
    snn::Trainer trainer(runtime, config_.eval_window);
    // The hook installs/retracts the schedule at the window's sample
    // boundaries; inside the window every sample runs STDP under the
    // glitch's step-axis segments.
    bool installed = false;
    const snn::TrainResult result = trainer.run(
        dataset_, nullptr, [&](std::size_t index) {
            const bool inside = index >= begin && index < end;
            if (inside && !installed) {
                runtime.set_schedule(spec.schedule);
                installed = true;
            } else if (!inside && installed) {
                runtime.set_schedule({});
                installed = false;
            }
        });

    AttackOutcome outcome;
    outcome.accuracy = result.train_accuracy;
    outcome.retro_accuracy = result.retro_accuracy;
    outcome.exc_spikes_per_sample = result.mean_exc_spikes_per_sample;
    return outcome;
}

AttackOutcome AttackSuite::run_scheduled(const ScheduledTrainingSpec& spec) {
    const double base = baseline_accuracy();
    AttackOutcome outcome = evaluate_scheduled(spec);
    outcome.degradation_pct =
        base > 0.0 ? util::percent_change(outcome.accuracy, base) : 0.0;
    return outcome;
}

std::vector<AttackOutcome> AttackSuite::run_scheduled_many(
    const std::vector<ScheduledTrainingSpec>& specs) {
    const double base = baseline_accuracy();  // compute before forking workers
    std::vector<AttackOutcome> outcomes(specs.size());
    const auto evaluate_point = [&](std::size_t index) {
        outcomes[index] = evaluate_scheduled(specs[index]);
        outcomes[index].degradation_pct =
            base > 0.0 ? util::percent_change(outcomes[index].accuracy, base) : 0.0;
    };
    if (pool_) {
        pool_->parallel_for(specs.size(), evaluate_point);
    } else {
        util::ThreadPool local(config_.max_workers);
        local.parallel_for(specs.size(), evaluate_point);
    }
    return outcomes;
}

AttackOutcome AttackSuite::run(const FaultSpec& fault) {
    const double base = baseline_accuracy();
    AttackOutcome outcome = config_.phase == AttackPhase::kInferenceOnly
                                ? evaluate_inference_only(fault)
                                : evaluate(fault);
    outcome.degradation_pct =
        base > 0.0 ? util::percent_change(outcome.accuracy, base) : 0.0;
    return outcome;
}

std::vector<AttackOutcome> AttackSuite::run_many(const std::vector<FaultSpec>& faults) {
    const double base = baseline_accuracy();  // compute before forking workers

    std::vector<AttackOutcome> outcomes(faults.size());
    const auto evaluate_point = [&](std::size_t index) {
        outcomes[index] = config_.phase == AttackPhase::kInferenceOnly
                              ? evaluate_inference_only(faults[index])
                              : evaluate(faults[index]);
        outcomes[index].degradation_pct =
            base > 0.0 ? util::percent_change(outcomes[index].accuracy, base) : 0.0;
    };
    if (pool_) {
        pool_->parallel_for(faults.size(), evaluate_point);
    } else {
        util::ThreadPool local(config_.max_workers);
        local.parallel_for(faults.size(), evaluate_point);
    }
    return outcomes;
}

std::vector<AttackOutcome> AttackSuite::attack1_theta(
    const std::vector<double>& gain_deltas) {
    std::vector<FaultSpec> faults;
    faults.reserve(gain_deltas.size());
    for (const double delta : gain_deltas) {
        FaultSpec fault;
        fault.layer = TargetLayer::kNone;
        fault.driver_gain = 1.0 + delta;
        faults.push_back(fault);
    }
    return run_many(faults);
}

std::vector<AttackOutcome> AttackSuite::attack_layer_grid(
    TargetLayer layer, const std::vector<double>& deltas,
    const std::vector<double>& fractions) {
    std::vector<FaultSpec> faults;
    faults.reserve(deltas.size() * fractions.size());
    for (const double delta : deltas) {
        for (const double fraction : fractions) {
            FaultSpec fault;
            fault.layer = layer;
            fault.fraction = fraction;
            fault.threshold_delta = delta;
            faults.push_back(fault);
        }
    }
    return run_many(faults);
}

std::vector<AttackOutcome> AttackSuite::attack4_both(const std::vector<double>& deltas) {
    std::vector<FaultSpec> faults;
    faults.reserve(deltas.size());
    for (const double delta : deltas) {
        FaultSpec fault;
        fault.layer = TargetLayer::kBoth;
        fault.fraction = 1.0;
        fault.threshold_delta = delta;
        faults.push_back(fault);
    }
    return run_many(faults);
}

std::vector<AttackOutcome> AttackSuite::attack5_vdd(const VddCalibration& calibration,
                                                    const std::vector<double>& vdds) {
    std::vector<FaultSpec> faults;
    faults.reserve(vdds.size());
    for (const double vdd : vdds) {
        FaultSpec fault;
        fault.layer = TargetLayer::kBoth;
        fault.fraction = 1.0;
        fault.threshold_delta = calibration.threshold_delta(vdd);
        fault.driver_gain = calibration.driver_gain(vdd);
        faults.push_back(fault);
    }
    std::vector<AttackOutcome> outcomes = run_many(faults);
    for (std::size_t i = 0; i < outcomes.size(); ++i) outcomes[i].vdd = vdds[i];
    return outcomes;
}

}  // namespace snnfi::attack
