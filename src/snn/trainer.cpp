#include "snn/trainer.hpp"

#include <stdexcept>

namespace snnfi::snn {

TrainResult Trainer::run(const Dataset& train, const Dataset* test,
                         const SampleHook& hook) {
    if (train.images.size() != train.labels.size())
        throw std::invalid_argument("Trainer::run: images/labels size mismatch");
    if (train.size() == 0) throw std::invalid_argument("Trainer::run: empty dataset");
    if (eval_window_ == 0) throw std::invalid_argument("Trainer::run: zero window");
    const DiehlCookConfig& config = runtime_->config();
    if (raster_ != nullptr &&
        (raster_->samples() != train.size() || raster_->config() != config.encoder ||
         raster_->steps_per_sample() != config.steps_per_sample ||
         raster_->start_rng() != runtime_->rng()))
        throw std::invalid_argument(
            "Trainer::run: raster does not match the dataset and runtime");

    const std::size_t n_neurons = config.n_neurons;
    constexpr std::size_t kNumClasses = 10;
    ActivityClassifier online(n_neurons, kNumClasses);  // cumulative activity
    ActivityClassifier retro(n_neurons, kNumClasses);

    runtime_->set_learning(true);
    std::vector<SampleActivity> records;
    records.reserve(train.size());
    TrainResult result;

    std::size_t online_correct = 0;
    std::size_t online_scored = 0;
    bool assignments_ready = false;

    for (std::size_t i = 0; i < train.size(); ++i) {
        if (hook) hook(i);
        SampleActivity activity;
        if (raster_ != nullptr) {
            runtime_->run_sample_into(*raster_, i, activity);
        } else {
            runtime_->run_sample_into(train.images[i], activity);
        }
        result.total_exc_spikes += activity.total_exc_spikes;
        result.total_inh_spikes += activity.total_inh_spikes;

        // Online metric: predict with the assignments computed from the
        // activity accumulated before the current window.
        if (assignments_ready) {
            if (online.predict(activity.exc_counts) == train.labels[i])
                ++online_correct;
            ++online_scored;
        }
        online.accumulate(activity.exc_counts, train.labels[i]);
        retro.accumulate(activity.exc_counts, train.labels[i]);
        records.push_back(std::move(activity));

        // Refresh assignments at window boundaries (cumulative activity).
        if ((i + 1) % eval_window_ == 0) {
            online.assign_labels();
            assignments_ready = true;
        }
    }

    // Leave the encoder stream where drawing the pass live would have.
    if (raster_ != nullptr) runtime_->rng() = raster_->end_rng();

    result.train_accuracy =
        online_scored > 0
            ? static_cast<double>(online_correct) / static_cast<double>(online_scored)
            : 0.0;

    retro.assign_labels();
    std::size_t retro_correct = 0;
    for (std::size_t i = 0; i < train.size(); ++i) {
        if (retro.predict(records[i].exc_counts) == train.labels[i]) ++retro_correct;
    }
    result.retro_accuracy =
        static_cast<double>(retro_correct) / static_cast<double>(train.size());
    result.mean_exc_spikes_per_sample =
        static_cast<double>(result.total_exc_spikes) /
        static_cast<double>(train.size());

    if (test != nullptr && test->size() > 0) {
        runtime_->set_learning(false);
        std::size_t test_correct = 0;
        for (std::size_t i = 0; i < test->size(); ++i) {
            const SampleActivity activity = runtime_->run_sample(test->images[i]);
            if (retro.predict(activity.exc_counts) == test->labels[i]) ++test_correct;
        }
        result.test_accuracy =
            static_cast<double>(test_correct) / static_cast<double>(test->size());
        runtime_->set_learning(true);
    }
    return result;
}

}  // namespace snnfi::snn
