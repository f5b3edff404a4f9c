#include "snn/classifier.hpp"

#include <algorithm>
#include <stdexcept>

namespace snnfi::snn {

ActivityClassifier::ActivityClassifier(std::size_t n_neurons, std::size_t n_classes)
    : n_neurons_(n_neurons), n_classes_(n_classes) {
    if (n_neurons == 0 || n_classes == 0)
        throw std::invalid_argument("ActivityClassifier: empty dimension");
    activity_.assign(n_classes_, std::vector<double>(n_neurons_, 0.0));
    samples_per_class_.assign(n_classes_, 0);
    assignments_.assign(n_neurons_, 0);
    assigned_per_class_.assign(n_classes_, 0);
}

void ActivityClassifier::accumulate(std::span<const std::uint32_t> counts,
                                    std::size_t label) {
    if (counts.size() != n_neurons_)
        throw std::invalid_argument("ActivityClassifier::accumulate: size mismatch");
    if (label >= n_classes_)
        throw std::out_of_range("ActivityClassifier::accumulate: bad label");
    auto& row = activity_[label];
    for (std::size_t i = 0; i < n_neurons_; ++i) row[i] += counts[i];
    ++samples_per_class_[label];
}

void ActivityClassifier::assign_labels() {
    assigned_per_class_.assign(n_classes_, 0);
    for (std::size_t i = 0; i < n_neurons_; ++i) {
        std::size_t best_class = 0;
        double best_rate = -1.0;
        for (std::size_t c = 0; c < n_classes_; ++c) {
            const double rate =
                samples_per_class_[c] > 0
                    ? activity_[c][i] / static_cast<double>(samples_per_class_[c])
                    : 0.0;
            if (rate > best_rate) {
                best_rate = rate;
                best_class = c;
            }
        }
        assignments_[i] = best_class;
        ++assigned_per_class_[best_class];
    }
}

std::size_t ActivityClassifier::predict(std::span<const std::uint32_t> counts) const {
    if (counts.size() != n_neurons_)
        throw std::invalid_argument("ActivityClassifier::predict: size mismatch");
    std::vector<double> per_class(n_classes_, 0.0);
    for (std::size_t i = 0; i < n_neurons_; ++i)
        per_class[assignments_[i]] += counts[i];
    for (std::size_t c = 0; c < n_classes_; ++c) {
        if (assigned_per_class_[c] > 0)
            per_class[c] /= static_cast<double>(assigned_per_class_[c]);
    }
    return static_cast<std::size_t>(
        std::distance(per_class.begin(),
                      std::max_element(per_class.begin(), per_class.end())));
}

}  // namespace snnfi::snn
