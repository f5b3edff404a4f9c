// Activity-based readout for the unsupervised Diehl&Cook network:
// each excitatory neuron is assigned the digit label it responds to most
// strongly; predictions sum per-label activity (BindsNET "all activity").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace snnfi::snn {

class ActivityClassifier {
public:
    ActivityClassifier(std::size_t n_neurons, std::size_t n_classes);

    std::size_t n_neurons() const noexcept { return n_neurons_; }
    std::size_t n_classes() const noexcept { return n_classes_; }

    /// Accumulates one labelled sample's excitatory spike counts.
    void accumulate(std::span<const std::uint32_t> counts, std::size_t label);

    /// Computes neuron->label assignments from the accumulated activity
    /// (per-class mean response, argmax per neuron).
    void assign_labels();
    std::span<const std::size_t> assignments() const noexcept { return assignments_; }

    /// Predicts a label for one sample's counts: mean activity of the
    /// neurons assigned to each label, argmax.
    std::size_t predict(std::span<const std::uint32_t> counts) const;

private:
    std::size_t n_neurons_;
    std::size_t n_classes_;
    /// summed activity [class][neuron] and per-class sample counts
    std::vector<std::vector<double>> activity_;
    std::vector<std::size_t> samples_per_class_;
    std::vector<std::size_t> assignments_;
    std::vector<std::size_t> assigned_per_class_;
};

}  // namespace snnfi::snn
