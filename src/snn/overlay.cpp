#include "snn/overlay.hpp"

#include <cstring>
#include <stdexcept>

namespace snnfi::snn {

const char* to_string(OverlayLayer layer) {
    switch (layer) {
        case OverlayLayer::kExcitatory: return "excitatory";
        case OverlayLayer::kInhibitory: return "inhibitory";
    }
    return "?";
}

FaultOverlay& FaultOverlay::set_driver_gain(float gain) {
    has_driver_gain_ = true;
    driver_gain_ = gain;
    return *this;
}

FaultOverlay& FaultOverlay::add_neuron_ops(OverlayLayer layer,
                                           std::span<const std::size_t> neurons,
                                           NeuronOp::Field field, float value) {
    neuron_ops_.reserve(neuron_ops_.size() + neurons.size());
    for (const std::size_t neuron : neurons) {
        NeuronOp op;
        op.layer = layer;
        op.neuron = static_cast<std::uint32_t>(neuron);
        op.field = field;
        op.value = value;
        neuron_ops_.push_back(op);
    }
    return *this;
}

FaultOverlay& FaultOverlay::scale_threshold(OverlayLayer layer,
                                            std::span<const std::size_t> neurons,
                                            float scale) {
    return add_neuron_ops(layer, neurons, NeuronOp::Field::kThresholdScale, scale);
}

FaultOverlay& FaultOverlay::shift_threshold_value(OverlayLayer layer,
                                                  std::span<const std::size_t> neurons,
                                                  float delta) {
    return add_neuron_ops(layer, neurons, NeuronOp::Field::kThresholdValueDelta,
                          delta);
}

FaultOverlay& FaultOverlay::scale_driver_gain(std::span<const std::size_t> neurons,
                                              float gain) {
    // Input current drivers feed the excitatory layer only.
    return add_neuron_ops(OverlayLayer::kExcitatory, neurons,
                          NeuronOp::Field::kDriverGain, gain);
}

FaultOverlay& FaultOverlay::force_state(OverlayLayer layer,
                                        std::span<const std::size_t> neurons,
                                        NeuronFault state) {
    return add_neuron_ops(layer, neurons, NeuronOp::Field::kForcedState,
                          static_cast<float>(static_cast<std::uint8_t>(state)));
}

FaultOverlay& FaultOverlay::override_refractory(OverlayLayer layer,
                                                std::span<const std::size_t> neurons,
                                                int steps) {
    if (steps < 0)
        throw std::invalid_argument("FaultOverlay: negative refractory override");
    return add_neuron_ops(layer, neurons, NeuronOp::Field::kRefractoryOverride,
                          static_cast<float>(steps));
}

FaultOverlay& FaultOverlay::set_weight(std::size_t pre, std::size_t post,
                                       float value) {
    WeightOp op;
    op.pre = static_cast<std::uint32_t>(pre);
    op.post = static_cast<std::uint32_t>(post);
    op.kind = WeightOp::Kind::kSet;
    op.value = value;
    weight_ops_.push_back(op);
    return *this;
}

FaultOverlay& FaultOverlay::flip_weight_bit(std::size_t pre, std::size_t post,
                                            unsigned bit) {
    if (bit > 31) throw std::invalid_argument("FaultOverlay: bit > 31");
    WeightOp op;
    op.pre = static_cast<std::uint32_t>(pre);
    op.post = static_cast<std::uint32_t>(post);
    op.kind = WeightOp::Kind::kXorBits;
    op.bits = std::uint32_t{1} << bit;
    weight_ops_.push_back(op);
    return *this;
}

FaultOverlay& FaultOverlay::merge(const FaultOverlay& other) {
    if (other.has_driver_gain_) set_driver_gain(other.driver_gain_);
    neuron_ops_.insert(neuron_ops_.end(), other.neuron_ops_.begin(),
                       other.neuron_ops_.end());
    weight_ops_.insert(weight_ops_.end(), other.weight_ops_.begin(),
                       other.weight_ops_.end());
    return *this;
}

FaultOverlay FaultOverlay::compose(const FaultOverlay& first,
                                   const FaultOverlay& second) {
    FaultOverlay combined = first;
    combined.merge(second);
    return combined;
}

}  // namespace snnfi::snn
