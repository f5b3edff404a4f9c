// FaultOverlay: a composable, data-only description of the faults one
// replica carries on top of a frozen NetworkModel.
//
// An overlay is a recorded sequence of operations that a NetworkRuntime
// expands into its struct-of-arrays fault state at construction (or at a
// schedule-segment boundary, see ScheduledOverlay below). It holds only
// what a fault model emits:
//   * the network-wide driver gain and per-neuron threshold shifts — the
//     paper's two power-attacked parameters (attack::overlay_for, and the
//     glitch compiler's schedule segments, which add per-neuron driver
//     gains for a localised footprint);
//   * forced state (dead, saturated) and refractory overrides — the
//     fi::FaultModel neuron faults;
//   * weight patches (stuck-at sets and IEEE-754 bit flips) — the
//     fi::FaultModel synapse faults. They are inference-time faults: a
//     runtime rejects a change to them once learning has materialised its
//     weights.
// Because an overlay only *describes* faults, a campaign builds thousands
// of them up front for pennies; the weight matrix stays shared and a
// replica keeps only its patched cells.
//
// Composition: apply order is last-writer-wins per (field, neuron) and
// per weight cell, XOR patches commute, and operations on distinct targets
// are order-independent — the property the paper's combined attacks
// (threshold + driver gain, attack 5) rely on.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "snn/nodes.hpp"

namespace snnfi::snn {

/// XORs a float32 weight word with a bit mask (the overlay's bit-flip
/// primitive; applying the same mask twice restores the value bit-exactly).
inline float xor_weight_bits(float value, std::uint32_t bits) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(value) ^ bits);
}

/// The two layers of the Diehl&Cook topology an overlay can address.
enum class OverlayLayer : std::uint8_t { kExcitatory = 0, kInhibitory = 1 };

const char* to_string(OverlayLayer layer);

/// One per-neuron fault operation.
struct NeuronOp {
    enum class Field : std::uint8_t {
        kThresholdScale,       ///< value = rest-to-threshold distance scale
        kThresholdValueDelta,  ///< value = BindsNET raw-threshold delta
        kForcedState,          ///< value = NeuronFault enum (as float)
        kRefractoryOverride,   ///< value = refractory steps (>= 0)
        kDriverGain,           ///< value = per-neuron feedforward drive gain
    };
    OverlayLayer layer = OverlayLayer::kExcitatory;
    std::uint32_t neuron = 0;
    Field field = Field::kThresholdScale;
    float value = 1.0f;
};

/// One input->EL weight-cell patch.
struct WeightOp {
    enum class Kind : std::uint8_t {
        kSet,      ///< pin the cell to `value` (stuck-at)
        kXorBits,  ///< XOR the float32 word with `bits` (bit flips)
    };
    std::uint32_t pre = 0;
    std::uint32_t post = 0;
    Kind kind = Kind::kSet;
    float value = 0.0f;
    std::uint32_t bits = 0;

    friend bool operator==(const WeightOp&, const WeightOp&) = default;
};

class FaultOverlay {
public:
    // --- builders (chainable) -------------------------------------------
    FaultOverlay& set_driver_gain(float gain);
    FaultOverlay& scale_threshold(OverlayLayer layer,
                                  std::span<const std::size_t> neurons, float scale);
    /// BindsNET semantics: scales the raw negative-mV threshold value by
    /// (1 + delta); converted to a distance scale against the target
    /// layer's params at apply time (threshold_value_delta_scale).
    FaultOverlay& shift_threshold_value(OverlayLayer layer,
                                        std::span<const std::size_t> neurons,
                                        float delta);
    /// Per-neuron corruption of the input current drivers: scales only the
    /// feedforward drive of the selected excitatory neurons (lateral
    /// inhibition is untouched), exactly like the network-wide
    /// set_driver_gain but spatially localised. The glitch-footprint
    /// compiler emits these when a supply dip reaches a neuron subset
    /// instead of the whole layer.
    FaultOverlay& scale_driver_gain(std::span<const std::size_t> neurons, float gain);
    FaultOverlay& force_state(OverlayLayer layer,
                              std::span<const std::size_t> neurons, NeuronFault state);
    FaultOverlay& override_refractory(OverlayLayer layer,
                                      std::span<const std::size_t> neurons, int steps);
    FaultOverlay& set_weight(std::size_t pre, std::size_t post, float value);
    FaultOverlay& flip_weight_bit(std::size_t pre, std::size_t post, unsigned bit);

    /// Appends every operation of `other` after this overlay's own
    /// (composition: `other` wins on conflicting targets).
    FaultOverlay& merge(const FaultOverlay& other);
    static FaultOverlay compose(const FaultOverlay& first, const FaultOverlay& second);

    // --- inspection ------------------------------------------------------
    bool empty() const noexcept {
        return !has_driver_gain_ && neuron_ops_.empty() && weight_ops_.empty();
    }
    bool has_driver_gain() const noexcept { return has_driver_gain_; }
    float driver_gain() const noexcept { return driver_gain_; }
    std::span<const NeuronOp> neuron_ops() const noexcept { return neuron_ops_; }
    std::span<const WeightOp> weight_ops() const noexcept { return weight_ops_; }

private:
    FaultOverlay& add_neuron_ops(OverlayLayer layer,
                                 std::span<const std::size_t> neurons,
                                 NeuronOp::Field field, float value);

    bool has_driver_gain_ = false;
    float driver_gain_ = 1.0f;
    std::vector<NeuronOp> neuron_ops_;
    std::vector<WeightOp> weight_ops_;
};

/// One activation window of a scheduled overlay: the overlay is merged on
/// top of a runtime's base overlay at `begin_step` and retracted at
/// `end_step` (exclusive), both sample-step boundaries.
struct ScheduledOverlay {
    std::size_t begin_step = 0;
    std::size_t end_step = 0;
    FaultOverlay overlay;
};

/// A piecewise fault schedule over one inference sample — the time axis of
/// transient (glitch) attacks. NetworkRuntime::set_schedule validates it:
/// segments sorted by begin_step, non-overlapping, begin < end.
using OverlaySchedule = std::vector<ScheduledOverlay>;

}  // namespace snnfi::snn
