// Neuron parameters (LIF and Diehl&Cook adaptive-threshold LIF) and the
// per-neuron fault vocabulary. The update rule itself lives in
// snn/kernels.hpp; NetworkRuntime holds the per-neuron state.
//
// Voltages follow BindsNET's millivolt conventions (rest -65 mV etc.).
// Per-neuron faults cover the paper's two attacked circuit parameters
// plus the behavioural faults of the src/fi campaign library:
//   * per-neuron threshold scaling — applied to the rest-to-threshold
//     distance, preserving the circuit semantics that a lower VDD lowers
//     the threshold and makes the neuron fire sooner (DESIGN.md §4);
//   * driver gain — the spike amplitude the input current drivers deliver,
//     the paper's second attacked parameter: network-wide, or per
//     excitatory neuron for a localised glitch footprint;
//   * per-neuron forced state — dead (output stuck low) or saturated
//     (output stuck oscillating, i.e. fires every step);
//   * per-neuron refractory override — a stretched recovery period.
#pragma once

#include <cstdint>

namespace snnfi::snn {

/// Behavioural per-neuron fault state (src/fi fault library).
enum class NeuronFault : std::uint8_t {
    kNominal = 0,
    kDead = 1,       ///< output stuck low: the neuron never fires
    kSaturated = 2,  ///< output stuck oscillating: fires on every step
};

struct LifParams {
    float v_rest = -65.0f;
    float v_reset = -60.0f;
    float v_thresh = -52.0f;
    float tau_ms = 100.0f;    ///< membrane time constant
    int refrac_steps = 5;     ///< refractory period in steps
    float dt_ms = 1.0f;
};

/// Converts a BindsNET-style threshold *value* delta (v_th_new =
/// v_thresh * (1 + delta)) into the rest-to-threshold distance scale the
/// runtime stores per neuron. Both voltages are negative, so delta = -0.20
/// moves the threshold *away* from rest (-52 mV -> -41.6 mV, harder
/// firing) — the semantics behind the paper's Figs. 8a-8c/9a.
inline float threshold_value_delta_scale(const LifParams& params, float delta) {
    const float dist = params.v_thresh - params.v_rest;
    const float dist_new = params.v_thresh * (1.0f + delta) - params.v_rest;
    return dist_new / dist;
}

struct DiehlCookParams {
    LifParams lif{.v_rest = -65.0f,
                  .v_reset = -60.0f,
                  .v_thresh = -52.0f,
                  .tau_ms = 100.0f,
                  .refrac_steps = 5,
                  .dt_ms = 1.0f};
    float theta_plus = 0.05f;      ///< homeostatic increment per spike [mV]
    float theta_decay_ms = 1e7f;   ///< adaptive threshold decay constant
};

}  // namespace snnfi::snn
