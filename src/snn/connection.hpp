// Synaptic connections of the Diehl&Cook topology.
//
//   input --(dense, STDP-learned)--> excitatory
//   excitatory --(one-to-one, fixed)--> inhibitory
//   inhibitory --(all-but-self, fixed negative)--> excitatory
//
// Only the learned dense connection is a class; the two fixed ones are
// terms of the neuron update in snn/kernels.hpp. The connection holds the
// weights and the STDP state: NetworkRuntime's step loop propagates its
// rows like any weight matrix's and calls learn() only while learning is
// enabled. STDP is event-driven: only rows of spiking pre-neurons are
// depressed, which keeps the 784x100 training loop fast.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "snn/tensor.hpp"
#include "util/random.hpp"

namespace snnfi::snn {

struct StdpParams {
    // Defaults follow BindsNET's reference Diehl&Cook configuration
    // (eth_mnist: nu = (1e-4, 1e-2)), which the paper's setup is based on
    // ("as configured in [23]"). Interpreting the paper's quoted
    // 0.0004/0.0002 literally as depression/potentiation rates collapses
    // network activity (see EXPERIMENTS.md, baseline row).
    float nu_pre = 1e-4f;    ///< depression rate on pre-synaptic events
    float nu_post = 1e-2f;   ///< potentiation rate on post-synaptic events
    float trace_tau_ms = 20.0f;
    float dt_ms = 1.0f;
    float wmin = 0.0f;
    float wmax = 1.0f;
};

/// Dense all-to-all connection with PostPre STDP and per-post-neuron weight
/// normalisation (BindsNET norm semantics).
class DenseConnection {
public:
    DenseConnection(std::size_t n_pre, std::size_t n_post, StdpParams params,
                    float norm_total, util::Rng& rng, float init_max = 0.3f);

    /// Adopts an existing weight matrix verbatim (no random init, no
    /// normalisation): the NetworkRuntime's learning path starts from a
    /// NetworkModel's frozen weights.
    DenseConnection(Matrix initial, StdpParams params, float norm_total);

    std::size_t n_pre() const noexcept { return weights_.rows(); }
    std::size_t n_post() const noexcept { return weights_.cols(); }
    const Matrix& weights() const noexcept { return weights_; }
    Matrix& weights() noexcept { return weights_; }

    /// One STDP step: decays traces, applies pre-event depression and
    /// post-event potentiation, updates traces.
    void learn(std::span<const std::uint32_t> active_pre,
               std::span<const std::uint8_t> post_spiked);

    /// Rescales each post-neuron's total input weight to `norm_total`.
    void normalize();

    /// Clears traces (between samples).
    void reset_traces();

    const StdpParams& params() const noexcept { return stdp_; }

private:
    Matrix weights_;
    StdpParams stdp_;
    float norm_total_;
    float trace_decay_;
    std::vector<float> trace_pre_;
    std::vector<float> trace_post_;
    // Scratch: the posts that spiked this step, and the column sums of
    // normalize() (one per padded column).
    std::vector<std::uint32_t> spiked_posts_;
    std::vector<float> column_sums_;
};

}  // namespace snnfi::snn
