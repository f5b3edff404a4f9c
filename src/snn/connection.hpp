// Synaptic connections of the Diehl&Cook topology.
//
//   input --(dense, STDP-learned)--> excitatory
//   excitatory --(one-to-one, fixed)--> inhibitory
//   inhibitory --(all-but-self, fixed negative)--> excitatory
//
// Only the learned dense connection is a class; the two fixed ones are
// terms of the neuron update in snn/kernels.hpp. The connection holds the
// weights and the STDP state: NetworkRuntime's step loop propagates its
// rows like any weight matrix's and runs STDP only while learning is
// enabled. A step does only the STDP work its spikes need, and every
// weight still gets the floating-point operations of the dense rule:
//
//   * Depression walks the rows of the inputs that spiked, inside the
//     step's drive pass (kernels::depress_rows): each active row is added
//     to the drive as it stood, then depressed. learn() runs the same
//     pass into a scratch drive.
//   * Input traces are event-driven. An input's trace is 1.0f multiplied
//     by the decay once per step since its last spike, or 0 before its
//     first spike since reset_traces(). The connection stores each input's
//     last-spike step and reads the trace from a table built with the same
//     float multiply, t[0] = 1.0f, t[k] = t[k-1] * decay. The table grows
//     with the steps since the reset (so only during the first sample of a
//     training) and stops at its float fixed point, the first entry equal
//     to its predecessor (2,018 entries at tau = 20 ms); longer gaps read
//     its last entry. The post traces decay densely, since depression
//     reads all of them every step.
//   * Potentiation walks the fired list, the inputs fired since
//     reset_traces(). An unfired input's trace is 0, and min(wmax, w +
//     nu_post * 0.0f) gives back w bit for bit unless w is above wmax, a
//     NaN or -0.0. The no-op check (kernels::potentiation_is_noop) asks
//     that of every weight: while it holds, skipping the unfired rows is
//     exact; when it fails, potentiation walks every row. normalize()
//     answers the check from its scale pass (kernels::normalize_columns).
//     Two events make it stale, and a stale check runs as a full scan
//     before the next potentiation: a call of the mutable weights(), and
//     a reset_traces() that returns rows depressed since the last check to
//     the unfired set (a potentiated row stays no-op, and a depressed one
//     may not, e.g. under wmin > wmax). A runtime's training scans once,
//     at its first potentiation; the normalize() after every sample keeps
//     the check fresh from then on.
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
    // network activity (DESIGN.md §4.3).
    float nu_pre = 1e-4f;    ///< depression rate on pre-synaptic events
    float nu_post = 1e-2f;   ///< potentiation rate on post-synaptic events
    float trace_tau_ms = 20.0f;
    float dt_ms = 1.0f;
    float wmin = 0.0f;
    float wmax = 1.0f;
};

/// The rows one potentiation walked.
struct PotentiationWalk {
    std::size_t rows = 0;    ///< rows updated
    bool every_row = false;  ///< the no-op check failed, so every row went
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
    /// Mutable access makes the no-op check stale, so the next
    /// potentiation scans the matrix first. Write through the reference
    /// before the next learn() or normalize(), not after.
    Matrix& weights() noexcept {
        noop_ = NoopCheck::kStale;
        return weights_;
    }

    /// One STDP step: decays the post traces, depresses the rows of
    /// `active_pre` by the post traces, then, for each post that spiked,
    /// potentiates by the input traces: the STDP halves of a runtime's
    /// learning step, its drive pass going to scratch it discards. Throws
    /// std::invalid_argument when `active_pre` is not strictly ascending
    /// (a spike list, as PoissonEncoder emits) or post_spiked.size() !=
    /// n_post(), and std::out_of_range for an input index >= n_pre(),
    /// before anything changes.
    void learn(std::span<const std::uint32_t> active_pre,
               std::span<const std::uint8_t> post_spiked);

    /// Rescales each post-neuron's total input weight to `norm_total`.
    void normalize();

    /// Clears traces (between samples).
    void reset_traces();

    const StdpParams& params() const noexcept { return stdp_; }

private:
    /// Runs a learning step's two halves around its neuron update, with
    /// in-range spikes by construction.
    friend class NetworkRuntime;

    enum class NoopCheck : std::uint8_t { kStale, kHolds, kFails };

    void init_state();
    /// The first half of a step: decays the post traces, adds the active
    /// rows to drive[0..n_post()) and depresses them in one pass
    /// (kernels::depress_rows; the rows must be distinct), and records
    /// their spikes.
    void depress(std::span<const std::uint32_t> active_pre, float* drive);
    /// The second half: potentiates for each post that spiked and sets
    /// their traces.
    PotentiationWalk potentiate(std::span<const std::uint8_t> post_spiked);
    float pre_trace(std::uint32_t pre) const;
    void record_check(bool holds);

    Matrix weights_;
    StdpParams stdp_;
    float norm_total_;
    float trace_decay_;
    std::vector<float> trace_post_;
    /// trace_table_[k]: an input's trace k steps after its spike.
    std::vector<float> trace_table_;
    bool table_at_fixed_point_ = false;
    std::size_t step_ = 0;  ///< learning steps since reset_traces()
    /// Per input: step_ at its last spike, or kNeverFired.
    std::vector<std::size_t> last_spike_;
    /// The inputs fired since reset_traces(), in first-spike order.
    std::vector<std::uint32_t> fired_;
    NoopCheck noop_ = NoopCheck::kStale;
    bool depressed_since_check_ = false;
    // Scratch: the posts that spiked this step, the traces of the rows a
    // potentiation walks, every row's index (the walk when the check
    // fails), the column sums of normalize() (one per padded column,
    // 64-byte aligned so the scale pass's vector loads of them never
    // split a cache line), and learn()'s drive.
    std::vector<std::uint32_t> spiked_posts_;
    std::vector<float> walk_traces_;
    std::vector<std::uint32_t> all_rows_;
    AlignedVector column_sums_;
    std::vector<float> learn_drive_;
};

}  // namespace snnfi::snn
