#include "snn/connection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace snnfi::snn {

DenseConnection::DenseConnection(std::size_t n_pre, std::size_t n_post,
                                 StdpParams params, float norm_total, util::Rng& rng,
                                 float init_max)
    : weights_(n_pre, n_post), stdp_(params), norm_total_(norm_total) {
    if (n_pre == 0 || n_post == 0)
        throw std::invalid_argument("DenseConnection: empty dimension");
    trace_decay_ = std::exp(-params.dt_ms / params.trace_tau_ms);
    // Row-major logical order — the same RNG draw sequence as the
    // historical contiguous-storage init (padding lanes consume none).
    for (std::size_t r = 0; r < n_pre; ++r) {
        for (float& w : weights_.row(r))
            w = static_cast<float>(rng.uniform()) * init_max;
    }
    trace_pre_.assign(n_pre, 0.0f);
    trace_post_.assign(n_post, 0.0f);
    if (norm_total_ > 0.0f) normalize();
}

DenseConnection::DenseConnection(Matrix initial, StdpParams params, float norm_total)
    : weights_(std::move(initial)), stdp_(params), norm_total_(norm_total) {
    if (weights_.rows() == 0 || weights_.cols() == 0)
        throw std::invalid_argument("DenseConnection: empty dimension");
    trace_decay_ = std::exp(-params.dt_ms / params.trace_tau_ms);
    trace_pre_.assign(weights_.rows(), 0.0f);
    trace_post_.assign(weights_.cols(), 0.0f);
}

void DenseConnection::propagate(std::span<const std::uint32_t> active_pre,
                                std::span<float> out) const {
    if (out.size() < n_post())
        throw std::invalid_argument("DenseConnection::propagate: size mismatch");
    // Blocked kernel over the padded storage; a padded `out` (the
    // runtime's drive buffer) skips the scalar tail, a logical one caps
    // the write at n_post — bit-identical over the logical prefix.
    const std::size_t n = std::min(out.size(), weights_.stride());
    kernels::accumulate_rows(weights_.data(), weights_.stride(), active_pre,
                             out.data(), n);
}

void DenseConnection::learn(std::span<const std::uint32_t> active_pre,
                            std::span<const std::uint8_t> post_spiked) {
    if (!learning_enabled_) return;
    // Decay traces first (BindsNET order: decay, then event updates).
    for (float& t : trace_pre_) t *= trace_decay_;
    for (float& t : trace_post_) t *= trace_decay_;

    // Pre-synaptic events: depression proportional to the post trace.
    for (const std::uint32_t pre : active_pre) {
        auto row = weights_.row(pre);
        for (std::size_t j = 0; j < row.size(); ++j) {
            row[j] = std::max(stdp_.wmin, row[j] - stdp_.nu_pre * trace_post_[j]);
        }
        trace_pre_[pre] = 1.0f;
    }
    // Post-synaptic events: potentiation proportional to the pre trace.
    for (std::size_t j = 0; j < post_spiked.size(); ++j) {
        if (!post_spiked[j]) continue;
        for (std::size_t i = 0; i < n_pre(); ++i) {
            float& w = weights_(i, j);
            w = std::min(stdp_.wmax, w + stdp_.nu_post * trace_pre_[i]);
        }
        trace_post_[j] = 1.0f;
    }
}

void DenseConnection::normalize() {
    if (norm_total_ <= 0.0f) return;
    for (std::size_t j = 0; j < n_post(); ++j) {
        const float total = weights_.column_sum(j);
        if (total > 0.0f) weights_.scale_column(j, norm_total_ / total);
    }
}

void DenseConnection::reset_traces() {
    trace_pre_.assign(trace_pre_.size(), 0.0f);
    trace_post_.assign(trace_post_.size(), 0.0f);
}

}  // namespace snnfi::snn
