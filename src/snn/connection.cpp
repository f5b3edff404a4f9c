#include "snn/connection.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

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
    spiked_posts_.reserve(n_post);
    column_sums_.assign(weights_.stride(), 0.0f);
    if (norm_total_ > 0.0f) normalize();
}

DenseConnection::DenseConnection(Matrix initial, StdpParams params, float norm_total)
    : weights_(std::move(initial)), stdp_(params), norm_total_(norm_total) {
    if (weights_.rows() == 0 || weights_.cols() == 0)
        throw std::invalid_argument("DenseConnection: empty dimension");
    trace_decay_ = std::exp(-params.dt_ms / params.trace_tau_ms);
    trace_pre_.assign(weights_.rows(), 0.0f);
    trace_post_.assign(weights_.cols(), 0.0f);
    spiked_posts_.reserve(weights_.cols());
    column_sums_.assign(weights_.stride(), 0.0f);
}

void DenseConnection::learn(std::span<const std::uint32_t> active_pre,
                            std::span<const std::uint8_t> post_spiked) {
    // Decay traces first (BindsNET order: decay, then event updates).
    for (float& t : trace_pre_) t *= trace_decay_;
    for (float& t : trace_post_) t *= trace_decay_;

    // Pre-synaptic events: depression proportional to the post trace.
    kernels::depress(weights_.data(), weights_.stride(), active_pre, trace_post_.data(),
                     stdp_.nu_pre, stdp_.wmin, n_post());
    for (const std::uint32_t pre : active_pre) trace_pre_[pre] = 1.0f;
    // Post-synaptic events: potentiation proportional to the pre trace,
    // one row-major pass over the matrix for all of this step's posts.
    spiked_posts_.clear();
    for (std::size_t j = 0; j < post_spiked.size(); ++j) {
        if (post_spiked[j]) spiked_posts_.push_back(static_cast<std::uint32_t>(j));
    }
    if (spiked_posts_.empty()) return;
    kernels::potentiate(weights_.data(), weights_.stride(), n_pre(),
                        trace_pre_.data(), stdp_.nu_post, stdp_.wmax, spiked_posts_);
    for (const std::uint32_t j : spiked_posts_) trace_post_[j] = 1.0f;
}

void DenseConnection::normalize() {
    if (norm_total_ <= 0.0f) return;
    kernels::normalize_columns(weights_.data(), weights_.stride(), n_pre(),
                               norm_total_, column_sums_.data());
}

void DenseConnection::reset_traces() {
    trace_pre_.assign(trace_pre_.size(), 0.0f);
    trace_post_.assign(trace_post_.size(), 0.0f);
}

}  // namespace snnfi::snn
