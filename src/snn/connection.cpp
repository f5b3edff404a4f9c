#include "snn/connection.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace snnfi::snn {

namespace {

constexpr std::size_t kNeverFired = std::numeric_limits<std::size_t>::max();

}  // namespace

DenseConnection::DenseConnection(std::size_t n_pre, std::size_t n_post,
                                 StdpParams params, float norm_total, util::Rng& rng,
                                 float init_max)
    : weights_(n_pre, n_post), stdp_(params), norm_total_(norm_total) {
    if (n_pre == 0 || n_post == 0)
        throw std::invalid_argument("DenseConnection: empty dimension");
    // Row-major logical order — the same RNG draw sequence as the
    // historical contiguous-storage init (padding lanes consume none).
    for (std::size_t r = 0; r < n_pre; ++r) {
        for (float& w : weights_.row(r))
            w = static_cast<float>(rng.uniform()) * init_max;
    }
    init_state();
    if (norm_total_ > 0.0f) normalize();
}

DenseConnection::DenseConnection(Matrix initial, StdpParams params, float norm_total)
    : weights_(std::move(initial)), stdp_(params), norm_total_(norm_total) {
    if (weights_.rows() == 0 || weights_.cols() == 0)
        throw std::invalid_argument("DenseConnection: empty dimension");
    init_state();
}

void DenseConnection::init_state() {
    trace_decay_ = std::exp(-stdp_.dt_ms / stdp_.trace_tau_ms);
    trace_post_.assign(n_post(), 0.0f);
    trace_table_.assign(1, 1.0f);
    last_spike_.assign(n_pre(), kNeverFired);
    fired_.reserve(n_pre());
    spiked_posts_.reserve(n_post());
    walk_traces_.assign(n_pre(), 0.0f);
    all_rows_.resize(n_pre());
    std::iota(all_rows_.begin(), all_rows_.end(), std::uint32_t{0});
    column_sums_.assign(weights_.stride(), 0.0f);
    learn_drive_.assign(n_post(), 0.0f);
}

void DenseConnection::learn(std::span<const std::uint32_t> active_pre,
                            std::span<const std::uint8_t> post_spiked) {
    if (std::ranges::adjacent_find(active_pre, std::greater_equal{}) != active_pre.end())
        throw std::invalid_argument("DenseConnection::learn: input indices not ascending");
    if (!active_pre.empty() && active_pre.back() >= n_pre())
        throw std::out_of_range("DenseConnection::learn: input index out of range");
    if (post_spiked.size() != n_post())
        throw std::invalid_argument("DenseConnection::learn: post spikes != n_post");
    std::fill(learn_drive_.begin(), learn_drive_.end(), 0.0f);
    depress(active_pre, learn_drive_.data());
    (void)potentiate(post_spiked);
}

void DenseConnection::depress(std::span<const std::uint32_t> active_pre, float* drive) {
    // Decay first (BindsNET order: decay, then event updates). The input
    // traces decay by the step count alone.
    for (float& t : trace_post_) t *= trace_decay_;
    ++step_;
    if (step_ >= trace_table_.size() && !table_at_fixed_point_) {
        const float next = trace_table_.back() * trace_decay_;
        if (std::bit_cast<std::uint32_t>(next) ==
            std::bit_cast<std::uint32_t>(trace_table_.back())) {
            table_at_fixed_point_ = true;
        } else {
            trace_table_.push_back(next);
        }
    }
    // Pre-synaptic events: depression proportional to the post trace, in
    // the drive pass.
    kernels::depress_rows(weights_.data(), weights_.stride(), active_pre,
                          trace_post_.data(), stdp_.nu_pre, stdp_.wmin, drive, n_post());
    for (const std::uint32_t pre : active_pre) {
        if (last_spike_[pre] == kNeverFired) fired_.push_back(pre);
        last_spike_[pre] = step_;
    }
    if (!active_pre.empty()) depressed_since_check_ = true;
}

float DenseConnection::pre_trace(std::uint32_t pre) const {
    const std::size_t last = last_spike_[pre];
    if (last == kNeverFired) return 0.0f;
    return trace_table_[std::min(step_ - last, trace_table_.size() - 1)];
}

PotentiationWalk DenseConnection::potentiate(std::span<const std::uint8_t> post_spiked) {
    // Post-synaptic events: potentiation proportional to the pre trace,
    // one pass over the walked rows for all of this step's posts.
    spiked_posts_.clear();
    for (std::size_t j = 0; j < post_spiked.size(); ++j) {
        if (post_spiked[j]) spiked_posts_.push_back(static_cast<std::uint32_t>(j));
    }
    if (spiked_posts_.empty()) return {};
    if (noop_ == NoopCheck::kStale) {
        record_check(kernels::potentiation_is_noop(weights_.data(), weights_.stride(),
                                                   n_pre(), stdp_.nu_post, stdp_.wmax));
    }
    const bool every_row = noop_ == NoopCheck::kFails;
    const std::span<const std::uint32_t> rows = every_row ? all_rows_ : fired_;
    for (std::size_t k = 0; k < rows.size(); ++k) walk_traces_[k] = pre_trace(rows[k]);
    kernels::potentiate(weights_.data(), weights_.stride(), rows, walk_traces_.data(),
                        stdp_.nu_post, stdp_.wmax, spiked_posts_);
    for (const std::uint32_t j : spiked_posts_) trace_post_[j] = 1.0f;
    return {rows.size(), every_row};
}

void DenseConnection::record_check(bool holds) {
    noop_ = holds ? NoopCheck::kHolds : NoopCheck::kFails;
    depressed_since_check_ = false;
}

void DenseConnection::normalize() {
    if (norm_total_ <= 0.0f) return;
    record_check(kernels::normalize_columns(weights_.data(), weights_.stride(), n_pre(),
                                            norm_total_, column_sums_.data(),
                                            stdp_.nu_post, stdp_.wmax));
}

void DenseConnection::reset_traces() {
    std::fill(trace_post_.begin(), trace_post_.end(), 0.0f);
    for (const std::uint32_t pre : fired_) last_spike_[pre] = kNeverFired;
    fired_.clear();
    step_ = 0;
    // The fired rows rejoin the unfired set, and the check has not seen
    // what depression did to them.
    if (depressed_since_check_) noop_ = NoopCheck::kStale;
}

}  // namespace snnfi::snn
