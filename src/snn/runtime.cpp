#include "snn/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "snn/kernels.hpp"

namespace snnfi::snn {

namespace {

constexpr std::uint8_t kNominal = static_cast<std::uint8_t>(NeuronFault::kNominal);

/// Hot-loop instruments, resolved once. All of it is a no-op while
/// telemetry is off — results never depend on it.
struct SnnMetrics {
    obs::Counter& fast_steps;
    obs::Counter& scalar_steps;
    obs::Counter& dormant_steps;
    obs::Counter& wakes;
    obs::Counter& potentiations;
    obs::Counter& rows_walked;
    obs::Counter& full_walks;
    obs::Gauge& active_fraction_last;
    obs::Histogram& active_fraction;

    static SnnMetrics& get() {
        static const std::vector<double> bounds{0.02, 0.05, 0.1,
                                                0.2,  0.4,  0.8};
        static SnnMetrics metrics{
            obs::Registry::global().counter("snn.steps.fast"),
            obs::Registry::global().counter("snn.steps.scalar"),
            obs::Registry::global().counter("snn.steps.dormant"),
            obs::Registry::global().counter("snn.dormant.wakes"),
            obs::Registry::global().counter("snn.stdp.potentiations"),
            obs::Registry::global().counter("snn.stdp.rows_walked"),
            obs::Registry::global().counter("snn.stdp.full_walks"),
            obs::Registry::global().gauge("snn.active_fraction.last"),
            obs::Registry::global().histogram("snn.active_fraction", bounds)};
        return metrics;
    }
};

}  // namespace

/// One sample's telemetry, tallied in locals per step and flushed once per
/// sample, so telemetry costs a handful of relaxed atomic ops per *sample*.
struct NetworkRuntime::SampleTally {
    explicit SampleTally(SnnMetrics& m) : metrics(m), active_fraction(m.active_fraction) {}

    void step(double fraction) {
        active_fraction.observe(fraction);
        last_fraction = fraction;
    }
    /// A learning step with a post spike: the rows its potentiation
    /// walked.
    void potentiated(const PotentiationWalk& walk) {
        ++potentiations;
        rows_walked += walk.rows;
        full_walks += walk.every_row ? 1 : 0;
    }
    void flush() {
        metrics.fast_steps.add(fast_steps);
        metrics.scalar_steps.add(scalar_steps);
        metrics.dormant_steps.add(dormant_steps);
        metrics.wakes.add(wakes);
        metrics.potentiations.add(potentiations);
        metrics.rows_walked.add(rows_walked);
        metrics.full_walks.add(full_walks);
        if (active_fraction.count() != 0) metrics.active_fraction_last.set(last_fraction);
        active_fraction.flush();
    }

    SnnMetrics& metrics;
    obs::Histogram::Tally active_fraction;
    double last_fraction = 0.0;
    std::uint64_t fast_steps = 0;
    std::uint64_t scalar_steps = 0;
    std::uint64_t dormant_steps = 0;  ///< member-steps taken dormant
    std::uint64_t wakes = 0;          ///< samples re-run after a wake
    std::uint64_t potentiations = 0;
    std::uint64_t rows_walked = 0;
    std::uint64_t full_walks = 0;
};

void NetworkRuntime::LayerState::init(std::size_t n, const LifParams& params) {
    v.assign(n, params.v_rest);
    refrac.assign(n, 0);
    thresh_scale.assign(n, 1.0f);
    drive_gain.assign(n, 1.0f);
    forced.assign(n, kNominal);
    refrac_period.assign(n, params.refrac_steps);
}

void NetworkRuntime::LayerState::reset_dynamic(const LifParams& params) {
    std::fill(v.begin(), v.end(), params.v_rest);
    std::fill(refrac.begin(), refrac.end(), 0);
}

void NetworkRuntime::LayerState::reset_faults(const LifParams& params) {
    std::fill(thresh_scale.begin(), thresh_scale.end(), 1.0f);
    std::fill(drive_gain.begin(), drive_gain.end(), 1.0f);
    std::fill(forced.begin(), forced.end(), kNominal);
    std::fill(refrac_period.begin(), refrac_period.end(), params.refrac_steps);
}

void NetworkRuntime::LayerState::rebuild_patch(const LifParams& params) {
    // Identity values stay off the list: multiplying by 1.0f and scaling
    // the threshold distance by 1.0f are bitwise no-ops, so such a neuron
    // is exactly what the identity loop computes.
    patch.clear();
    for (std::uint32_t i = 0; i < v.size(); ++i) {
        if (forced[i] != kNominal || thresh_scale[i] != 1.0f ||
            refrac_period[i] != params.refrac_steps || drive_gain[i] != 1.0f)
            patch.push_back(i);
    }
}

kernels::LayerFaults NetworkRuntime::LayerState::faults() const {
    return {thresh_scale.data(), drive_gain.data(), forced.data(), refrac_period.data(),
            patch};
}

NetworkRuntime::NetworkRuntime(std::shared_ptr<const NetworkModel> model,
                               FaultOverlay overlay)
    : model_(std::move(model)), encoder_(model_->config().encoder),
      rng_(model_->init_rng()) {
    const DiehlCookConfig& config = model_->config();
    const LifParams& exc = config.excitatory.lif;
    const LifParams& inh = config.inhibitory;
    if (exc.tau_ms <= 0.0f || inh.tau_ms <= 0.0f)
        throw std::invalid_argument("NetworkRuntime: tau <= 0");
    exc_.init(config.n_neurons, exc);
    inh_.init(config.n_neurons, inh);
    exc_theta_.assign(model_->exc_theta().begin(), model_->exc_theta().end());
    exc_params_ = {.v_rest = exc.v_rest,
                   .v_reset = exc.v_reset,
                   .decay = std::exp(-exc.dt_ms / exc.tau_ms),
                   .thresh_span = exc.v_thresh - exc.v_rest,
                   .theta_decay = std::exp(-exc.dt_ms / config.excitatory.theta_decay_ms),
                   .theta_plus = config.excitatory.theta_plus,
                   .refrac_steps = exc.refrac_steps,
                   .w_inh = config.inh_weight};
    inh_params_ = {.v_rest = inh.v_rest,
                   .v_reset = inh.v_reset,
                   .decay = std::exp(-inh.dt_ms / inh.tau_ms),
                   .thresh_span = inh.v_thresh - inh.v_rest,
                   .refrac_steps = inh.refrac_steps,
                   .w_exc = config.exc_weight};
    // Padded drive buffer: the blocked kernel streams whole padded weight
    // rows, and the padding lanes (always zero in Matrix storage) land in
    // the tail the neuron update never reads.
    base_drive_.assign(kernels::padded_size(config.n_neurons), 0.0f);
    exc_input_.assign(kernels::padded_size(config.n_neurons), 0.0f);
    drive_ = exc_input_.data();
    exc_spiked_.assign(config.n_neurons, 0);
    inh_spiked_.assign(config.n_neurons, 0);
    set_overlay(overlay);
}

void NetworkRuntime::check_ranges(const FaultOverlay& overlay) const {
    const DiehlCookConfig& config = model_->config();
    for (const NeuronOp& op : overlay.neuron_ops()) {
        if (op.neuron >= config.n_neurons)
            throw std::out_of_range("NetworkRuntime: overlay neuron out of range");
    }
    for (const WeightOp& op : overlay.weight_ops()) {
        if (op.pre >= config.n_input || op.post >= config.n_neurons)
            throw std::out_of_range("NetworkRuntime: weight patch out of range");
    }
}

void NetworkRuntime::set_overlay(const FaultOverlay& overlay) {
    check_ranges(overlay);
    if (learned_ && !std::ranges::equal(overlay.weight_ops(), overlay_.weight_ops()))
        throw std::invalid_argument(
            "NetworkRuntime: weight patches are fixed once learning materialised "
            "the weights");
    overlay_ = overlay;
    apply_effective_overlay(overlay_);
}

namespace {

bool carries_weight_ops(const OverlaySchedule& schedule) {
    return std::ranges::any_of(schedule, [](const ScheduledOverlay& segment) {
        return !segment.overlay.weight_ops().empty();
    });
}

}  // namespace

void NetworkRuntime::set_schedule(OverlaySchedule schedule) {
    for (std::size_t s = 0; s < schedule.size(); ++s) {
        if (schedule[s].begin_step >= schedule[s].end_step)
            throw std::invalid_argument("NetworkRuntime: empty schedule segment");
        if (s > 0 && schedule[s].begin_step < schedule[s - 1].end_step)
            throw std::invalid_argument(
                "NetworkRuntime: schedule segments overlap or are unsorted");
        check_ranges(schedule[s].overlay);
    }
    if (learned_ && carries_weight_ops(schedule))
        throw std::invalid_argument(
            "NetworkRuntime: a schedule segment carries weight ops, but weight "
            "patches are fixed once learning materialised the weights");
    schedule_ = std::move(schedule);
    schedule_pos_ = 0;
    segment_active_ = false;
    apply_effective_overlay(overlay_);
}

void NetworkRuntime::apply_effective_overlay(const FaultOverlay& effective) {
    const DiehlCookConfig& config = model_->config();
    exc_params_.driver_gain =
        effective.has_driver_gain() ? effective.driver_gain() : 1.0f;
    exc_.reset_faults(config.excitatory.lif);
    inh_.reset_faults(config.inhibitory);
    apply_neuron_ops(effective);
    exc_.rebuild_patch(config.excitatory.lif);
    inh_.rebuild_patch(config.inhibitory);
    patch_save_.resize(std::max(exc_.patch.size(), inh_.patch.size()));
    rebuild_cell_deltas(effective);
    faulted_exc_ = exc_.patch;
    for (const CellDelta& cell : cell_deltas_) faulted_exc_.push_back(cell.post);
    std::ranges::sort(faulted_exc_);
    const auto duplicates = std::ranges::unique(faulted_exc_);
    faulted_exc_.erase(duplicates.begin(), duplicates.end());
}

void NetworkRuntime::advance_schedule(std::size_t step) {
    bool retracted = false;
    if (segment_active_ && step >= schedule_[schedule_pos_].end_step) {
        ++schedule_pos_;
        segment_active_ = false;
        retracted = true;
    }
    if (!segment_active_ && schedule_pos_ < schedule_.size() &&
        step >= schedule_[schedule_pos_].begin_step) {
        // Back-to-back segments re-expand once, straight into the next
        // segment's composed state.
        segment_active_ = true;
        apply_effective_overlay(
            FaultOverlay::compose(overlay_, schedule_[schedule_pos_].overlay));
    } else if (retracted) {
        apply_effective_overlay(overlay_);
    }
}

void NetworkRuntime::reset_schedule() {
    if (schedule_.empty()) return;
    if (segment_active_) {
        segment_active_ = false;
        apply_effective_overlay(overlay_);
    }
    schedule_pos_ = 0;
}

void NetworkRuntime::apply_neuron_ops(const FaultOverlay& effective) {
    const DiehlCookConfig& config = model_->config();
    for (const NeuronOp& op : effective.neuron_ops()) {
        const bool exc = op.layer == OverlayLayer::kExcitatory;
        LayerState& layer = exc ? exc_ : inh_;
        const LifParams& params = exc ? config.excitatory.lif : config.inhibitory;
        switch (op.field) {
            case NeuronOp::Field::kThresholdScale:
                layer.thresh_scale[op.neuron] = op.value;
                break;
            case NeuronOp::Field::kThresholdValueDelta:
                layer.thresh_scale[op.neuron] =
                    threshold_value_delta_scale(params, op.value);
                break;
            case NeuronOp::Field::kForcedState:
                layer.forced[op.neuron] =
                    static_cast<std::uint8_t>(static_cast<int>(op.value));
                break;
            case NeuronOp::Field::kRefractoryOverride:
                layer.refrac_period[op.neuron] = static_cast<std::int32_t>(op.value);
                break;
            case NeuronOp::Field::kDriverGain:
                layer.drive_gain[op.neuron] = op.value;
                break;
        }
    }
}

void NetworkRuntime::rebuild_cell_deltas(const FaultOverlay& effective) {
    const Matrix& weights = model_->input_weights();
    cell_deltas_.clear();
    for (const WeightOp& op : effective.weight_ops()) {
        auto cell = std::ranges::find_if(cell_deltas_, [&](const CellDelta& c) {
            return c.pre == op.pre && c.post == op.post;
        });
        if (cell == cell_deltas_.end()) {
            cell_deltas_.push_back({op.pre, op.post, weights(op.pre, op.post), 0.0f});
            cell = std::prev(cell_deltas_.end());
        }
        cell->value = op.kind == WeightOp::Kind::kSet
                          ? op.value
                          : xor_weight_bits(cell->value, op.bits);
    }
    for (CellDelta& cell : cell_deltas_)
        cell.delta = cell.value - weights(cell.pre, cell.post);
    std::ranges::sort(cell_deltas_, [](const CellDelta& a, const CellDelta& b) {
        return a.pre != b.pre ? a.pre < b.pre : a.post < b.post;
    });
}

void NetworkRuntime::write_cells(Matrix& weights) const {
    for (const CellDelta& cell : cell_deltas_) weights(cell.pre, cell.post) = cell.value;
}

void NetworkRuntime::set_learning(bool enabled) {
    const DiehlCookConfig& config = model_->config();
    if (enabled && !learned_) {
        // Segments carrying no weight ops leave the cells the base
        // overlay's, whichever segment is active now.
        if (carries_weight_ops(schedule_))
            throw std::invalid_argument(
                "NetworkRuntime: cannot learn under a schedule segment carrying "
                "weight ops");
        learned_.emplace(Matrix(model_->input_weights()), config.stdp,
                         config.norm_total);
        write_cells(learned_->weights());
    }
    learning_ = enabled;
}

namespace {

void check_neuron_index(std::size_t neuron, std::size_t n) {
    if (neuron >= n)
        throw std::out_of_range("NetworkRuntime: neuron index out of range");
}

}  // namespace

float NetworkRuntime::threshold_scale(OverlayLayer layer, std::size_t neuron) const {
    const LayerState& state = layer_state(layer);
    check_neuron_index(neuron, state.thresh_scale.size());
    return state.thresh_scale[neuron];
}

float NetworkRuntime::neuron_driver_gain(OverlayLayer layer,
                                         std::size_t neuron) const {
    const LayerState& state = layer_state(layer);
    check_neuron_index(neuron, state.drive_gain.size());
    return state.drive_gain[neuron];
}

NeuronFault NetworkRuntime::forced_state(OverlayLayer layer,
                                         std::size_t neuron) const {
    const LayerState& state = layer_state(layer);
    check_neuron_index(neuron, state.forced.size());
    return static_cast<NeuronFault>(state.forced[neuron]);
}

int NetworkRuntime::refractory_steps(OverlayLayer layer, std::size_t neuron) const {
    const LayerState& state = layer_state(layer);
    check_neuron_index(neuron, state.refrac_period.size());
    return state.refrac_period[neuron];
}

float NetworkRuntime::effective_threshold(OverlayLayer layer,
                                          std::size_t neuron) const {
    const LayerState& state = layer_state(layer);
    check_neuron_index(neuron, state.thresh_scale.size());
    const LifParams& params = layer == OverlayLayer::kExcitatory
                                  ? model_->config().excitatory.lif
                                  : model_->config().inhibitory;
    float threshold = params.v_rest +
                      (params.v_thresh - params.v_rest) * state.thresh_scale[neuron];
    if (layer == OverlayLayer::kExcitatory) threshold += exc_theta_[neuron];
    return threshold;
}

std::vector<float> NetworkRuntime::weight_row(std::size_t pre) const {
    const Matrix& weights = drive_weights();
    if (pre >= weights.rows())
        throw std::out_of_range("NetworkRuntime: weight row out of range");
    const auto row = weights.row(pre);
    std::vector<float> effective(row.begin(), row.end());
    if (!learned_) {
        for (const CellDelta& cell : cell_deltas_) {
            if (cell.pre == pre) effective[cell.post] = cell.value;
        }
    }
    return effective;
}

std::shared_ptr<const NetworkModel> NetworkRuntime::freeze() const {
    if (learned_) {
        return std::make_shared<const NetworkModel>(
            model_->config(), learned_->weights(), exc_theta_, rng_);
    }
    Matrix weights = model_->input_weights();
    write_cells(weights);
    return std::make_shared<const NetworkModel>(model_->config(), std::move(weights),
                                                exc_theta_, rng_);
}

void NetworkRuntime::begin_sample() {
    const DiehlCookConfig& config = model_->config();
    reset_schedule();
    exc_.reset_dynamic(config.excitatory.lif);
    inh_.reset_dynamic(config.inhibitory);
    std::fill(exc_spiked_.begin(), exc_spiked_.end(), 0);
    std::fill(inh_spiked_.begin(), inh_spiked_.end(), 0);
    if (learned_) learned_->reset_traces();
}

void NetworkRuntime::end_sample() {
    if (learning_) learned_->normalize();
}

void NetworkRuntime::adopt_drive(std::span<const float> base,
                                 std::span<const std::uint32_t> active) {
    if (cell_deltas_.empty() || learned_) {
        // No weight patches, or a base over the materialised matrix that
        // holds them already: alias the base read-only — the common
        // clean-replica case pays zero copies per step.
        drive_ = base.data();
        return;
    }
    const std::size_t n = std::min(base.size(), exc_input_.size());
    std::copy_n(base.data(), n, exc_input_.data());
    drive_ = exc_input_.data();
    // Merge-join: cell_deltas_ is sorted by (pre, post) and `active` is
    // ascending (PoissonEncoder emits pixel indices in order), so one
    // linear pass finds every delta of an active row.
    auto delta = cell_deltas_.cbegin();
    const auto deltas_end = cell_deltas_.cend();
    for (const std::uint32_t pre : active) {
        while (delta != deltas_end && delta->pre < pre) ++delta;
        if (delta == deltas_end) break;
        for (; delta != deltas_end && delta->pre == pre; ++delta)
            exc_input_[delta->post] += delta->delta;
    }
}

std::size_t NetworkRuntime::advance_step(SampleActivity& activity) {
    const std::size_t n = model_->config().n_neurons;
    // Lateral inhibition context from the previous step's IL spikes.
    std::size_t inh_total = 0;
    for (const std::uint8_t s : inh_spiked_) inh_total += s;
    const std::size_t exc_count = kernels::exc_update(
        exc_params_, exc_.faults(), drive_, inh_spiked_.data(), inh_total,
        exc_.v.data(), exc_.refrac.data(), exc_theta_.data(), exc_spiked_.data(), n,
        patch_save_.data());
    activity.total_exc_spikes += exc_count;

    activity.total_inh_spikes += kernels::inh_update(
        inh_params_, inh_.faults(), exc_spiked_.data(), inh_.v.data(),
        inh_.refrac.data(), inh_spiked_.data(), n, patch_save_.data());

    if (exc_count > 0)
        kernels::add_counts(activity.exc_counts.data(), exc_spiked_.data(), n);
    return exc_count;
}

namespace {

/// Zeroes a reusable activity record in place; only resizes (allocates)
/// when the record has never been used with this network size.
void reset_activity(SampleActivity& activity, std::size_t n) {
    if (activity.exc_counts.size() == n) {
        std::fill(activity.exc_counts.begin(), activity.exc_counts.end(), 0u);
    } else {
        activity.exc_counts.assign(n, 0u);
    }
    activity.total_exc_spikes = 0;
    activity.total_inh_spikes = 0;
}

}  // namespace

SampleActivity NetworkRuntime::run_sample(std::span<const float> image) {
    SampleActivity activity;
    run_sample_into(image, activity);
    return activity;
}

void NetworkRuntime::run_sample_into(std::span<const float> image,
                                     SampleActivity& activity) {
    const DiehlCookConfig& config = model_->config();
    if (image.size() != config.n_input)
        throw std::invalid_argument("run_sample: image size mismatch");
    // Nothing in the network reads rng_, so drawing the whole sample up
    // front consumes the stream exactly as drawing step by step would.
    // spikes_ only grows, so a reused runtime soon stops allocating
    // (asserted by test_kernels).
    encoder_.set_image(image);
    encoder_.encode(rng_, config.steps_per_sample, spikes_);
    NetworkRuntime* self = this;
    run_lockstep({&self, 1}, drive_weights(), spikes_, base_drive_, {&activity, 1});
}

void NetworkRuntime::run_sample_into(const SpikeRaster& raster, std::size_t sample,
                                     SampleActivity& activity) {
    const DiehlCookConfig& config = model_->config();
    if (raster.image_size() != config.n_input ||
        raster.steps_per_sample() != config.steps_per_sample)
        throw std::invalid_argument("run_sample: raster shape mismatch");
    raster.decode(sample, spikes_);
    NetworkRuntime* self = this;
    run_lockstep({&self, 1}, drive_weights(), spikes_, base_drive_, {&activity, 1});
}

void NetworkRuntime::run_lockstep(std::span<NetworkRuntime* const> replicas,
                                  const Matrix& weights, const SampleSpikes& spikes,
                                  std::span<float> base,
                                  std::span<SampleActivity> activities,
                                  const ReferenceSample* reference,
                                  std::vector<std::uint32_t>* record,
                                  SampleTally* rerun) {
    const DiehlCookConfig& config = replicas.front()->config();
    for (std::size_t k = 0; k < replicas.size(); ++k) {
        NetworkRuntime& replica = *replicas[k];
        replica.begin_sample();
        reset_activity(activities[k], config.n_neurons);
        replica.follow_ = reference != nullptr && replica.may_go_dormant(*reference)
                              ? Follow::kDormant
                              : Follow::kFull;
    }
    // A re-run tallies into the batch's tally, which has observed the
    // sample's steps already.
    std::optional<SampleTally> own;
    if (rerun == nullptr && obs::enabled()) own.emplace(SnnMetrics::get());
    SampleTally* const tally = own ? &*own : rerun;
    // A learning runtime runs alone (BatchRunner members never learn), and
    // its STDP depression walks the drive's active rows, in the same pass.
    DenseConnection* const learner = replicas.size() == 1 && replicas.front()->learning_
                                         ? &*replicas.front()->learned_
                                         : nullptr;
    const double inv_input = 1.0 / static_cast<double>(config.n_input);
    for (std::size_t step = 0; step < config.steps_per_sample; ++step) {
        const std::span<const std::uint32_t> active = spikes.step(step);
        // One blocked propagation per step, over the full padded length
        // (padding lanes stay zero). A learner's pass covers the logical
        // lanes only: adding its zero padding would leave the fill's zeros.
        std::fill(base.begin(), base.end(), 0.0f);
        if (learner != nullptr) {
            learner->depress(active, base.data());
        } else {
            kernels::accumulate_rows(weights.data(), weights.stride(), active,
                                     base.data(), base.size());
        }
        if (own) own->step(static_cast<double>(active.size()) * inv_input);
        for (std::size_t k = 0; k < replicas.size(); ++k) {
            NetworkRuntime& replica = *replicas[k];
            if (replica.follow_ == Follow::kWoke) continue;
            if (replica.follow_ == Follow::kDormant) {
                if (replica.dormant_step(step, base, active, *reference)) {
                    if (tally) ++tally->dormant_steps;
                    continue;
                }
                // Woken: the sample again from its start, this member alone.
                const std::span<const float> start = reference->run->theta(reference->sample);
                std::ranges::copy(start, replica.exc_theta_.begin());
                run_lockstep(replicas.subspan(k, 1), weights, spikes, replica.base_drive_,
                             activities.subspan(k, 1), nullptr, nullptr, tally);
                replica.follow_ = Follow::kWoke;
                if (tally) ++tally->wakes;
                continue;
            }
            if (!replica.schedule_.empty()) replica.advance_schedule(step);
            replica.adopt_drive(base, active);
            const std::size_t inh_before = activities[k].total_inh_spikes;
            const std::size_t exc_count = replica.advance_step(activities[k]);
            if (tally)
                ++(replica.fast_path_active() ? tally->fast_steps : tally->scalar_steps);
            if (learner != nullptr && exc_count > 0) {
                const PotentiationWalk walk = learner->potentiate(replica.exc_spiked_);
                if (tally) tally->potentiated(walk);
            }
            if (record != nullptr &&
                (exc_count > 0 || activities[k].total_inh_spikes != inh_before))
                replica.record_spikes(step, *record);
        }
    }
    if (own) own->flush();
    for (std::size_t k = 0; k < replicas.size(); ++k) {
        NetworkRuntime& replica = *replicas[k];
        if (replica.follow_ == Follow::kWoke) continue;
        if (replica.follow_ == Follow::kDormant) {
            // Every spike matched, so the whole layer ran the clean run's
            // sample: its faulted neurons' theta already equals the end
            // theta, and every other entry is copied over.
            activities[k] = reference->run->activity(reference->sample);
            const std::span<const float> end = reference->run->theta(reference->sample + 1);
            std::ranges::copy(end, replica.exc_theta_.begin());
        }
        replica.end_sample();
    }
}

bool NetworkRuntime::may_go_dormant(const ReferenceSample& reference) const {
    const std::size_t n = exc_theta_.size();
    const std::span<const float> start = reference.run->theta(reference.sample);
    // Bits, not float ==: -0.0f == 0.0f and NaN != NaN.
    return schedule_.empty() && exc_params_.driver_gain == 1.0f &&
           (faulted_exc_.size() + inh_.patch.size()) * 8 <= n &&
           std::memcmp(exc_theta_.data(), start.data(), n * sizeof(float)) == 0;
}

bool NetworkRuntime::dormant_step(std::size_t step, std::span<const float> base,
                                  std::span<const std::uint32_t> active,
                                  const ReferenceSample& reference) {
    const std::size_t n = exc_theta_.size();
    // A patched cell's post is a faulted neuron, so the adopted drive of
    // every faulted neuron is what a full step would read.
    adopt_drive(base, active);
    // Lateral inhibition from the previous step's inhibitory spikes, which
    // all matched the record's.
    const std::uint8_t* previous = reference.before(step);
    kernels::exc_update_subset(exc_params_, exc_.faults(), faulted_exc_, drive_,
                               previous + n, reference.inh_count[step], exc_.v.data(),
                               exc_.refrac.data(), exc_theta_.data(), exc_spiked_.data());
    // Each inhibitory neuron reads its partner's spike, the record's once
    // every faulted excitatory spike matched it.
    const std::uint8_t* current = reference.before(step + 1);
    kernels::inh_update_subset(inh_params_, inh_.faults(), inh_.patch, current,
                               inh_.v.data(), inh_.refrac.data(), inh_spiked_.data());
    for (const std::uint32_t i : faulted_exc_) {
        if (exc_spiked_[i] != current[i]) return false;
    }
    for (const std::uint32_t i : inh_.patch) {
        if (inh_spiked_[i] != current[n + i]) return false;
    }
    return true;
}

void NetworkRuntime::record_spikes(std::size_t step,
                                   std::vector<std::uint32_t>& events) const {
    const std::size_t n = exc_spiked_.size();
    const auto code = static_cast<std::uint32_t>(step * 2 * n);
    for (std::uint32_t i = 0; i < n; ++i) {
        if (exc_spiked_[i]) events.push_back(code + i);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        if (inh_spiked_[i]) events.push_back(code + static_cast<std::uint32_t>(n) + i);
    }
}

void NetworkRuntime::ReferenceSample::expand(const ReferenceRun& reference,
                                             std::size_t sample_index) {
    // Event code c of step s sits in row s + 1: byte c + 2n.
    for (const std::uint32_t event : events) {
        spiked[event + 2 * n] = 0;
        inh_count[event / (2 * n) + 1] = 0;
    }
    run = &reference;
    sample = sample_index;
    n = reference.model().n_neurons();
    const std::size_t rows = reference.model().config().steps_per_sample + 1;
    if (spiked.size() != rows * 2 * n) {
        spiked.assign(rows * 2 * n, 0);
        inh_count.assign(rows, 0);
    }
    const std::span<const std::uint32_t> sample_events = reference.events(sample);
    events.assign(sample_events.begin(), sample_events.end());
    for (const std::uint32_t event : events) {
        spiked[event + 2 * n] = 1;
        if (event % (2 * n) >= n) ++inh_count[event / (2 * n) + 1];
    }
}

BatchRunner::BatchRunner(const NetworkModel& model,
                         std::vector<NetworkRuntime*> runtimes)
    : model_(model), runtimes_(std::move(runtimes)),
      encoder_(model.config().encoder) {
    if (runtimes_.empty())
        throw std::invalid_argument("BatchRunner: empty runtime batch");
    for (const NetworkRuntime* runtime : runtimes_) {
        if (runtime == nullptr)
            throw std::invalid_argument("BatchRunner: null runtime");
        if (runtime->model_ptr().get() != &model_)
            throw std::invalid_argument("BatchRunner: runtimes must share the model");
        if (runtime->learned_.has_value())
            throw std::invalid_argument(
                "BatchRunner: learning runtimes cannot join a batch");
    }
    base_drive_.assign(kernels::padded_size(model_.n_neurons()), 0.0f);
}

std::vector<SampleActivity> BatchRunner::run_sample(std::span<const float> image,
                                                    util::Rng& rng) {
    std::vector<SampleActivity> activities(runtimes_.size());
    run_sample_into(image, rng, activities);
    return activities;
}

void BatchRunner::check_batch(std::span<SampleActivity> activities) const {
    if (activities.size() != runtimes_.size())
        throw std::invalid_argument("BatchRunner: activity batch size mismatch");
    // A member that enabled learning after joining drives from its own
    // materialised matrix, which the shared model-matrix step never reads.
    for (const NetworkRuntime* runtime : runtimes_) {
        if (runtime->learned_.has_value())
            throw std::invalid_argument(
                "BatchRunner: a member materialised its weights after joining");
    }
}

void BatchRunner::run_sample_into(std::span<const float> image, util::Rng& rng,
                                  std::span<SampleActivity> activities) {
    if (image.size() != model_.n_input())
        throw std::invalid_argument("BatchRunner: image size mismatch");
    check_batch(activities);
    encoder_.set_image(image);
    encoder_.encode(rng, model_.config().steps_per_sample, spikes_);
    NetworkRuntime::run_lockstep(runtimes_, model_.input_weights(), spikes_, base_drive_,
                                 activities);
}

void BatchRunner::run_sample_into(const ReferenceRun& reference, std::size_t sample,
                                  std::span<SampleActivity> activities) {
    if (&reference.model() != &model_)
        throw std::invalid_argument("BatchRunner: the reference run is over another model");
    check_batch(activities);
    reference.raster().decode(sample, spikes_);
    reference_.expand(reference, sample);
    NetworkRuntime::run_lockstep(runtimes_, model_.input_weights(), spikes_, base_drive_,
                                 activities, &reference_);
}

ReferenceRun::ReferenceRun(std::shared_ptr<const NetworkModel> model, SpikeRaster raster)
    : model_(std::move(model)), raster_(std::move(raster)) {
    const DiehlCookConfig& config = model_->config();
    if (raster_.image_size() != config.n_input ||
        raster_.steps_per_sample() != config.steps_per_sample)
        throw std::invalid_argument("ReferenceRun: raster shape mismatch");
    const std::size_t n = config.n_neurons;
    if (config.steps_per_sample * 2 * n > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument("ReferenceRun: event codes overflow 32 bits");
    NetworkRuntime runtime(model_);
    NetworkRuntime* const self = &runtime;
    activities_.resize(raster_.samples());
    thetas_.reserve((raster_.samples() + 1) * n);
    event_offsets_.reserve(raster_.samples() + 1);
    event_offsets_.push_back(0);
    for (std::size_t i = 0; i < raster_.samples(); ++i) {
        thetas_.insert(thetas_.end(), runtime.exc_theta_.begin(), runtime.exc_theta_.end());
        raster_.decode(i, runtime.spikes_);
        NetworkRuntime::run_lockstep({&self, 1}, runtime.drive_weights(), runtime.spikes_,
                                     runtime.base_drive_, {&activities_[i], 1}, nullptr,
                                     &events_);
        event_offsets_.push_back(events_.size());
    }
    thetas_.insert(thetas_.end(), runtime.exc_theta_.begin(), runtime.exc_theta_.end());
}

std::span<const float> ReferenceRun::theta(std::size_t sample) const {
    if (sample > samples()) throw std::out_of_range("ReferenceRun: sample out of range");
    const std::size_t n = model_->n_neurons();
    return {thetas_.data() + sample * n, n};
}

std::span<const std::uint32_t> ReferenceRun::events(std::size_t sample) const {
    if (sample >= samples()) throw std::out_of_range("ReferenceRun: sample out of range");
    return {events_.data() + event_offsets_[sample],
            event_offsets_[sample + 1] - event_offsets_[sample]};
}

}  // namespace snnfi::snn
