// NetworkRuntime: the lightweight, per-replica half of the Model/Runtime
// split (see snn/model.hpp).
//
// A runtime borrows a frozen NetworkModel by shared_ptr and owns only the
// dynamic state of one replica — voltages, refractory counters, adaptive
// thresholds, spike buffers — laid out as struct-of-arrays so the fused
// LIF/DiehlCook step is a single pass over contiguous spans. Faults come
// in through a FaultOverlay: neuron faults expand into the SoA arrays, and
// weight patches into one sorted list of patched cells, each with its
// effective value and its delta against the model. The replica shares the
// model's weight matrix: a step accumulates the model rows and adds the
// deltas of the spiking rows. Construction is therefore cheap (no weight
// copy, no RNG re-init), which is what lets a fault-injection campaign
// run one runtime per (cell, replica) with no snapshot/restore and no
// locking.
//
// There is one step loop. A standalone runtime runs it as a lockstep
// batch of one over its own matrix, and BatchRunner runs its members
// through it over the model's, so a replica's activity is the same bit
// for bit whether it runs alone or in a batch.
//
// With learning enabled the runtime materialises the full weight matrix,
// patched cells included, into a DenseConnection (STDP + normalisation,
// snn/connection.hpp), drives itself from that matrix — depressing the
// active rows in the same pass — and freeze() packages the learned
// parameters into a new immutable NetworkModel. Weight faults are
// inference-time faults (stuck-at and bit-flip cells in the trained
// network), so once the matrix is materialised the weight patches are
// fixed: a change to them is rejected, never applied under STDP. Training
// over NetworkModel::random() is regression-pinned to the historical
// mutable-network numbers.
//
// A FaultOverlay describes faults that hold for a whole run; an
// OverlaySchedule adds the time axis: segments merged onto the base
// overlay at step boundaries (the glitch pipeline's execution layer).
// Both setters check every op's range before they change anything.
//
// BatchRunner advances several inference runtimes in lockstep over ONE
// shared input stream, drawn live or replayed from a SpikeRaster: the
// dense input propagation over the shared weights is computed once per
// timestep and reused by every replica in the batch — the campaign
// engine's batched-inference fast path.
//
// A ReferenceRun owns a raster and the clean run over it, recorded: per
// sample the activity, the adaptive thresholds at its start and the spike
// events. Replaying the raster against it, a member whose faults touch few
// neurons
// goes dormant for a sample that starts from the record's thresholds: it
// steps only its faulted neurons on the record's inputs, because every
// other neuron is the clean run's by construction, and on the first spike
// that differs it re-runs the sample in full (DESIGN.md §6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "snn/connection.hpp"
#include "snn/encoding.hpp"
#include "snn/kernels.hpp"
#include "snn/model.hpp"
#include "snn/overlay.hpp"
#include "snn/tensor.hpp"

namespace snnfi::snn {

class ReferenceRun;

class NetworkRuntime {
public:
    /// Builds a replica over `model` with `overlay` applied. The encoder
    /// RNG starts from the model's init_rng() stream (bit-compatible with
    /// the facade); reseed via rng() for independent replica streams.
    explicit NetworkRuntime(std::shared_ptr<const NetworkModel> model,
                            FaultOverlay overlay = {});

    const DiehlCookConfig& config() const noexcept { return model_->config(); }
    const NetworkModel& model() const noexcept { return *model_; }
    std::shared_ptr<const NetworkModel> model_ptr() const noexcept { return model_; }

    /// Replaces the replica's fault state with `overlay` (previous neuron
    /// faults and weight patches are cleared). Throws std::out_of_range on
    /// an op outside the network, and, once learning has materialised the
    /// weights, std::invalid_argument on an overlay whose weight ops
    /// differ from the current overlay's; either way nothing changes.
    void set_overlay(const FaultOverlay& overlay);
    const FaultOverlay& overlay() const noexcept { return overlay_; }

    /// Installs a piecewise fault schedule (the time axis of transient
    /// glitch attacks). While a segment is active the replica's fault
    /// state is the base overlay with the segment's overlay merged on
    /// top; outside every segment it is the base overlay alone. Swaps
    /// happen at step boundaries: fault state is re-expanded, dynamic
    /// state (voltages, refractory counters, theta) is untouched. A
    /// schedule spanning [0, steps_per_sample) with one segment is
    /// bit-identical to a static overlay, under learning too, which is
    /// what lets Trainer run STDP under a mid-epoch glitch. Validates
    /// ordering/overlap and every segment op's range (std::out_of_range)
    /// before it changes anything; once learning has materialised the
    /// weights, a segment carrying weight ops throws std::invalid_argument.
    void set_schedule(OverlaySchedule schedule);
    const OverlaySchedule& schedule() const noexcept { return schedule_; }

    // --- fault-state inspection (current step's effective values) -------
    float threshold_scale(OverlayLayer layer, std::size_t neuron) const;
    /// Per-neuron feedforward drive gain (glitch-footprint driver ops);
    /// multiplies with the network-wide driver_gain().
    float neuron_driver_gain(OverlayLayer layer, std::size_t neuron) const;
    NeuronFault forced_state(OverlayLayer layer, std::size_t neuron) const;
    /// Refractory steps a spike would incur now (override or config).
    int refractory_steps(OverlayLayer layer, std::size_t neuron) const;
    /// Spike threshold in BindsNET millivolts, faults and (for the
    /// excitatory layer) the adaptive theta included.
    float effective_threshold(OverlayLayer layer, std::size_t neuron) const;

    /// Learning materialises the model's weight matrix, with the patched
    /// cells' values written in, into an STDP connection on first enable;
    /// disabling stops STDP and normalisation but keeps driving from the
    /// materialised weights. Enabling throws std::invalid_argument while a
    /// schedule segment carries weight ops.
    void set_learning(bool enabled);
    bool learning_enabled() const noexcept { return learning_; }

    /// Runs one sample: dynamic state and traces reset first, schedule
    /// cursor rewound, weights normalised afterwards when learning.
    SampleActivity run_sample(std::span<const float> image);

    /// Allocation-free variant: accumulates into a caller-owned activity
    /// record. exc_counts is zeroed in place when already correctly
    /// sized, so a reused record makes the per-sample loop steady-state
    /// allocation-free (the campaign hot path). The sample's input spikes
    /// are drawn from the runtime's encoder stream, rng().
    void run_sample_into(std::span<const float> image, SampleActivity& activity);

    /// Runs sample `sample` of `raster` instead of encoding an image: the
    /// same step loop over spikes decoded from the raster. rng() is not
    /// touched; a caller replaying a whole pass sets it to the raster's
    /// end state afterwards (Trainer does). Throws std::invalid_argument
    /// when the raster's image size or steps per sample differ from the
    /// network's.
    void run_sample_into(const SpikeRaster& raster, std::size_t sample,
                         SampleActivity& activity);

    /// True when both layers' patch lists are empty: the effective
    /// overlay leaves every neuron at the identity fault state, so a step
    /// is the identity loop alone (snn/kernels.hpp). The lists are
    /// rebuilt once per overlay/schedule-segment swap, never per step.
    bool fast_path_active() const noexcept {
        return exc_.patch.empty() && inh_.patch.empty();
    }

    /// Freezes the replica's current learned parameters (weights incl.
    /// patches, theta) into a new immutable model.
    std::shared_ptr<const NetworkModel> freeze() const;

    util::Rng& rng() noexcept { return rng_; }
    float driver_gain() const noexcept { return exc_params_.driver_gain; }
    std::span<const float> exc_theta() const noexcept { return exc_theta_; }
    /// Effective weight row, patched cells included (a copy). Throws
    /// std::out_of_range when `pre` is not an input index.
    std::vector<float> weight_row(std::size_t pre) const;

private:
    friend class BatchRunner;
    friend class ReferenceRun;
    friend struct RuntimeTestPeer;  ///< white-box kernel-equivalence tests

    /// Per-layer dynamic + fault state, struct-of-arrays.
    struct LayerState {
        std::vector<float> v;
        std::vector<std::int32_t> refrac;
        std::vector<float> thresh_scale;
        std::vector<float> drive_gain;  ///< per-neuron feedforward drive gain
        std::vector<std::uint8_t> forced;
        std::vector<std::int32_t> refrac_period;
        /// Ascending indices of the neurons whose fault state is not the
        /// identity — what the kernels redo or why they take the
        /// fault-aware loop.
        std::vector<std::uint32_t> patch;

        void init(std::size_t n, const LifParams& params);
        void reset_dynamic(const LifParams& params);
        void reset_faults(const LifParams& params);
        void rebuild_patch(const LifParams& params);
        kernels::LayerFaults faults() const;
    };

    /// One patched weight cell: its effective value (the overlay's ops on
    /// it applied in order over the model's value) and that value minus
    /// the model's.
    struct CellDelta {
        std::uint32_t pre = 0;
        std::uint32_t post = 0;
        float value = 0.0f;
        float delta = 0.0f;
    };

    /// One ReferenceRun sample as the step loop's dormant members read
    /// it: the run and sample, and the sample's spike events expanded into
    /// per-step spike rows. BatchRunner refills one per sample; expand()
    /// first clears what its previous call set, from its own copy of the
    /// events, so the rows are cleared sparsely and never allocate at
    /// steady state.
    struct ReferenceSample {
        const ReferenceRun* run = nullptr;
        std::size_t sample = 0;
        std::size_t n = 0;
        std::vector<std::uint32_t> events;  ///< the expanded sample's events
        /// (steps + 1) rows of 2n bytes: row 0 is all zeros, row s + 1
        /// holds step s's excitatory then inhibitory spikes.
        std::vector<std::uint8_t> spiked;
        std::vector<std::uint32_t> inh_count;  ///< inhibitory spikes per row

        void expand(const ReferenceRun& reference, std::size_t sample_index);
        /// The spikes of the step before `step` (none before step 0);
        /// before(step + 1) is step `step`'s own.
        const std::uint8_t* before(std::size_t step) const {
            return spiked.data() + step * 2 * n;
        }
    };
    /// One sample's telemetry (runtime.cpp).
    struct SampleTally;
    /// How a member takes the current sample: every neuron, only its
    /// faulted ones against a reference, or not at all because it woke and
    /// re-ran the sample alone.
    enum class Follow : std::uint8_t { kFull, kDormant, kWoke };

    /// Throws std::out_of_range unless every op of `overlay` addresses a
    /// neuron and cell of this network. The setters run it on everything
    /// they install, so the expansion below never meets a bad op.
    void check_ranges(const FaultOverlay& overlay) const;
    /// Re-expands the given overlay into the SoA fault state and the cell
    /// deltas (dynamic state untouched). set_overlay and the schedule
    /// swaps share this path, so a one-segment full-range schedule is
    /// bit-identical to the static overlay it wraps.
    void apply_effective_overlay(const FaultOverlay& effective);
    void apply_neuron_ops(const FaultOverlay& effective);
    void rebuild_cell_deltas(const FaultOverlay& effective);
    /// Writes the patched cells' values into `weights`.
    void write_cells(Matrix& weights) const;
    /// Activates/retracts schedule segments whose boundary is `step`.
    void advance_schedule(std::size_t step);
    /// Rewinds the schedule cursor (and restores the base overlay if the
    /// previous sample ended inside a segment).
    void reset_schedule();
    const LayerState& layer_state(OverlayLayer layer) const {
        return layer == OverlayLayer::kExcitatory ? exc_ : inh_;
    }
    /// The weights this replica's drive comes from: the materialised STDP
    /// matrix once learning has been enabled, else the model's.
    const Matrix& drive_weights() const {
        return learned_ ? learned_->weights() : model_->input_weights();
    }
    /// The one step loop, standalone runtimes (a batch of one) and
    /// BatchRunner members alike, over `spikes`: per step the active rows
    /// of `weights` are accumulated once into the padded `base`, then each
    /// replica advances its schedule, adopts the base drive and updates
    /// its layers; after the last step each replica runs end_sample.
    /// activities[k] belongs to replicas[k]. A learning runtime, always a
    /// batch of one, depresses the active rows in the accumulation pass
    /// and potentiates after its update on a step with an excitatory
    /// spike.
    ///
    /// With a `reference`, a member that may_go_dormant() steps only its
    /// faulted neurons (dormant_step). On a dormant spike that differs
    /// from the record the member wakes: its theta goes back to the
    /// sample's start and the loop re-runs the sample for it alone, into
    /// its own base buffer, tallying into the batch's `rerun` tally, which
    /// already holds the batch's active-fraction observations. At the end
    /// a member still dormant takes the record's activity and
    /// end-of-sample theta. With a `record` (a clean batch of one) every
    /// step with a spike appends its events (record_spikes).
    static void run_lockstep(std::span<NetworkRuntime* const> replicas,
                             const Matrix& weights, const SampleSpikes& spikes,
                             std::span<float> base, std::span<SampleActivity> activities,
                             const ReferenceSample* reference = nullptr,
                             std::vector<std::uint32_t>* record = nullptr,
                             SampleTally* rerun = nullptr);
    void begin_sample();
    void end_sample();
    /// True when this member's run of `reference`'s sample equals the clean
    /// run's outside its faulted neurons: no schedule, network driver gain
    /// exactly 1, at most n/8 faulted neurons (the bound of the kernels'
    /// redo shape), and a theta bit-equal to the record's at the sample's
    /// start.
    bool may_go_dormant(const ReferenceSample& reference) const;
    /// Steps the faulted neurons only, on the reference's inputs: the
    /// adopted drive and the record's previous-step inhibitory spikes.
    /// Returns false when a spike differs from the record's.
    bool dormant_step(std::size_t step, std::span<const float> base,
                      std::span<const std::uint32_t> active,
                      const ReferenceSample& reference);
    /// Appends the step's spikes as ReferenceRun event codes.
    void record_spikes(std::size_t step, std::vector<std::uint32_t>& events) const;
    /// Adopts the step's base drive. A replica without cell deltas, or
    /// whose base already comes from its materialised matrix (the cells
    /// written in), aliases the buffer read-only (zero copies); a patched
    /// inference replica copies it into exc_input_ and adds the deltas of
    /// its active rows.
    void adopt_drive(std::span<const float> base,
                     std::span<const std::uint32_t> active);
    /// The fused step: excitatory DiehlCook update (driver gain + lateral
    /// inhibition included) + inhibitory LIF update, one kernel call per
    /// layer over contiguous spans. Reads drive_; returns the excitatory
    /// spike count.
    std::size_t advance_step(SampleActivity& activity);

    std::shared_ptr<const NetworkModel> model_;
    FaultOverlay overlay_;
    OverlaySchedule schedule_;
    std::size_t schedule_pos_ = 0;    ///< next/active segment index
    bool segment_active_ = false;     ///< schedule_[schedule_pos_] applied
    PoissonEncoder encoder_;
    util::Rng rng_;

    LayerState exc_;
    LayerState inh_;
    std::vector<float> exc_theta_;
    kernels::ExcParams exc_params_;  ///< driver_gain follows the overlay
    kernels::InhParams inh_params_;
    bool learning_ = false;
    /// Kernel scratch: the patched neurons' pre-step state, sized to the
    /// longer patch list.
    std::vector<kernels::NeuronState> patch_save_;

    /// Learning path: materialised weights + STDP state.
    std::optional<DenseConnection> learned_;
    /// Sorted by (pre, post) — adopt_drive merge-joins this against the
    /// ascending active list.
    std::vector<CellDelta> cell_deltas_;
    /// Ascending excitatory neurons a dormant step runs: the patch list
    /// and the post end of every patched cell (the inhibitory ones are
    /// inh_.patch).
    std::vector<std::uint32_t> faulted_exc_;
    Follow follow_ = Follow::kFull;

    // Scratch reused across samples and steps. spikes_ holds the current
    // sample's input spikes and base_drive_ the step's base drive when the
    // runtime runs standalone. exc_input_ is padded to the kernel stride;
    // drive_ points at it after a patched adopt_drive, else at the base.
    SampleSpikes spikes_;
    AlignedVector base_drive_;
    AlignedVector exc_input_;
    const float* drive_ = nullptr;
    std::vector<std::uint8_t> exc_spiked_;
    std::vector<std::uint8_t> inh_spiked_;
};

/// Lockstep batch evaluation of several inference replicas of ONE model
/// over one shared input stream, through the runtime's one step loop over
/// the model's weight matrix: per timestep the dense propagation is
/// computed once and broadcast, and each replica then applies its own
/// overlay state. Amortising the encoder and the propagation across the
/// batch is the fi campaign's >= 2x speedup over the legacy
/// snapshot/restore engine. A member's activity depends only on its own
/// runtime and the input spikes, never on its batch-mates, and equals its
/// standalone run_sample's bit for bit.
class BatchRunner {
public:
    /// All runtimes must share `model`, be inference-mode (learning never
    /// enabled, before or after joining), and stay alive for the runner's
    /// lifetime.
    BatchRunner(const NetworkModel& model, std::vector<NetworkRuntime*> runtimes);

    std::size_t size() const noexcept { return runtimes_.size(); }

    /// Runs one sample on every replica using `rng` as the shared encoder
    /// stream; returns one activity per replica, in runtime order. Each
    /// matches NetworkRuntime::run_sample over the same stream bit for
    /// bit.
    std::vector<SampleActivity> run_sample(std::span<const float> image,
                                           util::Rng& rng);

    /// Allocation-free variant: one caller-owned activity per replica
    /// (activities.size() must equal size()). Records already sized to
    /// n_neurons are zeroed in place — reuse them across samples and the
    /// batch loop performs no heap allocation at steady state. Both
    /// overloads throw std::invalid_argument, before any member changes,
    /// on a batch size mismatch or a member that has materialised its
    /// weights (set_learning after joining).
    void run_sample_into(std::span<const float> image, util::Rng& rng,
                         std::span<SampleActivity> activities);

    /// Runs sample `sample` of `reference`'s raster instead of encoding an
    /// image, following the clean run recorded over it: the same step loop
    /// over spikes decoded from the raster, in which a member whose faults
    /// touch few neurons and whose theta equals the record's at the
    /// sample's start steps only its faulted neurons. Samples may come in
    /// any order. Replaying a raster encoded from the live overload's
    /// start stream gives its activities, and every member's theta, bit
    /// for bit. Throws std::invalid_argument, before any member changes,
    /// when `reference` was recorded over another model.
    void run_sample_into(const ReferenceRun& reference, std::size_t sample,
                         std::span<SampleActivity> activities);

private:
    void check_batch(std::span<SampleActivity> activities) const;

    const NetworkModel& model_;
    std::vector<NetworkRuntime*> runtimes_;
    PoissonEncoder encoder_;
    SampleSpikes spikes_;
    /// Padded shared drive buffer over the model matrix.
    AlignedVector base_drive_;
    NetworkRuntime::ReferenceSample reference_;
};

/// A SpikeRaster and the clean run over every sample of it, in order,
/// recorded for BatchRunner's dormant members: per sample its activity,
/// the adaptive thresholds at its start (and after the last sample), and
/// the spike events of the steps that had any, each packed as step x 2n +
/// layer x n + neuron (layer 0 excitatory, 1 inhibitory). Immutable after
/// construction, so concurrent batches share one. At full size a sample
/// holds ~120 events.
class ReferenceRun {
public:
    /// Takes `raster` and runs a fault-free runtime over `model` through
    /// its samples in order: sample i's activity is what that runtime's
    /// run_sample_into(raster, i, ...) gives, bit for bit. Throws
    /// std::invalid_argument when the raster's image size or steps per
    /// sample differ from the network's.
    ReferenceRun(std::shared_ptr<const NetworkModel> model, SpikeRaster raster);

    const NetworkModel& model() const noexcept { return *model_; }
    /// The raster the run was recorded over.
    const SpikeRaster& raster() const noexcept { return raster_; }
    std::size_t samples() const noexcept { return activities_.size(); }
    const SampleActivity& activity(std::size_t sample) const {
        return activities_.at(sample);
    }
    /// exc_theta() as sample `sample` starts; theta(samples()) is the
    /// theta after the last sample.
    std::span<const float> theta(std::size_t sample) const;
    /// Sample `sample`'s spike events, ascending.
    std::span<const std::uint32_t> events(std::size_t sample) const;

private:
    std::shared_ptr<const NetworkModel> model_;
    SpikeRaster raster_;
    std::vector<SampleActivity> activities_;
    std::vector<float> thetas_;               ///< (samples + 1) x n
    std::vector<std::uint32_t> events_;
    std::vector<std::size_t> event_offsets_;  ///< samples + 1
};

}  // namespace snnfi::snn
