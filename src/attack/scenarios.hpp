// The paper's attack scenarios (§IV) all reduce to one operation: train
// the Diehl&Cook network from the shared seed model under a fault and
// report the online accuracy (the paper's metric) next to the attack-free
// baseline.
//
//   Attack 1 (white box): corrupt the input current drivers -> scale the
//             per-spike membrane voltage change ("theta") by -20%..+20%.
//   Attack 2 (white box): threshold fault on 0-100% of the excitatory layer.
//   Attack 3 (white box): threshold fault on 0-100% of the inhibitory layer.
//   Attack 4 (white box): threshold fault on 100% of both layers.
//   Attack 5 (black box): shared VDD corrupts driver amplitude *and* both
//             layers' thresholds simultaneously, via the calibration bridge.
//
// The sweeps themselves are data (core::ScenarioSpec axes); this suite runs
// their points. train_many() is the one train-under-fault primitive, over
// snn::FaultOverlay descriptions; run_many() adapts the paper's FaultSpec
// vocabulary onto it. Points run in parallel (they are independent
// trainings) with index-addressed results. Every training starts from the
// same seed model over the same images, so all of them draw the same
// Poisson stream: the suite encodes it once (snn::SpikeRaster) and the
// baseline and every train_many training replay it.
//
// The fault-free baseline trains once per suite, under a session.train
// span: lazily on the calling thread when a caller reads it, or, when
// train_many finds it untrained, as task 0 of the sweep's own
// parallel_for. ThreadPool runs task 0 on the calling thread, so no other
// read on that thread can train the baseline meanwhile, and its frozen
// model is allocated in that thread's malloc arena; degradations are
// filled in after the join.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "attack/fault_model.hpp"
#include "obs/span.hpp"
#include "snn/encoding.hpp"
#include "snn/model.hpp"
#include "snn/overlay.hpp"
#include "snn/trainer.hpp"
#include "util/thread_pool.hpp"

namespace snnfi::attack {

struct AttackRunConfig {
    snn::DiehlCookConfig network;
    std::size_t train_samples = 1000;
    std::uint64_t data_seed = 42;
    std::uint64_t network_seed = 7;
    std::size_t eval_window = 250;
    /// Parallel workers for sweeps; 0 = hardware concurrency.
    std::size_t max_workers = 0;
};

struct AttackOutcome {
    double accuracy = 0.0;         ///< online accuracy under the fault
    double retro_accuracy = 0.0;
    double degradation_pct = 0.0;  ///< relative to baseline (paper convention)
    double exc_spikes_per_sample = 0.0;
};

/// One training pass from the shared seed model under a fault. A static
/// fault fills `overlay`, installed for the whole pass. A training-time
/// glitch fills `schedule`: a per-sample step-axis fault schedule that STDP
/// learns under for a window of the pass — the paper's high-leverage
/// threat model, a transient supply dip that corrupts crucial training
/// parameters and persists after the rail recovers.
struct TrainingFault {
    snn::FaultOverlay overlay;
    snn::OverlaySchedule schedule;
    /// The glitched slice of the training pass, as fractions of the sample
    /// stream: `schedule` is installed for samples in [sample_begin,
    /// sample_end) and retracted outside. [0, 1) with a full-range constant
    /// schedule is exactly the static path, bit for bit.
    double sample_begin = 0.0;
    double sample_end = 1.0;
};

class AttackSuite {
public:
    /// Builds the suite over a fixed dataset, shared rather than copied
    /// unless config.train_samples truncates it. The baseline (fault-free)
    /// accuracy is computed lazily on first use and cached. Throws
    /// std::invalid_argument on a null or empty dataset.
    AttackSuite(std::shared_ptr<const snn::Dataset> dataset, AttackRunConfig config);
    AttackSuite(snn::Dataset dataset, AttackRunConfig config);

    const AttackRunConfig& config() const noexcept { return config_; }
    const snn::Dataset& dataset() const noexcept { return *dataset_; }

    /// Fault-free reference accuracy (cached; trains on first use).
    double baseline_accuracy();
    double baseline_retro_accuracy();
    /// Full training metrics of the fault-free baseline (trains on first
    /// use like baseline_accuracy()) — what the artifact store persists.
    const snn::TrainResult& baseline_result();
    /// Installs an externally trained baseline (e.g. a store::ArtifactStore
    /// hit) so baseline_accuracy()/baseline_model() never train. Throws
    /// std::invalid_argument on a null model; must be called before the
    /// lazy baseline training has happened.
    void adopt_baseline(std::shared_ptr<const snn::NetworkModel> model,
                        snn::TrainResult result);
    /// The trained fault-free baseline as a frozen, shareable model.
    /// Trains on first use like baseline_accuracy(). The src/fi campaign
    /// engine builds one cheap NetworkRuntime per (cell, replica) on top
    /// of this shared model instead of snapshot/restoring a network.
    std::shared_ptr<const snn::NetworkModel> baseline_model();

    /// Trains one replica from the shared seed model per fault, in
    /// parallel, and an untrained baseline beside them. Results are
    /// index-addressed, so the output is identical for any worker count.
    /// Throws std::invalid_argument on a sample window outside [0, 1] or
    /// an empty one.
    std::vector<AttackOutcome> train_many(const std::vector<TrainingFault>& faults);
    /// The paper's vocabulary: each FaultSpec becomes its overlay_for()
    /// overlay. kTrainingAndInference trains under it (train_many, the
    /// paper's setting); kInferenceOnly injects it into the clean-trained
    /// baseline with frozen weights and assignments (ablation).
    std::vector<AttackOutcome> run_many(
        const std::vector<FaultSpec>& faults,
        AttackPhase phase = AttackPhase::kTrainingAndInference);

    /// Shares an external worker pool (e.g. a core::Session's) instead of
    /// this suite building its own per call. The pool must outlive the
    /// suite; pass nullptr to detach.
    void set_thread_pool(util::ThreadPool* pool) noexcept { pool_ = pool; }

private:
    /// Runs `point` for every index of `modes` on the pool, each under an
    /// attack.point span tagged with its mode, and fills in the degradation
    /// against the baseline after the join. An untrained baseline trains as
    /// task 0 beside the points, so seed_model() and raster() must be built
    /// before the call; a `point` that reads the baseline must find it
    /// trained.
    std::vector<AttackOutcome> for_each_point(
        const std::vector<const char*>& modes,
        const std::function<AttackOutcome(std::size_t)>& point);
    /// Trains the fault-free baseline from seed_model() over raster(), under
    /// a session.train span parented to `parent`.
    void train_baseline(obs::Context parent);
    AttackOutcome evaluate_inference_only(const snn::FaultOverlay& overlay);
    /// The shared untrained model every sweep point trains from (same
    /// random init + RNG stream as the legacy per-point construction).
    const std::shared_ptr<const snn::NetworkModel>& seed_model();
    /// The Poisson stream every training from seed_model() draws over the
    /// dataset, encoded on first use under an attack.raster span, in
    /// chunks on the suite's pool. Like seed_model(), it is built before
    /// any sweep's dispatch, and the sweep's tasks only read it.
    const snn::SpikeRaster& raster();

    std::shared_ptr<const snn::Dataset> dataset_;
    AttackRunConfig config_;
    std::shared_ptr<const snn::NetworkModel> seed_model_;
    std::optional<snn::SpikeRaster> raster_;
    std::optional<snn::TrainResult> baseline_;
    std::shared_ptr<const snn::NetworkModel> baseline_model_;
    util::ThreadPool* pool_ = nullptr;  ///< not owned; optional shared pool
};

}  // namespace snnfi::attack
