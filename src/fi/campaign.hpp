// Campaign engine: plans site x model x severity grids and executes them
// over the shared core::Session infrastructure.
//
// The plan lists the cells in a stable order, each with one
// attack::TrainingFault: the overlay, schedule and training window the
// cell runs under, built up front for fault-model and glitch cells alike.
// A trained cell trains under its fault; any other cell runs the fault's
// overlay and schedule at inference over the trained baseline.
//
// Execution strategy (Model/Runtime split, see snn/model.hpp):
//   * the attack-free baseline is trained once (Session artifact cache —
//     the cache counters prove it) and frozen into an immutable
//     snn::NetworkModel shared by every injection;
//   * inference-time models (stuck-at, bit-flip, dead/saturated neuron,
//     refractory stretch) each get ONE pre-faulted snn::NetworkRuntime per
//     (cell, replica) — a FaultOverlay over the shared model, no baseline
//     snapshot/restore, no weight copy — and runtimes are advanced in
//     lockstep batches (snn::BatchRunner) so the dense input propagation
//     is computed once per batch, not per cell;
//   * drift models (trains_under_fault()) train under their overlay
//     through AttackSuite::train_many, the same primitive the paper's
//     attack scenarios use, so those attacks fall out as special cases
//     with identical numbers;
//   * glitch cells (GlitchCellSpec) carry a time-resolved GlitchProfile:
//     constant profiles collapse onto the train-under-fault path (bit-for-
//     bit the static attacks), time-localised profiles compile into
//     snn::OverlaySchedules and ride the same lockstep inference batches
//     with per-segment overlay swaps;
//   * every injection is replicated over independent Poisson-encoding
//     streams, paired with a clean run of the same stream. Each replica's
//     stream is encoded once over the eval subset (snn::SpikeRaster); its
//     clean pass is recorded (snn::ReferenceRun) and every batch replays
//     the raster following it, so a member whose fault has not changed a
//     spike yet steps only its faulted neurons. Inference cells run through
//     one cell-replica work queue with no round barrier: a finished batch
//     judges each of its cells alone and queues the still-open ones for
//     their next replica at once, while the calling thread builds the
//     rasters and clean passes ahead (at most three rasters live). From
//     min_replicas on, a cell stops early once the 95% CI of its accuracy
//     drop is tight (statistical early stopping), bounded by max_replicas.
//
// A cell's outcome depends only on (cell, replica): replica seeds are
// index-derived, and a batch member never reads its batch-mates. So batch
// cuts may follow the worker count and the queue's timing while campaign
// output stays byte-identical for any worker count and any cell subset.
// Results cache in the Session keyed by the campaign config, so several
// scenarios can present one campaign (detail table, sensitivity map)
// without re-executing it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attack/glitch.hpp"
#include "fi/fault.hpp"
#include "fi/sites.hpp"
#include "util/table.hpp"

namespace snnfi::core {
class Session;
}

namespace snnfi::fi {

/// Statistical early stopping of a cell's replicas. max_replicas ==
/// min_replicas is a fixed replica count: every cell runs exactly that many
/// and none stops early. Quick mode always runs that form, with
/// max_replicas lowered to min_replicas.
struct EarlyStopPolicy {
    std::size_t min_replicas = 3;   ///< always run at least this many
    std::size_t max_replicas = 10;  ///< hard cap per cell
    /// Stop once the 95% CI halfwidth of the accuracy drop (percentage
    /// points) falls below this.
    double ci_halfwidth_pct = 1.5;
};

/// One planned transient-glitch cell: a resolved time-resolved profile
/// (typically from circuit characterisation through the Session cache)
/// plus its stable display/cache id. Uniform constant profiles route
/// through the static train-under-fault path — the degenerate case that
/// reproduces the paper's attacks bit-for-bit; time-localised profiles
/// compile into scheduled overlays applied at inference over the trained
/// baseline (the externally-triggered threat model); train-mode cells run
/// STDP under the compiled schedule for a window of the training pass
/// (the paper's training-corruption threat model — the damage persists
/// after the rail recovers).
struct GlitchCellSpec {
    std::string id;                 ///< e.g. "rect:d0.8:o0.25:w0.25"
    attack::GlitchProfile profile;
    double severity = 0.0;          ///< depth VDD (or 0 for custom profiles)
    /// Spatial coupling: which neurons the dip reaches. The uniform
    /// default reproduces the paper's whole-layer attacks.
    attack::GlitchFootprint footprint;
    /// Train-mode: apply the compiled schedule while STDP is learning.
    bool train = false;
    /// The glitched slice of the training pass (fractions of the sample
    /// stream). [0, 1) with a constant profile is bit-for-bit the static
    /// train-under-fault path (fig7b-pinned).
    double train_begin = 0.0;
    double train_end = 1.0;
};

struct CampaignConfig {
    /// Fault models to sweep; empty = the standard library. Cleared (set
    /// to {}) when only glitch cells should run — see glitches.
    std::vector<std::shared_ptr<const FaultModel>> models;
    SitePlan sites;
    /// Transient VDD glitch cells (shape x depth x width x onset axes,
    /// resolved to profiles by the caller).
    std::vector<GlitchCellSpec> glitches;
    /// Inference-evaluation subset size (clamped to the session dataset).
    std::size_t eval_samples = 120;
    EarlyStopPolicy early_stop;
    /// Independent training replicas per train-under-fault cell (drift
    /// models and train-mode glitch cells). Replica 0 trains under the
    /// session's default data/network seeds — bit-identical to the classic
    /// single-training campaign — and replicas >= 1 retrain under derived
    /// seed streams, so train-mode drops carry a 95% CI like the
    /// inference-path cells. 1 = single training (the default).
    std::size_t train_replicas = 1;

    /// Stable identity of this campaign for the Session artifact cache.
    std::string cache_key() const;
};

/// One executed (model, site, severity) grid cell.
struct CellResult {
    std::size_t plan_index = 0;  ///< position in the campaign's planning order
    std::string model;
    FaultSite site;
    std::string label;     ///< display id override (glitch cells); else site.id()
    /// Spatial-coupling bucket: the GlitchFootprint fingerprint for glitch
    /// cells ("whole", "sub:...", "strat:0.25@7"); fault-library cells are
    /// always whole-site.
    std::string footprint = "whole";
    double severity = 0.0;
    std::size_t replicas = 0;
    double accuracy_pct = 0.0;      ///< mean over replicas
    double drop_pct = 0.0;          ///< clean-paired accuracy drop, mean
    double ci_halfwidth_pct = 0.0;  ///< 95% CI halfwidth of the drop
    bool critical = false;  ///< drop_pct above 5 percentage points
    bool early_stopped = false;  ///< CI criterion fired before max_replicas
    bool trained = false;        ///< train-under-fault path (drift models)
    bool scheduled = false;      ///< time-localised scheduled-overlay path

    std::string site_id() const { return label.empty() ? site.id() : label; }
};

struct CampaignResult {
    double baseline_accuracy_pct = 0.0;  ///< trained baseline (online metric)
    std::size_t evaluations = 0;  ///< inference passes (clean + faulty)
    std::size_t trainings = 0;    ///< train-under-fault runs (excl. baseline)
    std::vector<CellResult> cells;

    /// Per-cell table: one row per (model, site, severity).
    util::ResultTable detail_table(const std::string& title) const;
    /// Sensitivity map: mean/max drop and critical-fault rate aggregated
    /// per (model, layer, footprint) — fractional glitch footprints get
    /// their own strata instead of disappearing into the layer average.
    util::ResultTable sensitivity_map(const std::string& title) const;
    /// Full structured form: baseline, counters, cells, sensitivity map.
    std::string to_json() const;

    /// Recomputes evaluations/trainings from the per-cell replica counts
    /// (trainings = training replicas of trained cells; evaluations =
    /// faulty passes + the shared clean passes). Equals the counters a
    /// full single-process run accumulates, so shard merges reconstruct
    /// them exactly.
    void recount();
};

class CampaignEngine {
public:
    /// Most cells advanced in one lockstep batch (shared input stream +
    /// dense propagation). A batch takes at most an even share of the
    /// ready cells among the idle workers, so a thin tail still spreads;
    /// results do not change, because a cell's outcome never depends on
    /// its batch-mates. Shared with the benchmarks (bench_runtime_replicas,
    /// snnbench) so they measure the batch size that actually ships.
    static constexpr std::size_t kBatchCells = 8;
    /// Root of the replica seed streams: replica r encodes its eval stream
    /// from derive_seed(kSeed, kReplicaStream + r).
    static constexpr std::uint64_t kSeed = 0xCA30;
    /// Stream id offset separating replica rng seeds from everything else
    /// derived from kSeed.
    static constexpr std::uint64_t kReplicaStream = 0x5EED0000;

    /// The session provides the thread pool, the cached trained baseline
    /// and the result cache; it must outlive the engine.
    CampaignEngine(core::Session& session, CampaignConfig config);

    const CampaignConfig& config() const noexcept { return config_; }

    /// Stream id offset separating train-replica seed derivations
    /// (CampaignConfig::train_replicas) from the inference replica streams.
    static constexpr std::uint64_t kTrainReplicaStream = 0x7EA10000;

    /// Runs the campaign, or returns the session-cached result of an
    /// identical earlier run.
    std::shared_ptr<const CampaignResult> run();

    /// Number of planned grid cells. The planning order is a pure function
    /// of (config, session workload), so every process planning the same
    /// campaign sees the same cell indices — the contract sharded
    /// campaigns (fi/shard.hpp) are built on.
    std::size_t plan_cells();

    /// Receives a cell once it closes (every replica it will run is done)
    /// with the baseline accuracy it was measured against. Cells arrive
    /// in completion order; calls never overlap.
    using CellSink = std::function<void(const CellResult& cell, double baseline_pct)>;

    /// Executes only the selected planned-cell indices (deduplicated;
    /// throws std::out_of_range on an invalid index). Per-cell numbers are
    /// bit-identical to the same cells of a full run(): cell outcomes
    /// never depend on which other cells share the batch. Counters are
    /// recounted over the included cells only. Not session-cached. A
    /// non-empty `on_close` sees each cell as it closes (shard
    /// checkpoints); an exception it throws aborts the run.
    CampaignResult run_cells(const std::vector<std::size_t>& selected,
                             const CellSink& on_close = {});

private:
    /// The baseline, the eval subset size and the planned cells with their
    /// faults (campaign.cpp).
    struct Plan;
    Plan make_plan();
    CampaignResult execute(const Plan& plan, const std::vector<char>& include,
                           const CellSink& on_close);

    core::Session& session_;
    CampaignConfig config_;
};

}  // namespace snnfi::fi
