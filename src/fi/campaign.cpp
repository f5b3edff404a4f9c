#include "fi/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "snn/classifier.hpp"
#include "snn/runtime.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace snnfi::fi {

namespace {

constexpr double kZ95 = 1.96;            ///< 95% normal CI quantile
constexpr std::size_t kNumClasses = 10;  ///< digit workload
/// A mean drop beyond this many percentage points marks a cell critical.
constexpr double kCriticalDropPct = 5.0;
constexpr std::uint64_t kReplicaStream = CampaignEngine::kReplicaStream;
constexpr std::size_t kBatchCells = CampaignEngine::kBatchCells;

/// Campaign instruments, resolved once. Recording is lock-free and a no-op
/// while telemetry is off; timings are never fed back into the campaign,
/// so results stay bit-identical with telemetry on or off.
struct FiMetrics {
    obs::Counter& cells;
    obs::Gauge& cells_per_s;
    /// Share of worker time inside batch and build tasks:
    /// (fi.batch + fi.clean wall) / (workers x fi.execute wall).
    obs::Gauge& busy_frac;
    obs::Histogram& train_ms;
    obs::Histogram& infer_batch_ms;
    obs::Histogram& clean_ms;

    static FiMetrics& get() {
        static const std::vector<double> bounds{1,   3,    10,   30,  100,
                                                300, 1000, 3000, 10000};
        static FiMetrics metrics{
            obs::Registry::global().counter("fi.cells"),
            obs::Registry::global().gauge("fi.cells_per_s"),
            obs::Registry::global().gauge("fi.busy_frac"),
            obs::Registry::global().histogram("fi.phase.train_ms", bounds),
            obs::Registry::global().histogram("fi.phase.infer_batch_ms", bounds),
            obs::Registry::global().histogram("fi.phase.clean_ms", bounds)};
        return metrics;
    }
};

double ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string yes_no(bool value) { return value ? "yes" : "no"; }

/// Aggregation bucket label of a cell (sensitivity-map row key).
std::string layer_label(const FaultSite& site) {
    switch (site.kind) {
        case SiteKind::kSynapse: return "input";
        case SiteKind::kNeuron:
        case SiteKind::kParameter:
            switch (site.layer) {
                case attack::TargetLayer::kExcitatory: return "excitatory";
                case attack::TargetLayer::kInhibitory: return "inhibitory";
                default: return "network";
            }
    }
    return "?";
}

/// Fills a cell's replica count, mean accuracy and drop, the drop's 95% CI
/// halfwidth and its critical flag from its replicas' samples.
void summarize(CellResult& cell, std::span<const double> accuracies,
               std::span<const double> drops) {
    const std::size_t n = drops.size();
    cell.replicas = n;
    cell.accuracy_pct = util::mean(accuracies);
    cell.drop_pct = util::mean(drops);
    cell.ci_halfwidth_pct =
        n > 1 ? kZ95 * util::stddev(drops) / std::sqrt(static_cast<double>(n)) : 0.0;
    cell.critical = cell.drop_pct > kCriticalDropPct;
}

/// A clean (fault-free) inference pass over the eval subset with one
/// replica's encoding stream: the recorded run over the stream's raster,
/// which the replica's batches replay and follow, the classifier
/// assignments and the paired reference accuracy for that stream.
struct CleanReplica {
    std::optional<snn::ReferenceRun> run;
    snn::ActivityClassifier classifier{1, kNumClasses};
    double accuracy_pct = 0.0;
};

/// Most rasters alive at once: the lowest open replica's and the ones
/// built ahead of it (~0.75 MB each at full size).
constexpr std::size_t kLiveRasters = 3;

/// The inference cells' work queue in CampaignEngine::execute: which
/// cells wait for which replica, which replicas have their raster and
/// clean pass, and which rasters are freed. Every member is guarded by
/// `mutex`.
struct CellQueue {
    std::mutex mutex;
    std::condition_variable changed;
    std::vector<std::deque<std::size_t>> pending;  ///< per replica: cells waiting
    std::vector<std::size_t> open_at;  ///< per replica: cells pending or in a batch
    std::size_t open = 0;              ///< cells not closed yet
    std::size_t built = 0;             ///< replicas [0, built) are built
    std::size_t freed = 0;             ///< rasters [0, freed) are released
    std::size_t busy = 0;              ///< workers inside a task
    double busy_ms = 0.0;              ///< summed task wall (fi.busy_frac)
    bool failed = false;               ///< a task threw: every worker leaves

    CellQueue(const std::vector<std::size_t>& cells, std::size_t max_reps)
        : pending(max_reps), open_at(max_reps), open(cells.size()) {
        pending[0].assign(cells.begin(), cells.end());
        open_at[0] = cells.size();
    }

    /// The lowest built replica an open cell has yet to finish (`built`
    /// when none): no open cell reads a raster below it again.
    std::size_t first_needed() const {
        std::size_t lowest = 0;
        while (lowest < built && open_at[lowest] == 0) ++lowest;
        return lowest;
    }

    /// The next replica may still run for an open cell, and a raster slot
    /// is free once those no open cell needs are released.
    bool build_due() const {
        return open > 0 && built < pending.size() && built - freed < kLiveRasters;
    }

    /// Takes up to kBatchCells pending cells of the lowest built replica,
    /// and no more than an even share of the ready cells among the idle
    /// workers. Empty when no built replica has a pending cell.
    std::vector<std::size_t> take_batch(std::size_t workers, std::size_t& replica) {
        std::size_t ready = 0;
        for (std::size_t r = 0; r < built; ++r) ready += pending[r].size();
        if (ready == 0) return {};
        replica = 0;
        while (pending[replica].empty()) ++replica;
        const std::size_t idle = workers - busy;  // the caller is not busy
        std::deque<std::size_t>& queue = pending[replica];
        const auto count = static_cast<std::ptrdiff_t>(
            std::min({kBatchCells, queue.size(), (ready + idle - 1) / idle}));
        std::vector<std::size_t> cells(queue.begin(), queue.begin() + count);
        queue.erase(queue.begin(), queue.begin() + count);
        return cells;
    }
};

}  // namespace

std::string CampaignConfig::cache_key() const {
    std::ostringstream os;
    os << "models=";
    for (const auto& model : models) os << model->name() << "+";
    os << "|glitches=";
    for (const auto& glitch : glitches) {
        os << glitch.id << "@" << glitch.severity << "{"
           << glitch.profile.fingerprint() << "}["
           << glitch.footprint.fingerprint() << "]";
        if (glitch.train)
            os << "!train:" << glitch.train_begin << "-" << glitch.train_end;
        os << "+";
    }
    os << "|layers=";
    for (const auto layer : sites.layers) os << attack::to_string(layer) << "+";
    os << "|max_sites=" << sites.max_sites << "|site_seed=" << sites.sample_seed
       << "|eval=" << eval_samples << "|es=" << early_stop.min_replicas << ","
       << early_stop.max_replicas << "," << early_stop.ci_halfwidth_pct
       << "|treps=" << train_replicas;
    return os.str();
}

util::ResultTable CampaignResult::detail_table(const std::string& title) const {
    util::ResultTable table(title, {"model", "site", "severity", "replicas",
                                    "accuracy_pct", "drop_pct", "ci_halfwidth_pct",
                                    "critical", "early_stopped", "mode"});
    for (const auto& cell : cells) {
        table.add_row({cell.model, cell.site_id(), cell.severity,
                       static_cast<double>(cell.replicas), cell.accuracy_pct,
                       cell.drop_pct, cell.ci_halfwidth_pct, yes_no(cell.critical),
                       yes_no(cell.early_stopped),
                       std::string(cell.trained
                                       ? (cell.scheduled ? "train+sched" : "train")
                                       : (cell.scheduled ? "sched" : "infer"))});
    }
    return table;
}

util::ResultTable CampaignResult::sensitivity_map(const std::string& title) const {
    struct Bucket {
        std::string model;
        std::string layer;
        std::string footprint;
        std::size_t cells = 0;
        std::size_t critical = 0;
        std::size_t replicas = 0;
        double drop_sum = 0.0;
        double drop_max = 0.0;
    };
    // First-appearance order: cells come out of the engine in fault-library
    // taxonomy order, and the map rows should match.
    std::vector<Bucket> buckets;
    for (const auto& cell : cells) {
        const std::string layer = layer_label(cell.site);
        auto it = std::find_if(buckets.begin(), buckets.end(), [&](const Bucket& b) {
            return b.model == cell.model && b.layer == layer &&
                   b.footprint == cell.footprint;
        });
        if (it == buckets.end()) {
            buckets.push_back(
                Bucket{cell.model, layer, cell.footprint, 0, 0, 0, 0.0, 0.0});
            it = std::prev(buckets.end());
        }
        ++it->cells;
        it->critical += cell.critical ? 1 : 0;
        it->replicas += cell.replicas;
        it->drop_sum += cell.drop_pct;
        it->drop_max = std::max(it->drop_max, cell.drop_pct);
    }

    util::ResultTable table(title, {"model", "layer", "footprint", "cells",
                                    "mean_drop_pct", "max_drop_pct",
                                    "critical_rate_pct", "mean_replicas"});
    for (const Bucket& bucket : buckets) {
        const double n = static_cast<double>(bucket.cells);
        table.add_row({bucket.model, bucket.layer, bucket.footprint, n,
                       bucket.drop_sum / n, bucket.drop_max,
                       100.0 * static_cast<double>(bucket.critical) / n,
                       static_cast<double>(bucket.replicas) / n});
    }
    return table;
}

std::string CampaignResult::to_json() const {
    std::ostringstream os;
    os << "{\"baseline_accuracy_pct\":" << util::json_number(baseline_accuracy_pct)
       << ",\"evaluations\":" << evaluations << ",\"trainings\":" << trainings
       << ",\"cells\":[";
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const CellResult& cell = cells[c];
        if (c) os << ",";
        os << "{\"model\":\"" << util::json_escape(cell.model) << "\",\"site\":\""
           << util::json_escape(cell.site_id()) << "\",\"footprint\":\""
           << util::json_escape(cell.footprint)
           << "\",\"severity\":" << util::json_number(cell.severity)
           << ",\"replicas\":" << cell.replicas
           << ",\"accuracy_pct\":" << util::json_number(cell.accuracy_pct)
           << ",\"drop_pct\":" << util::json_number(cell.drop_pct)
           << ",\"ci_halfwidth_pct\":" << util::json_number(cell.ci_halfwidth_pct)
           << ",\"critical\":" << (cell.critical ? "true" : "false")
           << ",\"early_stopped\":" << (cell.early_stopped ? "true" : "false")
           << ",\"trained\":" << (cell.trained ? "true" : "false")
           << ",\"scheduled\":" << (cell.scheduled ? "true" : "false") << "}";
    }
    os << "],\"sensitivity_map\":" << sensitivity_map("sensitivity map").to_json()
       << "}";
    return os.str();
}

void CampaignResult::recount() {
    evaluations = 0;
    trainings = 0;
    std::size_t max_inference_replicas = 0;
    for (const CellResult& cell : cells) {
        if (cell.trained) {
            trainings += cell.replicas;
        } else {
            evaluations += cell.replicas;
            max_inference_replicas = std::max(max_inference_replicas, cell.replicas);
        }
    }
    // The clean reference passes are shared across cells: one per replica
    // stream, up to the deepest replica count any inference cell reached.
    evaluations += max_inference_replicas;
}

// ---------------------------------------------------------------- planning

/// Everything execute() needs, planned up front: the cell skeletons in
/// their stable planning order, each with the fault it runs under.
struct CampaignEngine::Plan {
    std::shared_ptr<attack::AttackSuite> suite;
    std::shared_ptr<const snn::NetworkModel> baseline;
    double baseline_pct = 0.0;
    std::size_t eval_n = 0;

    std::vector<CellResult> cells;              ///< skeletons, plan_index set
    std::vector<attack::TrainingFault> faults;  ///< per cell
};

CampaignEngine::CampaignEngine(core::Session& session, CampaignConfig config)
    : session_(session), config_(std::move(config)) {
    if (config_.models.empty() && config_.glitches.empty())
        config_.models = standard_fault_library();
    if (!config_.models.empty() && config_.sites.layers.empty())
        throw std::invalid_argument("CampaignConfig: no target layers");
}

std::shared_ptr<const CampaignResult> CampaignEngine::run() {
    const core::RunOptions& options = session_.options();
    std::ostringstream key;
    key << "fi_campaign|" << config_.cache_key() << "|quick=" << options.quick
        << "|samples=" << options.samples() << "|neurons=" << options.neurons()
        << "|data_seed=" << options.data_seed
        << "|network_seed=" << options.network_seed;
    return session_.artifact<CampaignResult>(key.str(), [&] {
        Plan plan = make_plan();
        const std::vector<char> all(plan.cells.size(), 1);
        return std::make_shared<CampaignResult>(execute(plan, all, {}));
    });
}

std::size_t CampaignEngine::plan_cells() { return make_plan().cells.size(); }

CampaignResult CampaignEngine::run_cells(const std::vector<std::size_t>& selected,
                                         const CellSink& on_close) {
    Plan plan = make_plan();
    std::vector<char> include(plan.cells.size(), 0);
    for (const std::size_t index : selected) {
        if (index >= plan.cells.size())
            throw std::out_of_range("run_cells: cell index out of range");
        include[index] = 1;
    }
    return execute(plan, include, on_close);
}

CampaignEngine::Plan CampaignEngine::make_plan() {
    Plan plan;
    plan.suite = session_.attack_suite();
    const bool quick = session_.options().quick;
    plan.baseline_pct = plan.suite->baseline_accuracy() * 100.0;
    // The trained baseline, frozen once and shared by every replica.
    plan.baseline = plan.suite->baseline_model();
    const snn::DiehlCookConfig& network = plan.baseline->config();
    const snn::Dataset& data = plan.suite->dataset();
    plan.eval_n =
        std::min(config_.eval_samples == 0 ? data.size() : config_.eval_samples,
                 data.size());
    if (plan.eval_n == 0) throw std::logic_error("fi campaign: empty eval set");

    // --- the site x model x severity grid -------------------------------
    for (const auto& model : config_.models) {
        std::vector<FaultSite> sites;
        if (model->network_wide()) {
            FaultSite site;
            site.kind = SiteKind::kParameter;
            site.layer = attack::TargetLayer::kNone;
            sites.push_back(site);
        } else {
            sites = enumerate_sites(network, model->site_kind(), config_.sites);
        }
        for (const FaultSite& site : sites) {
            for (const double severity : model->severity_grid(quick)) {
                CellResult cell;
                cell.plan_index = plan.cells.size();
                cell.model = model->name();
                cell.site = site;
                cell.severity = severity;
                cell.trained = model->trains_under_fault();
                plan.cells.push_back(std::move(cell));
                plan.faults.emplace_back().overlay =
                    model->overlay(network, site, severity);
            }
        }
    }

    // --- glitch cells: compiled time-resolved profiles ------------------
    // Uniform constant profiles collapse onto the exact static
    // train-under-fault path (they ARE the paper's attacks); time-localised
    // profiles become scheduled overlays evaluated at inference on the
    // trained baseline; train-mode cells run STDP under the compiled
    // schedule for their window of the training pass.
    const attack::GlitchCompiler compiler(network);
    for (const GlitchCellSpec& glitch : config_.glitches) {
        CellResult cell;
        cell.plan_index = plan.cells.size();
        cell.model = "vdd_glitch";
        cell.site.kind = SiteKind::kParameter;
        cell.site.layer = glitch.footprint.layer;
        cell.label = glitch.id;
        cell.footprint = glitch.footprint.fingerprint();
        cell.severity = glitch.severity;
        attack::TrainingFault& fault = plan.faults.emplace_back();
        if (glitch.train) {
            cell.trained = true;
            cell.scheduled = true;
            fault.schedule = compiler.compile(glitch.profile, glitch.footprint);
            fault.sample_begin = glitch.train_begin;
            fault.sample_end = glitch.train_end;
        } else if (glitch.profile.is_constant() && glitch.footprint.is_uniform()) {
            cell.trained = true;
            fault.overlay = attack::overlay_for(glitch.profile.to_fault_spec(), network);
        } else {
            cell.scheduled = true;
            fault.schedule = compiler.compile(glitch.profile, glitch.footprint);
        }
        plan.cells.push_back(std::move(cell));
    }
    return plan;
}

// --------------------------------------------------------------- execution

CampaignResult CampaignEngine::execute(const Plan& plan,
                                       const std::vector<char>& include,
                                       const CellSink& on_close) {
    obs::Span exec_span("fi.execute");
    const auto exec_start = std::chrono::steady_clock::now();
    const bool quick = session_.options().quick;
    const snn::Dataset& data = plan.suite->dataset();
    const std::size_t eval_n = plan.eval_n;
    const double baseline_pct = plan.baseline_pct;

    // The selected cells, in plan order: trained ones with their faults,
    // and the inference cells the queue below runs.
    CampaignResult result;
    result.baseline_accuracy_pct = baseline_pct;
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<std::size_t> slot(plan.cells.size(), kNone);
    std::vector<std::size_t> train_cells;
    std::vector<attack::TrainingFault> train_faults;
    std::vector<std::size_t> open;
    for (std::size_t c = 0; c < plan.cells.size(); ++c) {
        if (!include[c]) continue;
        slot[c] = result.cells.size();
        result.cells.push_back(plan.cells[c]);
        if (plan.cells[c].trained) {
            train_cells.push_back(c);
            train_faults.push_back(plan.faults[c]);
        } else {
            open.push_back(c);
        }
    }
    exec_span.tag("cells", static_cast<double>(result.cells.size()));

    // Per plan index: each replica's accuracy and clean-paired drop.
    std::vector<std::vector<double>> drops(plan.cells.size());
    std::vector<std::vector<double>> accuracies(plan.cells.size());

    // --- train-under-fault cells (drift models + glitch cells) ----------
    // Replica 0 always runs the session-default suite, so a
    // train_replicas == 1 campaign is bit-identical to the classic
    // engine; replicas >= 1 retrain under derived data/network seed
    // streams and are paired against *their own* suite's baseline.
    if (!train_cells.empty()) {
        const std::size_t train_reps =
            std::max<std::size_t>(1, config_.train_replicas);
        for (std::size_t r = 0; r < train_reps; ++r) {
            obs::Span replica_span("fi.train");
            replica_span.tag("replica", static_cast<double>(r));
            replica_span.tag("cells", static_cast<double>(train_cells.size()));
            const auto replica_start = std::chrono::steady_clock::now();
            std::shared_ptr<attack::AttackSuite> suite = plan.suite;
            if (r > 0) {
                // Independent data + weight-init streams per replica; the
                // replica suite's baseline (and its Session/store caching)
                // is shared by every train cell of the campaign.
                const core::RunOptions& options = session_.options();
                core::WorkloadOverrides overrides;
                overrides.data_seed =
                    util::derive_seed(options.data_seed, kTrainReplicaStream + r);
                overrides.network_seed = util::derive_seed(
                    options.network_seed, kTrainReplicaStream + r);
                suite = session_.attack_suite(overrides);
            }
            // Read after train_many: a replica suite's baseline trains
            // beside its cells there.
            const std::vector<attack::AttackOutcome> outcomes =
                suite->train_many(train_faults);
            const double replica_baseline_pct = suite->baseline_accuracy() * 100.0;
            for (std::size_t f = 0; f < train_cells.size(); ++f) {
                const std::size_t c = train_cells[f];
                const double accuracy_pct = outcomes[f].accuracy * 100.0;
                accuracies[c].push_back(accuracy_pct);
                drops[c].push_back(replica_baseline_pct - accuracy_pct);
            }
            FiMetrics::get().train_ms.observe(ms_since(replica_start));
        }
        for (const std::size_t c : train_cells) {
            CellResult& cell = result.cells[slot[c]];
            summarize(cell, accuracies[c], drops[c]);
            if (on_close) on_close(cell, baseline_pct);
        }
    }

    // --- behavioural models: batched Model/Runtime inference path -------
    EarlyStopPolicy es = config_.early_stop;
    // Quick mode always runs a fixed replica count: smoke runs and CI must
    // be shape-stable, so early stopping never activates (documented
    // invariant, enforced here rather than in every scenario config).
    if (quick) es.max_replicas = es.min_replicas;
    const std::size_t min_reps = std::max<std::size_t>(1, es.min_replicas);
    const std::size_t max_reps = std::max(min_reps, es.max_replicas);

    // Replica r's Poisson stream over the eval subset, encoded once: the
    // clean pass records its run over it, and every batch of replica r
    // replays the same raster following that record.
    const snn::DiehlCookConfig& network = plan.baseline->config();
    const std::span<const std::vector<float>> eval_images(data.images.data(), eval_n);
    std::vector<CleanReplica> clean(max_reps);
    // Cross-thread span hand-off: capture before dispatch (see
    // obs/span.hpp), so every fi.clean and fi.batch nests under fi.execute
    // even though it runs on an arbitrary pool worker.
    const obs::Context exec_ctx = obs::current_context();
    // Builds replica `replica`'s raster and clean pass; returns its wall
    // in milliseconds.
    const auto build_clean = [&](std::size_t replica) {
        obs::Span span("fi.clean", exec_ctx);
        span.tag("replica", static_cast<double>(replica));
        const auto start = std::chrono::steady_clock::now();
        const snn::ReferenceRun& run = clean[replica].run.emplace(
            plan.baseline,
            snn::SpikeRaster::encode(network.encoder, network.steps_per_sample,
                                     eval_images,
                                     util::Rng(util::derive_seed(
                                         kSeed, kReplicaStream + replica))));
        snn::ActivityClassifier classifier(network.n_neurons, kNumClasses);
        for (std::size_t i = 0; i < eval_n; ++i)
            classifier.accumulate(run.activity(i).exc_counts, data.labels[i]);
        classifier.assign_labels();
        std::size_t correct = 0;
        for (std::size_t i = 0; i < eval_n; ++i) {
            if (classifier.predict(run.activity(i).exc_counts) == data.labels[i])
                ++correct;
        }
        clean[replica].classifier = std::move(classifier);
        clean[replica].accuracy_pct =
            100.0 * static_cast<double>(correct) / static_cast<double>(eval_n);
        const double ms = ms_since(start);
        FiMetrics::get().clean_ms.observe(ms);
        return ms;
    };

    // The stop rule, applied to one cell after each of its replicas: true
    // while the cell has replicas left to run.
    const auto stays_open = [&](std::size_t c) {
        const std::size_t n = drops[c].size();
        if (n < min_reps) return true;  // judged from min_replicas on
        CellResult& cell = result.cells[slot[c]];
        summarize(cell, accuracies[c], drops[c]);
        // The cap (a fixed replica count when it equals min_replicas): the
        // cell is done.
        if (n >= max_reps) return false;
        const bool tight = cell.ci_halfwidth_pct <= es.ci_halfwidth_pct;
        if (!tight) return true;
        cell.early_stopped = true;
        return false;
    };

    // Runs replica `replica` of `cells` as one lockstep batch and judges
    // each cell alone: it goes to `next` (its next replica is due) or to
    // `closed`. Returns the batch wall in milliseconds.
    const auto run_batch = [&](std::size_t replica, const std::vector<std::size_t>& cells,
                               std::vector<std::size_t>& next,
                               std::vector<std::size_t>& closed) {
        const std::size_t count = cells.size();
        obs::Span batch_span("fi.batch", exec_ctx);
        batch_span.tag("replica", static_cast<double>(replica));
        batch_span.tag("cells", static_cast<double>(count));
        const auto batch_start = std::chrono::steady_clock::now();
        const CleanReplica& reference = clean[replica];
        std::vector<snn::NetworkRuntime> runtimes;
        runtimes.reserve(count);
        std::vector<snn::NetworkRuntime*> members;
        members.reserve(count);
        for (const std::size_t cell : cells) {
            // Per-cell span: overlay + runtime construction. (The lockstep
            // propagation below is shared by the whole batch, so per-cell
            // *inference* time is not separable by design.)
            obs::Span cell_span("fi.cell");
            cell_span.tag("cell", static_cast<double>(cell));
            cell_span.tag("model", plan.cells[cell].model);
            cell_span.tag("severity", plan.cells[cell].severity);
            cell_span.tag("replica", static_cast<double>(replica));
            const attack::TrainingFault& fault = plan.faults[cell];
            runtimes.emplace_back(plan.baseline, fault.overlay);
            if (!fault.schedule.empty()) runtimes.back().set_schedule(fault.schedule);
        }
        for (snn::NetworkRuntime& runtime : runtimes) members.push_back(&runtime);
        snn::BatchRunner batch(*plan.baseline, std::move(members));
        std::vector<std::size_t> correct(count, 0);
        // One reusable activity per batch member: run_sample_into zeroes
        // them in place, so the sample loop is steady-state
        // allocation-free.
        std::vector<snn::SampleActivity> activities(count);
        for (std::size_t i = 0; i < eval_n; ++i) {
            batch.run_sample_into(*reference.run, i, activities);
            for (std::size_t k = 0; k < count; ++k) {
                if (reference.classifier.predict(activities[k].exc_counts) ==
                    data.labels[i])
                    ++correct[k];
            }
        }
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t c = cells[k];
            const double accuracy_pct = 100.0 * static_cast<double>(correct[k]) /
                                        static_cast<double>(eval_n);
            drops[c].push_back(reference.accuracy_pct - accuracy_pct);
            accuracies[c].push_back(accuracy_pct);
            (stays_open(c) ? next : closed).push_back(c);
        }
        const double ms = ms_since(batch_start);
        FiMetrics::get().infer_batch_ms.observe(ms);
        return ms;
    };

    // No round barrier: one parallel_for whose indices each run the worker
    // loop below over a shared queue of (cell, replica) pairs. A batch
    // takes pending cells of the lowest built replica, and when it
    // finishes each of its cells closes or is queued for its next replica
    // at once, so a cell's replicas run as soon as a worker is free rather
    // than when the slowest cell of a round is done. Index 0, which
    // ThreadPool runs on this thread, builds every raster and clean pass
    // (so one malloc arena holds them; built on pool workers they would
    // spread over per-thread arenas and raise the peak RSS): the next
    // replica whenever an open cell may still run it and fewer than
    // kLiveRasters rasters are live, ahead of any batch. It frees each
    // replica's record, raster included, once no open cell can still read
    // it. With one worker, or under a nested parallel_for that runs its
    // indices serially, index 0 does all of this alone and never waits. A
    // task that throws wakes every worker and leaves through parallel_for.
    //
    // A cell's outcome depends only on (cell, replica), never on its
    // batch-mates, the batch cut or the worker count: each member reads the
    // replica's record (raster and clean run) and its own runtime, and its
    // replicas run in order (DESIGN.md §6). So results are byte-identical
    // for any worker count, and a subset of cells (run_cells, shards)
    // reproduces those cells of the full run.
    const std::size_t workers = session_.pool().max_workers();
    CellQueue queue(open, max_reps);
    std::mutex sink_mutex;  // one on_close call at a time
    const auto work = [&](std::size_t index) {
        std::unique_lock<std::mutex> lock(queue.mutex);
        // Runs `task` with the queue unlocked, counted as busy.
        const auto unlocked = [&](const auto& task) {
            ++queue.busy;
            lock.unlock();
            task();
            lock.lock();
            --queue.busy;
        };
        try {
            for (;;) {
                if (index == 0) {
                    for (const std::size_t needed = queue.first_needed();
                         queue.freed < needed; ++queue.freed)
                        clean[queue.freed].run.reset();
                }
                if (queue.failed || queue.open == 0) return;
                if (index == 0 && queue.build_due()) {
                    const std::size_t replica = queue.built;
                    double ms = 0.0;
                    unlocked([&] { ms = build_clean(replica); });
                    ++queue.built;
                    queue.busy_ms += ms;
                    queue.changed.notify_all();
                    continue;
                }
                std::size_t replica = 0;
                const std::vector<std::size_t> cells = queue.take_batch(workers, replica);
                if (cells.empty()) {
                    queue.changed.wait(lock);
                    continue;
                }
                std::vector<std::size_t> next;
                std::vector<std::size_t> closed;
                double ms = 0.0;
                unlocked([&] {
                    ms = run_batch(replica, cells, next, closed);
                    if (!on_close) return;
                    const std::lock_guard<std::mutex> sink_lock(sink_mutex);
                    for (const std::size_t c : closed)
                        on_close(result.cells[slot[c]], baseline_pct);
                });
                queue.busy_ms += ms;
                queue.open_at[replica] -= cells.size();
                queue.open -= closed.size();
                for (const std::size_t c : next) {
                    queue.pending[replica + 1].push_back(c);
                    ++queue.open_at[replica + 1];
                }
                queue.changed.notify_all();
            }
        } catch (...) {
            // Every other worker leaves at its next look at the queue.
            if (!lock.owns_lock()) lock.lock();
            queue.failed = true;
            queue.changed.notify_all();
            throw;
        }
    };
    if (!open.empty()) session_.pool().parallel_for(workers, work);

    result.recount();
    FiMetrics::get().cells.add(result.cells.size());
    const double exec_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      exec_start)
            .count();
    if (exec_seconds > 0.0 && !result.cells.empty()) {
        FiMetrics::get().cells_per_s.set(
            static_cast<double>(result.cells.size()) / exec_seconds);
        FiMetrics::get().busy_frac.set(queue.busy_ms / 1000.0 /
                                       (static_cast<double>(workers) * exec_seconds));
    }
    return result;
}

}  // namespace snnfi::fi
