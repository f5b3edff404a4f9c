// Micro-benchmark of the Model/Runtime split: replicas x threads grid,
// standalone per-replica engine vs overlay-runtime batched engine.
//
//   $ ./bench_runtime_replicas [--quick] [--threads=1,2,4,8]
//                              [--replicas=4] [--cells=12]
//                              [--out=BENCH_runtime.json]
//
// Both engines evaluate the SAME (cell x replica) grid of inference-time
// faults against one shared trained baseline:
//   * standalone       — one pre-faulted NetworkRuntime per evaluation,
//     each running its own encoder stream and dense propagation (what a
//     campaign would cost without lockstep batching);
//   * runtime_overlay  — the production path: the same runtimes advanced
//     in lockstep batches (shared encoder + dense propagation per batch).
//
// Emits the grid as a table and writes BENCH_runtime.json so CI tracks the
// perf trajectory of the batching scheme that ships in the fi engine.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "attack/scenarios.hpp"
#include "core/session.hpp"
#include "fi/campaign.hpp"
#include "snn/runtime.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace snnfi;

// Shared with the production campaign engine so the benchmark measures
// the batching scheme that actually ships.
constexpr std::uint64_t kSeed = fi::CampaignEngine::kSeed;
constexpr std::uint64_t kReplicaStream = fi::CampaignEngine::kReplicaStream;
constexpr std::size_t kBatchCells = fi::CampaignEngine::kBatchCells;

struct GridPoint {
    std::size_t threads = 0;
    std::size_t replicas = 0;
    double standalone_ms = 0.0;
    double runtime_ms = 0.0;
    double speedup = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser parser(
        "Model/Runtime replica benchmark (snapshot/restore vs overlay runtime)");
    parser.add_flag("quick", "Small grid for CI smoke runs");
    parser.add_option("threads", "", "Comma-separated worker counts "
                                     "(default 1,2,4,8; quick 1,2)");
    parser.add_option("replicas", "0", "Replicas per cell (0 = default 4; quick 2)");
    parser.add_option("cells", "0", "Fault cells (0 = default 12; quick 6)");
    parser.add_option("samples", "240", "Baseline training samples");
    parser.add_option("neurons", "48", "Neurons per layer");
    parser.add_option("eval-samples", "48", "Inference samples per evaluation");
    parser.add_option("out", "BENCH_runtime.json", "JSON output path");
    try {
        if (!parser.parse(argc, argv)) return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n" << parser.usage();
        return 2;
    }
    util::set_log_level(util::LogLevel::kWarn);

    const bool quick = parser.get_bool("quick");
    std::vector<std::size_t> thread_grid;
    for (const double value : [&] {
             try {
                 return parser.get_doubles("threads");
             } catch (const std::exception&) {
                 return std::vector<double>{};
             }
         }()) {
        if (value >= 1.0) thread_grid.push_back(static_cast<std::size_t>(value));
    }
    if (thread_grid.empty())
        thread_grid = quick ? std::vector<std::size_t>{1, 2}
                            : std::vector<std::size_t>{1, 2, 4, 8};
    std::size_t replicas = static_cast<std::size_t>(parser.get_int("replicas"));
    if (replicas == 0) replicas = quick ? 2 : 4;
    std::size_t n_cells = static_cast<std::size_t>(parser.get_int("cells"));
    if (n_cells == 0) n_cells = quick ? 6 : 12;

    // --- one shared trained baseline through the Session cache ----------
    core::RunOptions options;
    options.train_samples = static_cast<std::size_t>(parser.get_int("samples"));
    options.n_neurons = static_cast<std::size_t>(parser.get_int("neurons"));
    options.eval_window =
        std::min<std::size_t>(options.eval_window, options.train_samples / 2);
    core::Session session(options);
    auto suite = session.attack_suite();
    const auto baseline = suite->baseline_model();
    const snn::DiehlCookConfig config = suite->config().network;
    const snn::Dataset& data = suite->dataset();
    const std::size_t eval_n = std::min<std::size_t>(
        static_cast<std::size_t>(parser.get_int("eval-samples")), data.size());

    // --- the fault-cell set: neuron + synapse faults, deterministic -----
    struct Cell {
        std::shared_ptr<const fi::FaultModel> model;
        fi::FaultSite site;
        double severity = 1.0;
    };
    std::vector<Cell> cells;
    fi::SitePlan plan;
    plan.max_sites = (n_cells + 1) / 2;
    const auto neuron_sites =
        fi::enumerate_sites(config, fi::SiteKind::kNeuron, plan);
    const auto synapse_sites =
        fi::enumerate_sites(config, fi::SiteKind::kSynapse, plan);
    for (std::size_t i = 0; cells.size() < n_cells; ++i) {
        if (i < neuron_sites.size())
            cells.push_back({fi::find_fault_model(i % 2 ? "saturated_neuron"
                                                        : "dead_neuron"),
                             neuron_sites[i], 1.0});
        else if (i - neuron_sites.size() < synapse_sites.size())
            cells.push_back({fi::find_fault_model("stuck_at_1"),
                             synapse_sites[i - neuron_sites.size()], 1.0});
        else
            break;
    }
    std::vector<snn::FaultOverlay> overlays(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        cells[c].model->build_overlay(overlays[c], config, cells[c].site,
                                      cells[c].severity);
    }

    // --- the two engines -------------------------------------------------
    // Standalone: one pre-faulted runtime per (cell, replica), each paying
    // for its own Poisson encoding and dense propagation.
    const auto run_standalone = [&](util::ThreadPool& pool) {
        std::vector<std::size_t> spikes(cells.size() * replicas, 0);
        pool.parallel_for(cells.size() * replicas, [&](std::size_t t) {
            const std::size_t c = t / replicas;
            const std::size_t r = t % replicas;
            snn::NetworkRuntime runtime(baseline, overlays[c]);
            runtime.rng().reseed(util::derive_seed(kSeed, kReplicaStream + r));
            std::size_t total = 0;
            for (std::size_t i = 0; i < eval_n; ++i)
                total += runtime.run_sample(data.images[i]).total_exc_spikes;
            spikes[t] = total;
        });
        return spikes;
    };
    // Redesign: one pre-faulted runtime per (cell, replica), lockstep
    // batches sharing the encoder stream and the dense propagation.
    const auto run_runtime_overlay = [&](util::ThreadPool& pool) {
        std::vector<std::size_t> spikes(cells.size() * replicas, 0);
        struct Task {
            std::size_t replica;
            std::size_t begin;
            std::size_t end;
        };
        std::vector<Task> tasks;
        for (std::size_t r = 0; r < replicas; ++r) {
            for (std::size_t b = 0; b < cells.size(); b += kBatchCells)
                tasks.push_back({r, b, std::min(b + kBatchCells, cells.size())});
        }
        pool.parallel_for(tasks.size(), [&](std::size_t t) {
            const Task& task = tasks[t];
            const std::size_t count = task.end - task.begin;
            std::vector<snn::NetworkRuntime> runtimes;
            runtimes.reserve(count);
            std::vector<snn::NetworkRuntime*> members;
            for (std::size_t k = 0; k < count; ++k)
                runtimes.emplace_back(baseline, overlays[task.begin + k]);
            for (auto& runtime : runtimes) members.push_back(&runtime);
            snn::BatchRunner batch(*baseline, std::move(members));
            util::Rng rng(util::derive_seed(kSeed, kReplicaStream + task.replica));
            std::vector<std::size_t> totals(count, 0);
            std::vector<snn::SampleActivity> activities(count);
            for (std::size_t i = 0; i < eval_n; ++i) {
                batch.run_sample_into(data.images[i], rng, activities);
                for (std::size_t k = 0; k < count; ++k)
                    totals[k] += activities[k].total_exc_spikes;
            }
            for (std::size_t k = 0; k < count; ++k)
                spikes[(task.begin + k) * replicas + task.replica] = totals[k];
        });
        return spikes;
    };

    // --- the grid ---------------------------------------------------------
    std::vector<GridPoint> grid;
    for (const std::size_t threads : thread_grid) {
        util::ThreadPool pool(threads);
        // Warm-up keeps first-touch allocation out of the measurement.
        (void)run_runtime_overlay(pool);
        auto start = std::chrono::steady_clock::now();
        const auto legacy_spikes = run_standalone(pool);
        const double standalone_s = seconds_since(start);
        start = std::chrono::steady_clock::now();
        const auto runtime_spikes = run_runtime_overlay(pool);
        const double runtime_s = seconds_since(start);
        // Both engines must be doing the same work: a replica computes the
        // same drive alone as in a batch, weight-patched cells included, so
        // every cell's spike total is equal across engines.
        for (std::size_t t = 0; t < legacy_spikes.size(); ++t) {
            const std::size_t c = t / replicas;
            if (legacy_spikes[t] != runtime_spikes[t]) {
                std::cerr << "error: engines disagree on cell " << c
                          << " (standalone " << legacy_spikes[t] << ", batched "
                          << runtime_spikes[t] << ") — the benchmark would be "
                          << "comparing different work\n";
                return 1;
            }
        }
        GridPoint point;
        point.threads = threads;
        point.replicas = replicas;
        point.standalone_ms = standalone_s * 1000.0;
        point.runtime_ms = runtime_s * 1000.0;
        point.speedup = runtime_s > 0.0 ? standalone_s / runtime_s : 0.0;
        grid.push_back(point);
    }

    // --- report -----------------------------------------------------------
    util::ResultTable table(
        "runtime replicas — standalone vs lockstep-batched overlay engine",
        {"threads", "replicas", "cells", "standalone_ms", "runtime_overlay_ms",
         "speedup"});
    std::ostringstream note;
    note << "baseline trained once (session cache: " << session.cache_misses()
         << " miss(es)); " << eval_n << " eval samples, "
         << options.n_neurons << " neurons/layer";
    table.add_note(note.str());
    for (const GridPoint& point : grid) {
        table.add_row({static_cast<double>(point.threads),
                       static_cast<double>(point.replicas),
                       static_cast<double>(cells.size()), point.standalone_ms,
                       point.runtime_ms, point.speedup});
    }
    std::cout << table;

    std::ostringstream json;
    json << "{\"benchmark\":\"runtime_replicas\",\"quick\":"
         << (quick ? "true" : "false") << ",\"workload\":{\"train_samples\":"
         << options.train_samples << ",\"neurons\":" << options.n_neurons
         << ",\"eval_samples\":" << eval_n << ",\"cells\":" << cells.size()
         << ",\"replicas\":" << replicas << "},\"grid\":[";
    for (std::size_t g = 0; g < grid.size(); ++g) {
        if (g) json << ",";
        json << "{\"threads\":" << grid[g].threads
             << ",\"standalone_ms\":" << util::json_number(grid[g].standalone_ms)
             << ",\"runtime_overlay_ms\":" << util::json_number(grid[g].runtime_ms)
             << ",\"speedup\":" << util::json_number(grid[g].speedup) << "}";
    }
    json << "]}";
    const std::string out_path = parser.get("out");
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
    }
    out << json.str() << "\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
