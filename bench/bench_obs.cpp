// Telemetry overhead benchmark: the fi campaign engine with telemetry
// disabled (the shipping default) vs enabled, same cells, same seeds.
//
//   $ ./bench_obs [--quick] [--reps=5] [--out=BENCH_obs.json]
//
// The instrumented hot paths (session cache counters, store timers, the
// per-cell/per-batch spans in fi::CampaignEngine) are compiled in
// unconditionally and gated by one relaxed atomic load, so the disabled
// run must cost nothing measurable and the enabled run only what the
// span/counter recording itself costs.
//
// The acceptance bar (gated in CI): enabled-telemetry throughput within
// 3% of the disabled baseline (overhead_ratio >= 0.97). overhead_ratio is
// the median over interleaved repetitions of each repetition's
// disabled/enabled time ratio, so one slow run in either mode moves it
// less than it moves a ratio of two minima. Gating the within-process
// ratio — not absolute cells/s — keeps the gate portable across runners
// (see bench/baselines/README.md).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <vector>

#include "core/session.hpp"
#include "fi/campaign.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace snnfi;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser parser(
        "Telemetry overhead benchmark (campaign engine, obs off vs on)");
    parser.add_flag("quick", "Small grid for CI smoke runs");
    parser.add_option("reps", "5",
                      "Interleaved off/on repetitions (the median ratio is gated)");
    parser.add_option("samples", "240", "Baseline training samples");
    parser.add_option("neurons", "48", "Neurons per layer");
    parser.add_option("eval-samples", "48", "Inference samples per evaluation");
    parser.add_option("sites", "0", "Fault sites per model (0 = default 4; quick 2)");
    parser.add_option("out", "BENCH_obs.json", "JSON output path");
    try {
        if (!parser.parse(argc, argv)) return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n" << parser.usage();
        return 2;
    }
    util::set_log_level(util::LogLevel::kWarn);

    const bool quick = parser.get_bool("quick");
    std::size_t max_sites = static_cast<std::size_t>(parser.get_int("sites"));
    if (max_sites == 0) max_sites = quick ? 2 : 4;

    // --- one shared trained baseline through the Session cache ----------
    core::RunOptions options;
    options.quick = quick;
    options.train_samples = static_cast<std::size_t>(parser.get_int("samples"));
    options.n_neurons = static_cast<std::size_t>(parser.get_int("neurons"));
    options.eval_window =
        std::min<std::size_t>(options.eval_window, options.train_samples / 2);
    core::Session session(options);

    fi::CampaignConfig config;
    config.models = {fi::find_fault_model("dead_neuron"),
                     fi::find_fault_model("stuck_at_0")};
    config.sites.max_sites = max_sites;
    config.eval_samples = std::min<std::size_t>(
        static_cast<std::size_t>(parser.get_int("eval-samples")),
        options.train_samples);
    config.early_stop = {.min_replicas = 2, .max_replicas = 2};
    const std::size_t eval_samples = config.eval_samples;
    fi::CampaignEngine engine(session, std::move(config));
    std::vector<std::size_t> all_cells(engine.plan_cells());
    std::iota(all_cells.begin(), all_cells.end(), 0);

    // run_cells() is not session-cached, so every call re-executes the
    // whole grid over the shared trained baseline.
    const auto run_once = [&] { return engine.run_cells(all_cells); };

    // Warm-up trains the baseline and touches first-use allocations in
    // both modes; the median over alternating repetitions absorbs
    // scheduler noise on shared runners.
    const std::size_t reps =
        std::max<std::size_t>(1, static_cast<std::size_t>(parser.get_int("reps")));
    obs::set_enabled(false);
    (void)run_once();
    obs::set_enabled(true);
    (void)run_once();
    obs::Registry::global().reset();
    obs::reset_trace();

    std::vector<double> disabled_runs;
    std::vector<double> enabled_runs;
    std::vector<double> ratios;
    std::size_t cells = 0;
    std::size_t trace_events = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        obs::set_enabled(false);
        auto start = std::chrono::steady_clock::now();
        cells = run_once().cells.size();
        const double off = seconds_since(start);

        obs::set_enabled(true);
        start = std::chrono::steady_clock::now();
        (void)run_once();
        const double on = seconds_since(start);
        disabled_runs.push_back(off);
        enabled_runs.push_back(on);
        ratios.push_back(on > 0.0 ? off / on : 0.0);
        trace_events = obs::trace_event_count();
        // Drain per-rep so buffered spans never grow across repetitions
        // (the cost of *recording*, not of an ever-larger buffer).
        obs::Registry::global().reset();
        obs::reset_trace();
    }
    obs::set_enabled(false);

    const double overhead_ratio = util::median(ratios);
    const double disabled_s = util::median(disabled_runs);
    const double enabled_s = util::median(enabled_runs);
    const double disabled_cells_per_s =
        disabled_s > 0.0 ? static_cast<double>(cells) / disabled_s : 0.0;
    const double enabled_cells_per_s =
        enabled_s > 0.0 ? static_cast<double>(cells) / enabled_s : 0.0;

    // --- report -----------------------------------------------------------
    util::ResultTable table("telemetry overhead — campaign engine, obs off vs on",
                            {"cells", "disabled_ms", "enabled_ms",
                             "overhead_ratio", "enabled_cells_per_s"});
    std::ostringstream note;
    note << "baseline trained once (session cache: " << session.cache_misses()
         << " miss(es)); medians of " << reps << " interleaved rep(s); "
         << trace_events << " trace event(s) per enabled rep, "
         << options.n_neurons << " neurons/layer, " << eval_samples
         << " eval samples";
    table.add_note(note.str());
    table.add_row({static_cast<double>(cells), disabled_s * 1000.0,
                   enabled_s * 1000.0, overhead_ratio, enabled_cells_per_s});
    std::cout << table;

    std::ostringstream json;
    json << "{\"benchmark\":\"obs\",\"quick\":" << (quick ? "true" : "false")
         << ",\"workload\":{\"train_samples\":" << options.train_samples
         << ",\"neurons\":" << options.n_neurons
         << ",\"eval_samples\":" << eval_samples << ",\"cells\":" << cells
         << ",\"trace_events\":" << trace_events
         << "},\"disabled_ms\":" << util::json_number(disabled_s * 1000.0)
         << ",\"enabled_ms\":" << util::json_number(enabled_s * 1000.0)
         << ",\"overhead_ratio\":" << util::json_number(overhead_ratio)
         << ",\"disabled_cells_per_s\":" << util::json_number(disabled_cells_per_s)
         << ",\"enabled_cells_per_s\":" << util::json_number(enabled_cells_per_s)
         << "}";
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
