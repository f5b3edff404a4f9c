// Campaign engine behaviour through a real (tiny) Session: baseline reuse,
// quick-mode early-stopping guarantees, full-mode early-stopping rounds,
// worker-count and cell-subset determinism, the paper's attacks 1-3
// falling out of the drift models with identical numbers, and the
// registry's fi scenarios being the campaign catalog.
#include "fi/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/scenario.hpp"
#include "core/session.hpp"
#include "fi/catalog.hpp"

namespace snnfi::fi {
namespace {

core::RunOptions tiny_options(std::size_t workers = 1) {
    core::RunOptions options;
    options.quick = true;
    options.train_samples = 60;
    options.n_neurons = 16;
    options.eval_window = 30;
    options.max_workers = workers;
    return options;
}

CampaignConfig tiny_config() {
    CampaignConfig config;
    config.models = {find_fault_model("dead_neuron"), find_fault_model("stuck_at_0")};
    config.sites.max_sites = 2;
    config.eval_samples = 20;
    config.early_stop = {.min_replicas = 2, .max_replicas = 2};
    return config;
}

TEST(Campaign, QuickModeNeverEarlyStopsAndRunsFixedReplicas) {
    core::Session session(tiny_options());
    CampaignEngine engine(session, tiny_config());
    const auto campaign = engine.run();
    ASSERT_FALSE(campaign->cells.empty());
    for (const auto& cell : campaign->cells) {
        EXPECT_FALSE(cell.early_stopped) << cell.site.id();
        EXPECT_EQ(cell.replicas, 2u) << cell.site.id();
        EXPECT_FALSE(cell.trained);
    }
    EXPECT_EQ(campaign->trainings, 0u);
    EXPECT_GT(campaign->evaluations, 0u);
}

TEST(Campaign, ResultIsSessionCachedAndBaselineTrainsOnce) {
    core::Session session(tiny_options());
    CampaignEngine first(session, tiny_config());
    const auto a = first.run();
    const std::size_t misses_after_first = session.cache_misses();

    CampaignEngine second(session, tiny_config());
    const auto b = second.run();
    EXPECT_EQ(a.get(), b.get());  // same artifact, no re-execution
    EXPECT_EQ(session.cache_misses(), misses_after_first);

    // The smoke scenario rides the same machinery end-to-end.
    const core::RunResult smoke = session.run("fi.smoke");
    EXPECT_GT(smoke.table.num_rows(), 0u);
    const core::RunResult again = session.run("fi.smoke");
    EXPECT_EQ(again.cache_misses, 0u);  // campaign + baseline fully reused
    EXPECT_GE(again.cache_hits, 1u);
}

TEST(Campaign, DeterministicAcrossWorkerCounts) {
    const auto render = [](std::size_t workers) {
        core::Session session(tiny_options(workers));
        CampaignEngine engine(session, tiny_config());
        return engine.run()->detail_table("campaign").to_csv() +
               engine.run()->sensitivity_map("map").to_csv();
    };
    EXPECT_EQ(render(1), render(4));
}

TEST(Campaign, DriverGainDriftReproducesAttack1Numbers) {
    core::Session session(tiny_options());

    // The paper scenario (fig7b, quick grid: theta -20% / +20%)...
    const core::RunResult fig7b = session.run("fig7b");
    ASSERT_EQ(fig7b.table.num_rows(), 2u);

    // ...and the same attack expressed as the parametric drift model.
    CampaignConfig config;
    config.models = {find_fault_model("driver_gain_drift")};
    config.eval_samples = 20;
    config.early_stop = {.min_replicas = 1, .max_replicas = 1};
    CampaignEngine engine(session, config);
    const auto campaign = engine.run();
    ASSERT_EQ(campaign->cells.size(), 2u);

    for (std::size_t row = 0; row < 2; ++row) {
        const CellResult& cell = campaign->cells[row];
        EXPECT_TRUE(cell.trained);
        EXPECT_DOUBLE_EQ(cell.severity * 100.0, fig7b.table.number_at(row, 0));
        // Acceptance bound is 1%; sharing the Session's cached suite makes
        // the numbers identical in practice.
        EXPECT_NEAR(cell.accuracy_pct, fig7b.table.number_at(row, 1), 1.0);
        EXPECT_NEAR(cell.accuracy_pct, fig7b.table.number_at(row, 1), 1e-9);
    }
}

TEST(Campaign, DriftDriverGainScenarioReproducesFig7bBitForBit) {
    core::Session session(tiny_options());
    const core::RunResult fig7b = session.run("fig7b");
    ASSERT_EQ(fig7b.table.num_rows(), 2u);
    const std::size_t misses_after_fig7b = session.cache_misses();

    const core::RunResult drift = session.run("fi.drift.driver_gain");
    ASSERT_EQ(drift.table.num_rows(), 2u);
    for (std::size_t row = 0; row < 2; ++row) {
        // severity and accuracy_pct columns must match attack 1 exactly
        // (same train-under-fault path off the same cached suite).
        EXPECT_DOUBLE_EQ(drift.table.number_at(row, 2) * 100.0,
                         fig7b.table.number_at(row, 0));
        EXPECT_DOUBLE_EQ(drift.table.number_at(row, 4), fig7b.table.number_at(row, 1));
    }
    // The scenario only missed its own campaign artifact: the baseline
    // (inside the suite) was trained exactly once, for fig7b.
    EXPECT_EQ(session.cache_misses(), misses_after_fig7b + 1);
}

TEST(Campaign, ThresholdDriftReproducesFig8aAndFig8bFullLayerRows) {
    core::Session session(tiny_options());
    const util::ResultTable drift = session.run("fi.drift").table;
    const auto text_at = [&](std::size_t row, std::size_t col) {
        return std::get<std::string>(drift.at(row, col));
    };
    std::size_t pinned = 0;
    const std::vector<std::pair<std::string, std::string>> figures = {
        {"fig8a", "exc.param"}, {"fig8b", "inh.param"}};
    for (const auto& [figure, site] : figures) {
        const util::ResultTable attack = session.run(figure).table;
        for (std::size_t row = 0; row < attack.num_rows(); ++row) {
            if (attack.number_at(row, 1) != 100.0) continue;  // fraction_pct
            const double delta_pct = attack.number_at(row, 0);
            std::size_t matches = 0;
            for (std::size_t d = 0; d < drift.num_rows(); ++d) {
                if (text_at(d, 0) != "threshold_drift" || text_at(d, 1) != site ||
                    drift.number_at(d, 2) * 100.0 != delta_pct)
                    continue;
                // Same seed model, same threshold overlay on every neuron
                // of the layer: the accuracy is the scenario's, bit for bit.
                EXPECT_DOUBLE_EQ(drift.number_at(d, 4), attack.number_at(row, 2))
                    << figure << " delta " << delta_pct;
                ++matches;
            }
            EXPECT_EQ(matches, 1u) << figure << " delta " << delta_pct;
            ++pinned;
        }
    }
    EXPECT_EQ(pinned, 4u);  // quick grids: deltas -20% and +20% per layer
}

/// A full-mode (non-quick) tiny campaign, so early stopping is live: cells
/// close anywhere from min_replicas to max_replicas, and the work queue
/// cuts batches by the ready cells and idle workers of the moment.
CampaignConfig early_stop_config() {
    CampaignConfig config;
    config.models = {find_fault_model("dead_neuron"),
                     find_fault_model("saturated_neuron"),
                     find_fault_model("stuck_at_1")};
    config.sites.max_sites = 3;
    config.eval_samples = 30;
    config.early_stop = {.min_replicas = 2, .max_replicas = 6, .ci_halfwidth_pct = 4.0};
    return config;
}

std::string render(const CampaignResult& campaign) {
    return campaign.detail_table("campaign").to_csv() +
           campaign.sensitivity_map("map").to_csv();
}

TEST(Campaign, EarlyStoppingRoundsIdenticalAcrossWorkerCountsAndSubsets) {
    const auto full_options = [](std::size_t workers) {
        core::RunOptions options = tiny_options(workers);
        options.quick = false;
        return options;
    };
    core::Session session(full_options(1));
    CampaignEngine engine(session, early_stop_config());
    const auto campaign = engine.run();
    const EarlyStopPolicy& policy = engine.config().early_stop;

    // One cell stops early in a round after min_replicas, and one runs to
    // max_replicas: both sides of the stop rule are exercised.
    const auto first_cell = [&](const auto& predicate) {
        const auto it = std::find_if(campaign->cells.begin(), campaign->cells.end(),
                                     predicate);
        return static_cast<std::size_t>(it - campaign->cells.begin());
    };
    const std::size_t late_stop = first_cell([&](const CellResult& cell) {
        return cell.early_stopped && cell.replicas > policy.min_replicas;
    });
    const std::size_t full_run = first_cell([&](const CellResult& cell) {
        return cell.replicas == policy.max_replicas;
    });
    ASSERT_LT(late_stop, campaign->cells.size()) << render(*campaign);
    ASSERT_LT(full_run, campaign->cells.size()) << render(*campaign);

    // Batch cuts follow the queue's timing, so repeat the 4-worker run.
    for (const std::size_t workers : {2u, 3u, 4u, 4u, 4u, 4u, 4u}) {
        core::Session other(full_options(workers));
        CampaignEngine again(other, early_stop_config());
        EXPECT_EQ(render(*again.run()), render(*campaign)) << workers << " workers";
    }

    // Inside a pool task the engine's parallel_for runs its worker loops
    // one after another, so index 0 must finish the campaign alone.
    {
        core::Session other(full_options(4));
        CampaignEngine again(other, early_stop_config());
        std::string nested;
        other.pool().parallel_for(2, [&](std::size_t i) {
            if (i == 1) nested = render(*again.run());
        });
        EXPECT_EQ(nested, render(*campaign)) << "nested";
    }

    // Each cell alone replays its replicas exactly.
    for (const std::size_t c : {late_stop, full_run}) {
        const CampaignResult single = engine.run_cells({c});
        ASSERT_EQ(single.cells.size(), 1u);
        const CellResult& expected = campaign->cells[c];
        const CellResult& got = single.cells.front();
        EXPECT_EQ(got.replicas, expected.replicas) << expected.site_id();
        EXPECT_EQ(got.drop_pct, expected.drop_pct) << expected.site_id();
        EXPECT_EQ(got.accuracy_pct, expected.accuracy_pct) << expected.site_id();
        EXPECT_EQ(got.ci_halfwidth_pct, expected.ci_halfwidth_pct) << expected.site_id();
        EXPECT_EQ(got.early_stopped, expected.early_stopped) << expected.site_id();
        EXPECT_EQ(single.evaluations, 2 * expected.replicas) << expected.site_id();
    }
}

TEST(Campaign, SinkSeesEachCellOnceAndItsThrowAbortsTheRun) {
    // Train-under-fault cells close before the queue starts; the rest close
    // on pool workers.
    CampaignConfig config = early_stop_config();
    config.models.push_back(find_fault_model("driver_gain_drift"));
    const auto one_cell = [](const CellResult& cell, double baseline_pct) {
        return CampaignResult{baseline_pct, 0, 0, {cell}}.to_json();
    };
    for (const std::size_t workers : {1u, 4u}) {
        core::RunOptions options = tiny_options(workers);
        options.quick = false;
        core::Session session(options);
        CampaignEngine engine(session, config);
        std::vector<std::size_t> all(engine.plan_cells());
        for (std::size_t c = 0; c < all.size(); ++c) all[c] = c;

        // Every cell reaches the sink once, as it is returned. Calls that
        // overlapped would race on `seen`.
        std::vector<std::string> seen;
        const CampaignResult result =
            engine.run_cells(all, [&](const CellResult& cell, double baseline_pct) {
                seen.push_back(one_cell(cell, baseline_pct));
            });
        std::vector<std::string> returned;
        for (const CellResult& cell : result.cells)
            returned.push_back(one_cell(cell, result.baseline_accuracy_pct));
        std::sort(seen.begin(), seen.end());
        std::sort(returned.begin(), returned.end());
        EXPECT_EQ(seen, returned) << workers << " workers";

        // A sink that throws stops every worker and surfaces on the caller.
        EXPECT_THROW(engine.run_cells(all, [](const CellResult& cell, double) {
            if (!cell.trained) throw std::runtime_error("sink failed");
        }),
                     std::runtime_error)
            << workers << " workers";
    }
}

TEST(Campaign, EvaluationsCountCleanAndFaultyRuntimePasses) {
    core::Session session(tiny_options());
    CampaignEngine engine(session, tiny_config());
    const auto campaign = engine.run();
    // 2 replicas: per replica one clean pass, plus one faulty pass per
    // (cell, replica) — the batched engine must count them all.
    std::size_t cells = campaign->cells.size();
    EXPECT_EQ(campaign->evaluations, 2u + 2u * cells);
}

TEST(Catalog, RegistryFiScenariosAreTheCatalog) {
    core::ScenarioRegistry& registry = core::ScenarioRegistry::instance();
    for (const CampaignCatalogEntry& entry : campaign_catalog()) {
        const core::ScenarioSpec& spec = registry.find(entry.id);
        EXPECT_EQ(spec.title, entry.title) << entry.id;
        EXPECT_EQ(spec.description, entry.description) << entry.id;
        EXPECT_EQ(spec.tags, entry.tags) << entry.id;
        EXPECT_EQ(spec.paper_order, entry.paper_order) << entry.id;
        EXPECT_EQ(spec.notes, entry.notes) << entry.id;
    }
    // And no fi scenario lives outside the catalog.
    for (const core::ScenarioSpec* spec : registry.by_tag("fi"))
        EXPECT_NO_THROW((void)find_campaign_entry(spec->id)) << spec->id;
}

}  // namespace
}  // namespace snnfi::fi
