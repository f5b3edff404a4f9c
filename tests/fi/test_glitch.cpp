// Glitch campaign cells: the degenerate constant profile must reproduce
// the static VddCalibration-driven campaign bit-for-bit (fig7b / attack 5
// equivalence), and time-localised profiles must run end-to-end through
// the scheduled-overlay inference path, deterministically for any worker
// count.
#include "fi/campaign.hpp"

#include <gtest/gtest.h>

#include "core/session.hpp"

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

/// A hand-built time-localised profile (mid-sample dip at the paper's
/// 0.8 V operating point) — no circuit simulation needed.
attack::GlitchProfile mid_sample_dip() {
    return attack::GlitchProfile({{0.25, 0.5, -0.1791, 0.68}});
}

CampaignConfig glitch_config(std::vector<GlitchCellSpec> cells) {
    CampaignConfig config;
    config.glitches = std::move(cells);
    config.eval_samples = 20;
    config.early_stop = {.min_replicas = 2, .max_replicas = 2};
    return config;
}

TEST(GlitchCampaign, ConstantProfileReproducesFig7bBitForBit) {
    core::Session session(tiny_options());

    // The paper scenario (fig7b, quick grid: theta -20% / +20%)...
    const core::RunResult fig7b = session.run("fig7b");
    ASSERT_EQ(fig7b.table.num_rows(), 2u);

    // ...and the same two operating points as degenerate constant glitch
    // profiles (threshold untouched, driver gain 1 + delta).
    std::vector<GlitchCellSpec> cells;
    for (const double delta : {-0.2, 0.2}) {
        GlitchCellSpec cell;
        cell.id = "const_theta" + std::to_string(delta);
        cell.profile = attack::GlitchProfile::constant(0.0, 1.0 + delta);
        cell.severity = delta;
        cells.push_back(cell);
    }
    CampaignEngine engine(session, glitch_config(std::move(cells)));
    const auto campaign = engine.run();
    ASSERT_EQ(campaign->cells.size(), 2u);

    for (std::size_t row = 0; row < 2; ++row) {
        const CellResult& cell = campaign->cells[row];
        // Constant profiles collapse onto the train-under-fault path...
        EXPECT_TRUE(cell.trained);
        EXPECT_FALSE(cell.scheduled);
        // ...and the accuracy is attack 1's, bit for bit (same cached
        // suite, same FaultSpec).
        EXPECT_DOUBLE_EQ(cell.accuracy_pct, fig7b.table.number_at(row, 1));
    }
    EXPECT_EQ(campaign->trainings, 2u);
}

TEST(GlitchCampaign, ConstantProfileFromCalibrationMatchesAttack5Point) {
    core::Session session(tiny_options());
    const attack::VddCalibration calibration =
        attack::VddCalibration::paper_reference();

    GlitchCellSpec cell;
    cell.id = "const_vdd0.8";
    cell.profile = attack::GlitchProfile::constant_from(calibration, 0.8);
    cell.severity = 0.8;
    CampaignEngine engine(session, glitch_config({cell}));
    const auto campaign = engine.run();
    ASSERT_EQ(campaign->cells.size(), 1u);
    EXPECT_TRUE(campaign->cells[0].trained);

    // The equivalent static attack-5 fault through the same cached suite.
    const attack::FaultSpec spec = cell.profile.to_fault_spec();
    EXPECT_EQ(spec.layer, attack::TargetLayer::kBoth);
    const auto outcomes = session.attack_suite()->run_many({spec});
    EXPECT_DOUBLE_EQ(campaign->cells[0].accuracy_pct, outcomes[0].accuracy * 100.0);
}

TEST(GlitchCampaign, ScheduledCellsRunThroughTheBatchedInferencePath) {
    core::Session session(tiny_options());
    GlitchCellSpec cell;
    cell.id = "rect_mid_dip";
    cell.profile = mid_sample_dip();
    cell.severity = 0.8;
    CampaignEngine engine(session, glitch_config({cell}));
    const auto campaign = engine.run();

    ASSERT_EQ(campaign->cells.size(), 1u);
    const CellResult& result = campaign->cells[0];
    EXPECT_FALSE(result.trained);
    EXPECT_TRUE(result.scheduled);
    EXPECT_EQ(result.site_id(), "rect_mid_dip");
    EXPECT_EQ(result.replicas, 2u);
    EXPECT_GE(result.accuracy_pct, 0.0);
    EXPECT_LE(result.accuracy_pct, 100.0);
    // 2 clean replica passes + 2 faulty (cell x replica) passes.
    EXPECT_EQ(campaign->evaluations, 4u);
    EXPECT_EQ(campaign->trainings, 0u);
    // Rendered mode marks the scheduled path.
    const std::string csv = campaign->detail_table("glitch").to_csv();
    EXPECT_NE(csv.find("sched"), std::string::npos);
}

TEST(GlitchCampaign, MixedConstantAndScheduledCellsCoexist) {
    core::Session session(tiny_options());
    GlitchCellSpec constant;
    constant.id = "const";
    constant.profile = attack::GlitchProfile::constant(0.0, 0.8);
    GlitchCellSpec scheduled;
    scheduled.id = "dip";
    scheduled.profile = mid_sample_dip();
    CampaignEngine engine(session, glitch_config({constant, scheduled}));
    const auto campaign = engine.run();
    ASSERT_EQ(campaign->cells.size(), 2u);
    EXPECT_TRUE(campaign->cells[0].trained);
    EXPECT_TRUE(campaign->cells[1].scheduled);
    // A milder mid-sample dip should never be (meaningfully) worse than
    // the full-run corruption of the same operating point; both report
    // sane percentages.
    for (const CellResult& cell : campaign->cells) {
        EXPECT_GE(cell.accuracy_pct, 0.0);
        EXPECT_LE(cell.accuracy_pct, 100.0);
    }
}

TEST(GlitchCampaign, DeterministicAcrossWorkerCounts) {
    const auto render = [&](std::size_t workers) {
        core::Session session(tiny_options(workers));
        GlitchCellSpec cell;
        cell.id = "dip";
        cell.profile = mid_sample_dip();
        CampaignEngine engine(session, glitch_config({cell}));
        return engine.run()->detail_table("glitch").to_csv();
    };
    EXPECT_EQ(render(1), render(4));
}

TEST(GlitchCampaign, CacheKeyDistinguishesProfiles) {
    core::Session session(tiny_options());
    GlitchCellSpec a;
    a.id = "dip";
    a.profile = mid_sample_dip();
    CampaignEngine first(session, glitch_config({a}));
    const auto result_a = first.run();

    GlitchCellSpec b = a;  // same id, different waveform
    b.profile = attack::GlitchProfile({{0.5, 0.75, -0.1791, 0.68}});
    CampaignEngine second(session, glitch_config({b}));
    const auto result_b = second.run();
    EXPECT_NE(result_a.get(), result_b.get());

    // Identical config is a pure cache hit.
    CampaignEngine third(session, glitch_config({a}));
    EXPECT_EQ(third.run().get(), result_a.get());
}

// --- training-time glitch cells ------------------------------------------

TEST(GlitchCampaign, TrainModeConstantProfileReproducesFig7bBitForBit) {
    core::Session session(tiny_options());

    // The paper scenario (fig7b, quick grid: theta -20% / +20%)...
    const core::RunResult fig7b = session.run("fig7b");
    ASSERT_EQ(fig7b.table.num_rows(), 2u);

    // ...and the same operating points as TRAIN-MODE glitch cells over the
    // full pass: the compiled full-range constant schedule must run the
    // exact static train-under-fault training, bit for bit (the fig7b pin
    // of the scheduled training path).
    std::vector<GlitchCellSpec> cells;
    for (const double delta : {-0.2, 0.2}) {
        GlitchCellSpec cell;
        cell.id = "train_theta" + std::to_string(delta);
        cell.profile = attack::GlitchProfile::constant(0.0, 1.0 + delta);
        cell.severity = delta;
        cell.train = true;
        cells.push_back(cell);
    }
    CampaignEngine engine(session, glitch_config(std::move(cells)));
    const auto campaign = engine.run();
    ASSERT_EQ(campaign->cells.size(), 2u);

    for (std::size_t row = 0; row < 2; ++row) {
        const CellResult& cell = campaign->cells[row];
        EXPECT_TRUE(cell.trained);
        EXPECT_TRUE(cell.scheduled);
        EXPECT_EQ(cell.replicas, 1u);
        EXPECT_DOUBLE_EQ(cell.accuracy_pct, fig7b.table.number_at(row, 1));
    }
    EXPECT_EQ(campaign->trainings, 2u);
    // Rendered mode marks the scheduled-training path.
    const std::string csv = campaign->detail_table("glitch").to_csv();
    EXPECT_NE(csv.find("train+sched"), std::string::npos);
}

TEST(GlitchCampaign, TrainModeMidEpochDropMonotoneInGlitchDepth) {
    core::Session session(tiny_options());
    // A mild and a deep dip over the same mid-epoch window: the deeper
    // glitch corrupts the STDP updates harder, so its accuracy drop
    // dominates (the acceptance property of the train-time pipeline).
    const auto cell_for = [](double threshold_delta, double gain,
                             const std::string& id) {
        GlitchCellSpec cell;
        cell.id = id;
        cell.profile = attack::GlitchProfile({{0.25, 0.75, threshold_delta, gain}});
        cell.train = true;
        cell.train_begin = 0.25;
        cell.train_end = 0.75;
        return cell;
    };
    CampaignEngine engine(
        session, glitch_config({cell_for(-0.02, 0.95, "mild"),
                                cell_for(-0.35, 0.40, "deep")}));
    const auto campaign = engine.run();
    ASSERT_EQ(campaign->cells.size(), 2u);
    const CellResult& mild = campaign->cells[0];
    const CellResult& deep = campaign->cells[1];
    EXPECT_TRUE(mild.trained && mild.scheduled);
    EXPECT_TRUE(deep.trained && deep.scheduled);
    EXPECT_GE(deep.drop_pct, mild.drop_pct);
}

TEST(GlitchCampaign, TrainWindowChangesTheOutcome) {
    core::Session session(tiny_options());
    const auto windowed = [](double begin, double end, const std::string& id) {
        GlitchCellSpec cell;
        cell.id = id;
        cell.profile = mid_sample_dip();
        cell.train = true;
        cell.train_begin = begin;
        cell.train_end = end;
        return cell;
    };
    CampaignEngine engine(session,
                          glitch_config({windowed(0.0, 0.5, "early"),
                                         windowed(0.5, 1.0, "late")}));
    const auto campaign = engine.run();
    ASSERT_EQ(campaign->cells.size(), 2u);
    // Different training windows are different experiments: the campaign
    // cache key must keep them apart (both ran, with their own numbers).
    EXPECT_EQ(campaign->trainings, 2u);
    for (const CellResult& cell : campaign->cells) {
        EXPECT_GE(cell.accuracy_pct, 0.0);
        EXPECT_LE(cell.accuracy_pct, 100.0);
    }
}

// --- per-neuron footprints ------------------------------------------------

TEST(GlitchCampaign, FootprintCellsRunScheduledAndDifferFromWholeLayer) {
    core::Session session(tiny_options());
    GlitchCellSpec whole;
    whole.id = "dip_whole";
    whole.profile = mid_sample_dip();
    GlitchCellSpec half = whole;
    half.id = "dip_half";
    half.footprint = attack::GlitchFootprint::stratified(0.5, 17);

    // The two cells really compile to different fault programs: the
    // whole-layer cell keeps the uniform network-wide gain, the
    // half-footprint cell carries per-neuron ops on half the neurons.
    snn::DiehlCookConfig config;
    config.n_neurons = 16;
    const attack::GlitchCompiler compiler(config);
    const auto uniform = compiler.compile(whole.profile, whole.footprint);
    const auto fractional = compiler.compile(half.profile, half.footprint);
    ASSERT_EQ(uniform.size(), 1u);
    ASSERT_EQ(fractional.size(), 1u);
    EXPECT_TRUE(uniform[0].overlay.has_driver_gain());
    EXPECT_FALSE(fractional[0].overlay.has_driver_gain());
    EXPECT_NE(uniform[0].overlay.neuron_ops().size(),
              fractional[0].overlay.neuron_ops().size());

    CampaignEngine engine(session, glitch_config({whole, half}));
    const auto campaign = engine.run();
    ASSERT_EQ(campaign->cells.size(), 2u);
    EXPECT_TRUE(campaign->cells[0].scheduled);
    EXPECT_TRUE(campaign->cells[1].scheduled);
    EXPECT_EQ(campaign->cells[0].site_id(), "dip_whole");
    EXPECT_EQ(campaign->cells[1].site_id(), "dip_half");
    for (const CellResult& cell : campaign->cells) {
        EXPECT_GE(cell.accuracy_pct, 0.0);
        EXPECT_LE(cell.accuracy_pct, 100.0);
    }
}

TEST(GlitchCampaign, ConstantProfileWithFootprintStaysScheduled) {
    core::Session session(tiny_options());
    // A constant profile normally collapses onto the static
    // train-under-fault path — but a fractional footprint has no static
    // FaultSpec form, so it must stay on the scheduled path.
    GlitchCellSpec cell;
    cell.id = "const_frac";
    cell.profile = attack::GlitchProfile::constant(0.0, 0.8);
    cell.footprint = attack::GlitchFootprint::stratified(0.5, 3);
    CampaignEngine engine(session, glitch_config({cell}));
    const auto campaign = engine.run();
    ASSERT_EQ(campaign->cells.size(), 1u);
    EXPECT_FALSE(campaign->cells[0].trained);
    EXPECT_TRUE(campaign->cells[0].scheduled);
}

TEST(GlitchCampaign, CacheKeyDistinguishesFootprintsAndTrainWindows) {
    core::Session session(tiny_options());
    GlitchCellSpec cell;
    cell.id = "dip";
    cell.profile = mid_sample_dip();
    CampaignEngine first(session, glitch_config({cell}));
    const auto base = first.run();

    GlitchCellSpec footprinted = cell;
    footprinted.footprint = attack::GlitchFootprint::stratified(0.25, 11);
    CampaignEngine second(session, glitch_config({footprinted}));
    EXPECT_NE(second.run().get(), base.get());

    GlitchCellSpec trained = cell;
    trained.train = true;
    trained.train_begin = 0.25;
    trained.train_end = 0.75;
    CampaignEngine third(session, glitch_config({trained}));
    EXPECT_NE(third.run().get(), base.get());
}

}  // namespace
}  // namespace snnfi::fi
