// Builtin `fi` scenario family: sampled fault-injection campaigns over the
// src/fi fault library, presented through the scenario registry so
// `build/run --experiment=fi --quick --json` (or any fi.* id) drives them.
//
// The campaign configurations themselves live in fi/catalog.hpp — shared
// with the shard runner (fi::run_shard, behind `run --shard`) so a sharded
// campaign plans bit-for-bit the same grid as the in-process scenario. This file only
// contributes the registry metadata (tags, notes, paper order) and the
// table presentation.
//
// All campaign scenarios share one Session-cached CampaignResult per
// distinct campaign config: fi.quick-sweep and fi.sensitivity are two views
// (detail table / per-layer sensitivity map) of the same execution.
#include <sstream>

#include "core/scenario.hpp"
#include "core/session.hpp"
#include "fi/campaign.hpp"
#include "fi/catalog.hpp"

namespace snnfi::core {

void link_fi_scenarios() {}

namespace {

using util::ResultTable;

/// Notes shared by every campaign table: workload + engine counters.
void add_campaign_notes(ResultTable& table, const fi::CampaignResult& campaign) {
    std::ostringstream os;
    os << "Baseline accuracy " << campaign.baseline_accuracy_pct
       << "% (trained once, shared through the Session cache).";
    table.add_note(os.str());
    os.str("");
    os << campaign.cells.size() << " grid cell(s): " << campaign.trainings
       << " train-under-fault run(s), " << campaign.evaluations
       << " batched runtime-replica inference pass(es).";
    table.add_note(os.str());
}

/// Runs the catalog campaign behind `id` (or returns the Session-cached
/// result) and presents its detail table.
ResultTable catalog_detail(Session& session, const std::string& id) {
    const fi::CampaignCatalogEntry& entry = fi::find_campaign_entry(id);
    fi::CampaignEngine engine(session, entry.build(session));
    const auto campaign = engine.run();
    ResultTable table = campaign->detail_table(entry.title);
    add_campaign_notes(table, *campaign);
    return table;
}

/// Registers one campaign-backed scenario whose table is the catalog
/// campaign's detail view.
ScenarioSpec campaign_spec(std::string id, std::string description,
                           std::vector<std::string> tags, int paper_order,
                           std::vector<std::string> notes = {}) {
    ScenarioSpec spec;
    spec.id = id;
    spec.title = fi::find_campaign_entry(id).title;
    spec.description = std::move(description);
    spec.tags = std::move(tags);
    spec.paper_order = paper_order;
    spec.notes = std::move(notes);
    spec.custom_run = [id = std::move(id)](Session& session, const RunOptions&) {
        return catalog_detail(session, id);
    };
    return spec;
}

ScenarioSpec sensitivity_spec() {
    ScenarioSpec spec;
    spec.id = "fi.sensitivity";
    spec.title = fi::find_campaign_entry("fi.sensitivity").title;
    spec.description = "Per-layer/per-footprint sensitivity + critical rates";
    spec.tags = {"fi"};
    spec.paper_order = 320;
    spec.custom_run = [](Session& session, const RunOptions&) {
        // Same campaign config as fi.quick-sweep: running both costs one
        // execution (the Session caches the CampaignResult).
        const fi::CampaignCatalogEntry& entry =
            fi::find_campaign_entry("fi.sensitivity");
        fi::CampaignEngine engine(session, entry.build(session));
        const auto campaign = engine.run();
        ResultTable table = campaign->sensitivity_map(entry.title);
        add_campaign_notes(table, *campaign);
        return table;
    };
    return spec;
}

const ScenarioRegistrar registrar_fi_smoke{campaign_spec(
    "fi.smoke", "Minimal FI campaign for CI", {"fi", "smoke"}, 300)};
const ScenarioRegistrar registrar_fi_quick_sweep{campaign_spec(
    "fi.quick-sweep", "Full fault library campaign", {"fi"}, 310,
    {"driver_gain_drift severities reproduce the fig7b (attack 1) grid; "
     "threshold_drift generalises attacks 2-4."})};
const ScenarioRegistrar registrar_fi_sensitivity{sensitivity_spec()};
const ScenarioRegistrar registrar_fi_weights{campaign_spec(
    "fi.weights", "Synaptic memory fault campaign", {"fi"}, 330)};
const ScenarioRegistrar registrar_fi_neurons{campaign_spec(
    "fi.neurons", "Behavioural neuron fault campaign", {"fi"}, 340)};
const ScenarioRegistrar registrar_fi_drift{campaign_spec(
    "fi.drift", "Paper attacks as drift fault models", {"fi", "attack"}, 350,
    {"Train-under-fault path: each cell retrains like the paper's "
     "scenarios; accuracy matches figs. 7b/8a/8b by construction."})};
const ScenarioRegistrar registrar_fi_drift_driver_gain{campaign_spec(
    "fi.drift.driver_gain", "Attack 1 as a campaign drift model",
    {"fi", "attack"}, 351,
    {"Severity grid and train-under-fault path are identical to "
     "fig7b, so the accuracy column reproduces attack 1 "
     "bit-for-bit (regression-tested)."})};
const ScenarioRegistrar registrar_fi_glitch_smoke{campaign_spec(
    "fi.glitch.smoke", "Minimal scheduled-glitch campaign for CI",
    {"fi", "glitch", "smoke"}, 360,
    {"Time-localised supply dip applied at inference through a "
     "scheduled overlay; severities are circuit-characterized."})};
const ScenarioRegistrar registrar_fi_glitch_depth{campaign_spec(
    "fi.glitch.depth", "Glitch depth (VDD) axis", {"fi", "glitch"}, 361,
    {"Depth axis reuses the paper's VDD grid; the per-depth "
     "threshold/driver severities come from the characterizer."})};
const ScenarioRegistrar registrar_fi_glitch_width{campaign_spec(
    "fi.glitch.width", "Glitch width axis", {"fi", "glitch"}, 362,
    {"The width-1 cell is the degenerate constant glitch: it "
     "routes through the static train-under-fault path (mode "
     "'train'), shorter widths are scheduled at inference."})};
const ScenarioRegistrar registrar_fi_glitch_onset{campaign_spec(
    "fi.glitch.onset", "Glitch onset axis", {"fi", "glitch"}, 363)};
const ScenarioRegistrar registrar_fi_glitch_shape{campaign_spec(
    "fi.glitch.shape", "Glitch waveform shape axis", {"fi", "glitch"}, 364)};
const ScenarioRegistrar registrar_fi_glitch_train_smoke{campaign_spec(
    "fi.glitch.train.smoke", "Minimal training-time glitch campaign for CI",
    {"fi", "glitch", "train", "smoke"}, 365,
    {"The dip lands on the middle half of the training pass; "
     "STDP runs under the scheduled fault, so the accuracy "
     "damage persists after the rail recovers."})};
const ScenarioRegistrar registrar_fi_glitch_train_depth{campaign_spec(
    "fi.glitch.train.depth", "Training-time glitch depth axis",
    {"fi", "glitch", "train"}, 366,
    {"Deeper dips corrupt the STDP updates harder: the "
     "accuracy drop is monotone in glitch depth (tested).",
     "Full runs replicate each training over independent data/init "
     "seed streams (train_replicas), so the drop column carries a "
     "95% CI; quick mode keeps the single fig7b-pinned training."})};
const ScenarioRegistrar registrar_fi_glitch_train_window{campaign_spec(
    "fi.glitch.train.window", "Training-time glitch sample-window axis",
    {"fi", "glitch", "train"}, 367,
    {"The full-pass window is the persistent-supply-fault "
     "limit; partial windows measure how much of the damage "
     "STDP repairs once the rail recovers."})};
const ScenarioRegistrar registrar_fi_glitch_footprint{campaign_spec(
    "fi.glitch.footprint", "Glitch spatial-coupling axis", {"fi", "glitch"}, 368,
    {"Whole-layer is the paper's uniform setting; fractional "
     "footprints compile to per-neuron threshold and driver "
     "ops on a seeded stratified neuron sample — and get their own "
     "strata in the sensitivity map's footprint column."})};
const ScenarioRegistrar registrar_fi_glitch_vamp{campaign_spec(
    "fi.glitch.vamp", "VampIF glitch characterisation preset",
    {"fi", "glitch"}, 369,
    {"Severities come from the VampIF preset: threshold dips "
     "track the VDD divider directly, unlike the AH inverter "
     "switching point."})};

}  // namespace
}  // namespace snnfi::core
