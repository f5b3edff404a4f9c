// Builtin `fi` scenario family: sampled fault-injection campaigns over the
// src/fi fault library, presented through the scenario registry so
// `build/run --experiment=fi --quick --json` (or any fi.* id) drives them.
//
// Every campaign scenario, its registry description included, is one entry
// of fi/catalog.hpp — shared with the shard runner (fi::run_shard, behind
// `run --shard`) so a sharded campaign plans bit-for-bit the same grid as
// the in-process scenario. This file registers each entry and presents the
// executed campaign as a table.
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

/// The registry spec of one catalog entry: runs its campaign (or takes the
/// Session-cached result) and presents the entry's view of it. Session::run
/// appends the entry's notes after the campaign notes.
ScenarioSpec campaign_spec(const fi::CampaignCatalogEntry& entry) {
    ScenarioSpec spec;
    spec.id = entry.id;
    spec.title = entry.title;
    spec.description = entry.description;
    spec.tags = entry.tags;
    spec.paper_order = entry.paper_order;
    spec.notes = entry.notes;
    // The catalog is a function-local static: the entry outlives the spec.
    spec.custom_run = [&entry](Session& session, const RunOptions&) {
        fi::CampaignEngine engine(session, entry.build(session));
        const auto campaign = engine.run();
        ResultTable table = entry.sensitivity_map
                                ? campaign->sensitivity_map(entry.title)
                                : campaign->detail_table(entry.title);
        add_campaign_notes(table, *campaign);
        return table;
    };
    return spec;
}

}  // namespace

/// Called once, when the registry loads its builtins.
void link_fi_scenarios() {
    for (const fi::CampaignCatalogEntry& entry : fi::campaign_catalog())
        ScenarioRegistry::instance().add(campaign_spec(entry));
}

}  // namespace snnfi::core
