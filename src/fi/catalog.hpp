// Campaign catalog: the one list of campaign-backed fi.* scenarios. Each
// entry holds the scenario's registry description (the scenario registry
// registers every entry, core/scenarios_fi.cpp) and the builder of its
// campaign configuration, shared with the shard runner (fi::run_shard,
// which `run --shard` drives).
//
// Sharded campaigns (fi/shard.hpp) only work if every process plans the
// *same* campaign: the process that executes shard 3 of "fi.quick-sweep"
// must build bit-for-bit the CampaignConfig that `run --experiment=
// fi.quick-sweep` builds, or the cell indices (and the session cache keys)
// stop lining up. Keeping the builders here — addressed by scenario id —
// makes that a lookup instead of a convention, and a campaign cannot be
// added to the registry without its builder, or the other way round.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fi/campaign.hpp"

namespace snnfi::core {
class Session;
}

namespace snnfi::fi {

/// One campaign-backed scenario: its registry description and the builder
/// producing the campaign configuration. Builders may consult the session
/// (quick flag, cached glitch characterisations) but not mutate it beyond
/// the artifact caches.
struct CampaignCatalogEntry {
    std::string id;           ///< scenario id, e.g. "fi.glitch.depth"
    std::string title;        ///< table title
    std::string description;  ///< one line for `run --list`
    std::vector<std::string> tags;
    int paper_order = 0;               ///< registry ordering
    std::vector<std::string> notes{};  ///< table notes after the campaign notes
    /// Presents the per-layer sensitivity map instead of the detail table.
    bool sensitivity_map = false;
    std::function<CampaignConfig(core::Session&)> build;
};

/// Every campaign-backed fi.* scenario, in registry (paper) order.
/// fi.sensitivity intentionally builds the same configuration as
/// fi.quick-sweep — the two scenarios are two views of one cached
/// execution.
const std::vector<CampaignCatalogEntry>& campaign_catalog();

/// Lookup by scenario id; throws std::invalid_argument on an unknown id.
const CampaignCatalogEntry& find_campaign_entry(const std::string& id);

}  // namespace snnfi::fi
