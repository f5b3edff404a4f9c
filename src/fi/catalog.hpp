// Campaign catalog: the single source of campaign configurations shared by
// the scenario registry (core/scenarios_fi.cpp) and the shard runner
// (fi::run_shard, which `run --shard` drives).
//
// Sharded campaigns (fi/shard.hpp) only work if every process plans the
// *same* campaign: the process that executes shard 3 of "fi.quick-sweep"
// must build bit-for-bit the CampaignConfig that `run --experiment=
// fi.quick-sweep` builds, or the cell indices (and the session cache keys)
// stop lining up. Keeping the builders here — addressed by scenario id —
// makes that a lookup instead of a convention.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fi/campaign.hpp"

namespace snnfi::core {
class Session;
}

namespace snnfi::fi {

/// One campaign-backed scenario: its id, its table title, and the builder
/// producing the campaign configuration. Builders may consult the session
/// (quick flag, cached glitch characterisations) but not mutate it beyond
/// the artifact caches.
struct CampaignCatalogEntry {
    std::string id;     ///< scenario id, e.g. "fi.glitch.depth"
    std::string title;  ///< detail-table title
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
