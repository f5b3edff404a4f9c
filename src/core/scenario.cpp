#include "core/scenario.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace snnfi::core {

// Defined in the builtin scenario translation units: each registers its
// family's specs (the fi one, one spec per fi/catalog.hpp entry).
void link_circuit_scenarios();
void link_attack_scenarios();
void link_defense_scenarios();
void link_fi_scenarios();

std::size_t AxisSpec::grid_size(bool quick) const {
    if (axis == FaultAxis::kLayer) return layers.size();
    return grid(quick).size();
}

const std::vector<double>& AxisSpec::grid(bool quick) const {
    return quick && !quick_values.empty() ? quick_values : values;
}

std::string AxisSpec::column_label() const {
    if (!column.empty()) return column;
    switch (axis) {
        case FaultAxis::kDriverGain: return "theta_change_pct";
        case FaultAxis::kThresholdDelta: return "threshold_change_pct";
        case FaultAxis::kVdd: return "vdd_V";
        case FaultAxis::kFraction: return "fraction_pct";
        case FaultAxis::kLayer: return "layer";
    }
    return "value";
}

bool ScenarioSpec::has_tag(const std::string& tag) const {
    return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

std::string RunResult::to_json() const {
    std::ostringstream os;
    os << "{\"id\":\"" << util::json_escape(id) << "\",\"title\":\""
       << util::json_escape(title) << "\",\"tags\":[";
    for (std::size_t t = 0; t < tags.size(); ++t) {
        if (t) os << ",";
        os << "\"" << util::json_escape(tags[t]) << "\"";
    }
    os << "],\"seconds\":" << util::json_number(seconds)
       << ",\"setup_seconds\":" << util::json_number(setup_seconds)
       << ",\"run_seconds\":" << util::json_number(run_seconds)
       << ",\"cache_hits\":" << cache_hits << ",\"cache_misses\":" << cache_misses
       << ",\"table\":" << table.to_json() << "}";
    return os.str();
}

ScenarioRegistry& ScenarioRegistry::instance() {
    static ScenarioRegistry registry;
    return registry;
}

void ScenarioRegistry::add(ScenarioSpec spec) {
    ensure_builtins();
    if (spec.id.empty())
        throw std::invalid_argument("ScenarioRegistry: spec with empty id");
    if (!spec.declarative() && !spec.custom_run)
        throw std::invalid_argument("ScenarioRegistry: spec '" + spec.id +
                                    "' has neither axes nor a custom body");
    for (const auto& existing : specs_) {
        if (existing.id == spec.id)
            throw std::invalid_argument("ScenarioRegistry: duplicate id: " + spec.id);
    }
    specs_.push_back(std::move(spec));
}

void ScenarioRegistry::ensure_builtins() {
    if (builtins_loaded_) return;
    // Set first: the link functions register through add().
    builtins_loaded_ = true;
    link_circuit_scenarios();
    link_attack_scenarios();
    link_defense_scenarios();
    link_fi_scenarios();
    sort_specs();
}

void ScenarioRegistry::sort_specs() {
    // Runs once, before any reference to a spec has been handed out
    // (every accessor calls ensure_builtins first). Later add()s append
    // without re-sorting so existing references stay valid.
    std::stable_sort(specs_.begin(), specs_.end(),
                     [](const ScenarioSpec& a, const ScenarioSpec& b) {
                         if (a.paper_order != b.paper_order)
                             return a.paper_order < b.paper_order;
                         return a.id < b.id;
                     });
}

const std::deque<ScenarioSpec>& ScenarioRegistry::all() {
    ensure_builtins();
    return specs_;
}

const ScenarioSpec& ScenarioRegistry::find(const std::string& id) {
    for (const auto& spec : all()) {
        if (spec.id == id) return spec;
    }
    throw std::invalid_argument("unknown experiment id: " + id);
}

std::vector<const ScenarioSpec*> ScenarioRegistry::by_tag(const std::string& tag) {
    std::vector<const ScenarioSpec*> matches;
    for (const auto& spec : all()) {
        if (spec.has_tag(tag)) matches.push_back(&spec);
    }
    return matches;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::select(const std::string& selector) {
    const auto& specs = all();
    std::set<const ScenarioSpec*> chosen;
    std::istringstream tokens(selector);
    std::string token;
    while (std::getline(tokens, token, ',')) {
        if (token.empty()) continue;
        if (token == "all") {
            for (const auto& spec : specs) chosen.insert(&spec);
            continue;
        }
        bool matched = false;
        for (const auto& spec : specs) {
            if (spec.id == token || spec.has_tag(token)) {
                chosen.insert(&spec);
                matched = true;
            }
        }
        if (!matched)
            throw std::invalid_argument("unknown experiment id or tag: " + token);
    }
    std::vector<const ScenarioSpec*> selection;
    for (const auto& spec : specs) {
        if (chosen.count(&spec)) selection.push_back(&spec);
    }
    return selection;
}

std::vector<std::string> ScenarioRegistry::tag_names() {
    std::set<std::string> names;
    for (const auto& spec : all())
        names.insert(spec.tags.begin(), spec.tags.end());
    return {names.begin(), names.end()};
}

const std::vector<double>& paper_vdd_grid(bool quick) {
    static const std::vector<double> full = {0.8, 0.9, 1.0, 1.1, 1.2};
    static const std::vector<double> coarse = {0.8, 1.0, 1.2};
    return quick ? coarse : full;
}

}  // namespace snnfi::core
