// Golden gate: every quick-registry table, pinned by digest.
//
// Regenerates tests/golden/quick_registry.json in-process — one Session,
// every registered scenario in quick mode — and fails on any difference.
// Each line holds one experiment id, the FNV-1a digest of its table's
// canonical JSON (ResultTable::to_json, full-precision numbers), the row
// count and the first row in plain text, so a diff of the file shows
// which tables moved.
//
// On failure the regenerated file is written into the build tree and the
// differing ids are named. A deliberate re-pin copies that file over the
// checked-in one and adds a CHANGES.md line saying why. The suite runs at
// the default thread count and (in CI) again at SNNFI_THREADS=1, so the
// same file also pins determinism across pool sizes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/session.hpp"
#include "store/hash.hpp"
#include "util/table.hpp"

namespace snnfi {
namespace {

/// The table's first data row, cells joined by " | " in the table's own
/// print precision (read back through its CSV rendering).
std::string first_row_text(const util::ResultTable& table) {
    const auto records = util::parse_csv(table.to_csv());
    if (records.size() < 2) return "";
    std::string text;
    for (std::size_t c = 0; c < records[1].size(); ++c) {
        if (c) text += " | ";
        text += records[1][c];
    }
    return text;
}

std::string golden_line(const core::RunResult& result) {
    std::ostringstream line;
    line << "{\"id\":\"" << util::json_escape(result.id) << "\",\"digest\":\""
         << store::to_hex(store::fnv1a64(result.table.to_json()))
         << "\",\"rows\":" << result.table.num_rows() << ",\"first_row\":\""
         << util::json_escape(first_row_text(result.table)) << "\"}";
    return line.str();
}

/// id -> line (trailing comma dropped) for every entry line of a file.
std::map<std::string, std::string> entries(const std::vector<std::string>& lines) {
    const std::string key = "{\"id\":\"";
    std::map<std::string, std::string> by_id;
    for (std::string line : lines) {
        if (line.rfind(key, 0) != 0) continue;
        if (line.back() == ',') line.pop_back();
        by_id[line.substr(key.size(), line.find('"', key.size()) - key.size())] = line;
    }
    return by_id;
}

TEST(Golden, QuickRegistryTablesMatchCheckedInDigests) {
    core::RunOptions options;
    options.quick = true;
    core::Session session(options);
    std::vector<std::string> regenerated{"["};
    const auto& specs = core::ScenarioRegistry::instance().all();
    for (std::size_t s = 0; s < specs.size(); ++s)
        regenerated.push_back(golden_line(session.run(specs[s])) +
                              (s + 1 < specs.size() ? "," : ""));
    regenerated.push_back("]");

    std::ifstream in(SNNFI_GOLDEN_FILE);
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);) golden.push_back(line);
    if (golden == regenerated) return;

    const auto want = entries(golden);
    const auto got = entries(regenerated);
    std::string ids;
    for (const auto& [id, line] : want)
        if (!got.contains(id) || got.at(id) != line) ids += " " + id;
    for (const auto& [id, line] : got)
        if (!want.contains(id)) ids += " " + id;
    std::filesystem::create_directories(
        std::filesystem::path(SNNFI_GOLDEN_OUT).parent_path());
    std::ofstream out(SNNFI_GOLDEN_OUT);
    for (const std::string& line : regenerated) out << line << "\n";
    ADD_FAILURE() << "golden tables differ:"
                  << (ids.empty() ? " (file layout only)" : ids)
                  << "\nregenerated file: " << SNNFI_GOLDEN_OUT
                  << "\nchecked-in file: " << SNNFI_GOLDEN_FILE;
}

}  // namespace
}  // namespace snnfi
