#include "fi/shard.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/session.hpp"
#include "fi/catalog.hpp"
#include "obs/heartbeat.hpp"
#include "util/file.hpp"
#include "util/table.hpp"

namespace snnfi::fi {

namespace fs = std::filesystem;

namespace {

std::string bool_json(bool value) { return value ? "true" : "false"; }

}  // namespace

// ----------------------------------------------------------------- manifest

std::string CampaignManifest::to_json() const {
    std::ostringstream os;
    os << "{\"scenario\":\"" << util::json_escape(scenario)
       << "\",\"shards\":" << shards << ",\"cells\":" << cells
       << ",\"quick\":" << bool_json(quick) << ",\"campaign_key\":\""
       << util::json_escape(campaign_key) << "\"}";
    return os.str();
}

CampaignManifest CampaignManifest::from_json(const std::string& text) {
    CampaignManifest manifest;
    const auto scenario = util::json_get_string(text, "scenario");
    const auto shards = util::json_get_size(text, "shards");
    const auto cells = util::json_get_size(text, "cells");
    const auto quick = util::json_get_bool(text, "quick");
    const auto key = util::json_get_string(text, "campaign_key");
    if (!scenario || !shards || !cells || !quick || !key)
        throw std::runtime_error("malformed campaign manifest");
    manifest.scenario = *scenario;
    manifest.shards = *shards;
    manifest.cells = *cells;
    manifest.quick = *quick;
    manifest.campaign_key = *key;
    return manifest;
}

void write_manifest(const fs::path& dir, const CampaignManifest& manifest) {
    fs::create_directories(dir);
    const fs::path path = dir / "manifest.json";
    if (fs::exists(path)) {
        const CampaignManifest existing = read_manifest(dir);
        if (existing.to_json() != manifest.to_json())
            throw std::runtime_error(
                "campaign dir " + dir.string() +
                " already holds a different campaign: " + existing.to_json());
        return;
    }
    if (!util::publish_file(path, {manifest.to_json()}))
        throw std::runtime_error("cannot write " + path.string());
}

CampaignManifest read_manifest(const fs::path& dir) {
    std::ifstream in(dir / "manifest.json", std::ios::binary);
    if (!in)
        throw std::runtime_error("no manifest.json in " + dir.string());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return CampaignManifest::from_json(buffer.str());
}

// ------------------------------------------------------------- partitioning

std::vector<std::size_t> shard_cells(std::size_t total_cells,
                                     std::size_t shard_count,
                                     std::size_t shard_index) {
    if (shard_count == 0)
        throw std::invalid_argument("shard_cells: zero shard count");
    if (shard_index >= shard_count)
        throw std::invalid_argument("shard_cells: shard index out of range");
    std::vector<std::size_t> cells;
    for (std::size_t c = shard_index; c < total_cells; c += shard_count)
        cells.push_back(c);
    return cells;
}

// --------------------------------------------------------------- JSONL I/O

std::string cell_to_jsonl(const CellResult& cell, double baseline_pct) {
    std::ostringstream os;
    os << "{\"plan_index\":" << cell.plan_index << ",\"model\":\""
       << util::json_escape(cell.model) << "\",\"site_kind\":"
       << static_cast<int>(cell.site.kind)
       << ",\"site_layer\":" << static_cast<int>(cell.site.layer)
       << ",\"site_neuron\":" << cell.site.neuron
       << ",\"site_pre\":" << cell.site.pre << ",\"site_post\":" << cell.site.post
       << ",\"label\":\"" << util::json_escape(cell.label) << "\",\"footprint\":\""
       << util::json_escape(cell.footprint)
       << "\",\"severity\":" << util::json_number(cell.severity)
       << ",\"replicas\":" << cell.replicas
       << ",\"accuracy_pct\":" << util::json_number(cell.accuracy_pct)
       << ",\"drop_pct\":" << util::json_number(cell.drop_pct)
       << ",\"ci_halfwidth_pct\":" << util::json_number(cell.ci_halfwidth_pct)
       << ",\"critical\":" << bool_json(cell.critical)
       << ",\"early_stopped\":" << bool_json(cell.early_stopped)
       << ",\"trained\":" << bool_json(cell.trained)
       << ",\"scheduled\":" << bool_json(cell.scheduled)
       << ",\"baseline_accuracy_pct\":" << util::json_number(baseline_pct) << "}";
    return os.str();
}

std::optional<ShardCellRecord> cell_from_jsonl(const std::string& line) {
    if (line.empty() || line.front() != '{' || line.back() != '}')
        return std::nullopt;
    const auto plan_index = util::json_get_size(line, "plan_index");
    const auto model = util::json_get_string(line, "model");
    const auto site_kind = util::json_get_size(line, "site_kind");
    const auto site_layer = util::json_get_size(line, "site_layer");
    const auto site_neuron = util::json_get_size(line, "site_neuron");
    const auto site_pre = util::json_get_size(line, "site_pre");
    const auto site_post = util::json_get_size(line, "site_post");
    const auto label = util::json_get_string(line, "label");
    const auto footprint = util::json_get_string(line, "footprint");
    const auto severity = util::json_get_double(line, "severity");
    const auto replicas = util::json_get_size(line, "replicas");
    const auto accuracy = util::json_get_double(line, "accuracy_pct");
    const auto drop = util::json_get_double(line, "drop_pct");
    const auto ci = util::json_get_double(line, "ci_halfwidth_pct");
    const auto critical = util::json_get_bool(line, "critical");
    const auto early_stopped = util::json_get_bool(line, "early_stopped");
    const auto trained = util::json_get_bool(line, "trained");
    const auto scheduled = util::json_get_bool(line, "scheduled");
    const auto baseline = util::json_get_double(line, "baseline_accuracy_pct");
    if (!plan_index || !model || !site_kind || !site_layer || !site_neuron ||
        !site_pre || !site_post || !label || !footprint || !severity ||
        !replicas || !accuracy || !drop || !ci || !critical || !early_stopped ||
        !trained || !scheduled || !baseline)
        return std::nullopt;
    if (*site_kind > static_cast<std::size_t>(SiteKind::kParameter) ||
        *site_layer > static_cast<std::size_t>(attack::TargetLayer::kBoth))
        return std::nullopt;

    ShardCellRecord record;
    CellResult& cell = record.cell;
    cell.plan_index = *plan_index;
    cell.model = *model;
    cell.site.kind = static_cast<SiteKind>(*site_kind);
    cell.site.layer = static_cast<attack::TargetLayer>(*site_layer);
    cell.site.neuron = *site_neuron;
    cell.site.pre = *site_pre;
    cell.site.post = *site_post;
    cell.label = *label;
    cell.footprint = *footprint;
    cell.severity = *severity;
    cell.replicas = *replicas;
    cell.accuracy_pct = *accuracy;
    cell.drop_pct = *drop;
    cell.ci_halfwidth_pct = *ci;
    cell.critical = *critical;
    cell.early_stopped = *early_stopped;
    cell.trained = *trained;
    cell.scheduled = *scheduled;
    record.baseline_pct = *baseline;
    return record;
}

fs::path shard_file(const fs::path& dir, std::size_t index) {
    std::ostringstream name;
    name << "shard-" << index << ".jsonl";
    return dir / name.str();
}

namespace {

/// A shard file read back: every parseable line in order, up to the first
/// malformed one (the record a killed worker left torn, or one a live
/// worker is still appending), which is dropped with anything after it.
/// Reading never writes: only run_shard, which owns the file, repairs it.
struct ShardFile {
    std::vector<ShardCellRecord> records;
    std::string valid_prefix;  ///< the parsed lines, newline-terminated
    bool torn = false;         ///< a malformed line was dropped
};

ShardFile read_shard_file(const fs::path& path) {
    ShardFile file;
    std::ifstream in(path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        const auto record = cell_from_jsonl(line);
        if (!record) {
            file.torn = true;
            break;
        }
        file.records.push_back(*record);
        file.valid_prefix += line;
        file.valid_prefix += '\n';
    }
    return file;
}

}  // namespace

// ------------------------------------------------------------ shard worker

std::size_t run_shard(core::Session& session, const std::string& scenario,
                      const fs::path& dir, std::size_t shard_index,
                      std::size_t shard_count) {
    const CampaignCatalogEntry& entry = find_campaign_entry(scenario);
    CampaignEngine engine(session, entry.build(session));

    CampaignManifest manifest;
    manifest.scenario = scenario;
    manifest.shards = shard_count;
    manifest.cells = engine.plan_cells();
    manifest.quick = session.options().quick;
    manifest.campaign_key = engine.config().cache_key();
    write_manifest(dir, manifest);  // validates any existing manifest

    const std::vector<std::size_t> mine =
        shard_cells(manifest.cells, shard_count, shard_index);

    const fs::path path = shard_file(dir, shard_index);
    const ShardFile file = read_shard_file(path);
    // Drop a torn tail before appending, so the next record starts a line.
    if (file.torn && !util::publish_file(path, {file.valid_prefix}))
        throw std::runtime_error("cannot repair " + path.string());
    std::vector<char> done(manifest.cells, 0);
    for (const ShardCellRecord& record : file.records) {
        if (record.cell.plan_index < manifest.cells)
            done[record.cell.plan_index] = 1;
    }
    std::vector<std::size_t> todo;
    for (const std::size_t c : mine) {
        if (!done[c]) todo.push_back(c);
    }

    // Heartbeats ride along unconditionally (they are how the progress
    // table sees this worker) but stay best-effort observability: the
    // JSONL checkpoints remain the only merged state. A resume adopts the
    // previous heartbeat's EWMA rate and cadence so the rate estimate
    // survives worker restarts.
    obs::Heartbeat beat;
    beat.shard = shard_index;
    beat.shards = shard_count;
    beat.cells_total = mine.size();
    beat.cells_done = mine.size() - todo.size();
    if (const auto previous = obs::read_heartbeat(dir, shard_index)) {
        beat.ewma_cells_per_s = previous->ewma_cells_per_s;
        beat.interval_s = std::max(1.0, previous->interval_s);
    }
    beat.checkpoint_unix_ms = obs::unix_now_ms();
    if (todo.empty()) {
        beat.done = true;
        beat.written_unix_ms = obs::unix_now_ms();
        obs::write_heartbeat(dir, beat);
        return 0;
    }
    beat.written_unix_ms = obs::unix_now_ms();
    obs::write_heartbeat(dir, beat);

    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out) throw std::runtime_error("cannot append to " + path.string());

    // One campaign run over the whole todo list, so every replica's raster
    // and clean pass is built once. Each cell's line is appended and
    // flushed as the cell closes (sink calls never overlap), so a kill
    // loses only the cells still open; per-cell results never depend on
    // the run's other cells, so the re-run after resume is bit-identical.
    // The heartbeat is rewritten as cells close, at most once a second,
    // and self-describes its cadence: interval_s is the gap since the
    // previous rewrite, so staleness scales with the workload instead of
    // a hard-coded wall-clock guess.
    auto last_beat = std::chrono::steady_clock::now();
    std::size_t since_beat = 0;
    const auto rewrite_beat = [&] {
        const auto now = std::chrono::steady_clock::now();
        const double seconds = std::chrono::duration<double>(now - last_beat).count();
        if (since_beat > 0 && seconds > 0.0)
            beat.ewma_cells_per_s = obs::ewma_update(
                beat.ewma_cells_per_s, static_cast<double>(since_beat) / seconds);
        beat.interval_s = std::max(1.0, seconds);
        beat.checkpoint_unix_ms = beat.written_unix_ms = obs::unix_now_ms();
        obs::write_heartbeat(dir, beat);
        last_beat = now;
        since_beat = 0;
    };
    const CampaignResult part =
        engine.run_cells(todo, [&](const CellResult& cell, double baseline_pct) {
            out << cell_to_jsonl(cell, baseline_pct) << '\n';
            out.flush();
            if (!out) throw std::runtime_error("short write to " + path.string());
            ++beat.cells_done;
            ++since_beat;
            if (std::chrono::steady_clock::now() - last_beat >= std::chrono::seconds(1))
                rewrite_beat();
        });
    beat.done = true;
    rewrite_beat();
    return part.cells.size();
}

// ---------------------------------------------------------------- progress

util::ResultTable shard_progress_table(const fs::path& dir) {
    const CampaignManifest manifest = read_manifest(dir);
    util::ResultTable table("shard progress",
                            {"shard", "cells_done", "cells_total", "done_pct",
                             "cells_per_s", "status", "age_s"});
    table.add_note("Cell counts come from the shard JSONL checkpoints; "
                   "rate and liveness from the heartbeat files.");
    const std::int64_t now_ms = obs::unix_now_ms();
    for (std::size_t shard = 0; shard < manifest.shards; ++shard) {
        const std::size_t total =
            shard_cells(manifest.cells, manifest.shards, shard).size();
        std::size_t cells_done = 0;
        for (const ShardCellRecord& record :
             read_shard_file(shard_file(dir, shard)).records) {
            if (record.cell.plan_index < manifest.cells) ++cells_done;
        }
        const auto beat = obs::read_heartbeat(dir, shard);
        const double rate = beat ? beat->ewma_cells_per_s : 0.0;
        const double age_s =
            beat ? std::max(0.0, static_cast<double>(
                                     now_ms - beat->written_unix_ms) /
                                     1000.0)
                 : 0.0;
        std::string status;
        if (cells_done >= total) {
            status = "done";
        } else if (!beat) {
            status = "unknown";  // never started (or heartbeat unreadable)
        } else if (beat->done) {
            // A heartbeat claiming completion the JSONL does not back up:
            // treat as stalled, never live.
            status = "stalled";
        } else {
            status = obs::to_string(obs::heartbeat_status(*beat, now_ms));
        }
        table.add_row({std::to_string(shard), std::to_string(cells_done),
                       std::to_string(total),
                       total != 0 ? 100.0 * static_cast<double>(cells_done) /
                                        static_cast<double>(total)
                                  : 100.0,
                       rate, status, age_s});
    }
    return table;
}

// ------------------------------------------------------------------- merge

CampaignResult merge_campaign_dir(const fs::path& dir) {
    const CampaignManifest manifest = read_manifest(dir);
    std::vector<std::optional<ShardCellRecord>> by_index(manifest.cells);
    for (std::size_t shard = 0; shard < manifest.shards; ++shard) {
        for (ShardCellRecord& record :
             read_shard_file(shard_file(dir, shard)).records) {
            const std::size_t index = record.cell.plan_index;
            if (index >= manifest.cells)
                throw std::runtime_error("campaign dir " + dir.string() +
                                         ": cell index beyond the manifest");
            if (by_index[index])
                throw std::runtime_error("campaign dir " + dir.string() +
                                         ": duplicate cell " +
                                         std::to_string(index));
            by_index[index] = std::move(record);
        }
    }

    CampaignResult result;
    std::size_t missing = 0;
    for (std::size_t c = 0; c < manifest.cells; ++c) {
        if (!by_index[c]) {
            ++missing;
            continue;
        }
        if (result.cells.empty()) {
            result.baseline_accuracy_pct = by_index[c]->baseline_pct;
        } else if (result.baseline_accuracy_pct != by_index[c]->baseline_pct) {
            throw std::runtime_error(
                "campaign dir " + dir.string() +
                ": shards disagree about the baseline accuracy — were they "
                "run against different workloads?");
        }
        result.cells.push_back(std::move(by_index[c]->cell));
    }
    if (missing)
        throw std::runtime_error(
            "campaign dir " + dir.string() + ": " + std::to_string(missing) +
            " of " + std::to_string(manifest.cells) +
            " cell(s) missing — are all shards finished?");
    result.recount();
    return result;
}

}  // namespace snnfi::fi
