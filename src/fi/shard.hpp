// Sharded campaign execution: deterministic cell partitioning, per-shard
// streamed JSONL result files with checkpoint/resume, and the merge that
// reassembles the full CampaignResult bit-for-bit.
//
// The contract this is built on (see CampaignEngine::run_cells):
//   * planning is a pure function of (catalog id, session workload), so
//     every process sees the same cells at the same plan indices;
//   * a cell's numbers never depend on which other cells share the run —
//     replica rng streams are index-derived and batch composition only
//     groups work, it never feeds it;
//   * the campaign counters have a closed form over the per-cell replica
//     counts (CampaignResult::recount), so the merge reconstructs exactly
//     what a single-process run would have accumulated.
//
// Campaign directory layout:
//   <dir>/manifest.json      shard topology + the campaign identity key
//   <dir>/shard-<k>.jsonl    one JSON object per completed cell, appended
//                            (and flushed) as each cell closes, in
//                            completion order
//   <dir>/heartbeat-<k>.json liveness/progress beacon (obs/heartbeat.hpp),
//                            rewritten as cells close, at most once a
//                            second — observability only, never merged
//                            state
//
// A shard runs its cells as one campaign (CampaignEngine::run_cells with a
// sink), so each replica's raster and clean pass is built once per shard
// run. A worker killed mid-run loses the cells still open and leaves at
// most one truncated trailing line; resume drops it and re-executes the
// missing cells, which is why an interrupted shard merges bit-identically
// to an uninterrupted one.
#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "fi/campaign.hpp"
#include "util/table.hpp"

namespace snnfi::core {
class Session;
}

namespace snnfi::fi {

/// Shard topology + the campaign identity, persisted as manifest.json so
/// workers and the merger can refuse mismatched directories instead of
/// silently mixing campaigns.
struct CampaignManifest {
    std::string scenario;      ///< catalog id, e.g. "fi.quick-sweep"
    std::size_t shards = 0;    ///< partition arity
    std::size_t cells = 0;     ///< total planned cells
    bool quick = false;        ///< session quick flag the plan was built under
    std::string campaign_key;  ///< CampaignConfig::cache_key() of the plan

    std::string to_json() const;
    /// Throws std::runtime_error on malformed input.
    static CampaignManifest from_json(const std::string& text);
};

/// The plan-index subset of shard `shard_index` out of `shard_count`:
/// round-robin (cell c lands on shard c % shard_count), so severity grids
/// and site lists spread evenly instead of one shard drawing every
/// expensive train-under-fault cell. Throws std::invalid_argument on a
/// zero shard count or an out-of-range index.
std::vector<std::size_t> shard_cells(std::size_t total_cells,
                                     std::size_t shard_count,
                                     std::size_t shard_index);

/// One completed cell as a single-line JSON object (no trailing newline).
/// Doubles are emitted at round-trip precision, so parsing the line back
/// reproduces the CellResult bit-for-bit. `baseline_pct` rides along in
/// every line (shards have no other channel for it).
std::string cell_to_jsonl(const CellResult& cell, double baseline_pct);

/// Parsed shard line: the cell plus the baseline it was measured against.
struct ShardCellRecord {
    CellResult cell;
    double baseline_pct = 0.0;
};

/// Parses one shard line. Returns std::nullopt on a malformed or truncated
/// line (the interrupted-write case) — callers drop it and re-execute.
std::optional<ShardCellRecord> cell_from_jsonl(const std::string& line);

/// The shard result file of shard `index` under `dir`.
std::filesystem::path shard_file(const std::filesystem::path& dir,
                                 std::size_t index);

/// Writes manifest.json atomically (temp + rename). When a manifest
/// already exists it must match `manifest` exactly; throws
/// std::runtime_error otherwise (two workers disagreeing about the
/// campaign is a configuration error, not a race to win).
void write_manifest(const std::filesystem::path& dir,
                    const CampaignManifest& manifest);

/// Reads and parses <dir>/manifest.json; throws std::runtime_error when
/// missing or malformed.
CampaignManifest read_manifest(const std::filesystem::path& dir);

/// Executes one shard of the catalog campaign `scenario` with
/// checkpoint/resume: already-completed cells are read back from the
/// shard's JSONL file (a truncated trailing line is cut from the file, the
/// one write to a shard file besides appends), and the remaining cells run
/// as one campaign whose cells are appended and flushed one line at a
/// time as they close. Returns the number of cells executed this call
/// (0 = the shard was already complete). Throws std::runtime_error when
/// the directory's manifest does not match the campaign this session
/// plans.
std::size_t run_shard(core::Session& session, const std::string& scenario,
                      const std::filesystem::path& dir, std::size_t shard_index,
                      std::size_t shard_count);

/// Per-shard progress/straggler table of a campaign directory: cells done
/// (counted from the shard JSONL files — the source of truth) against the
/// shard's partition size, the heartbeat's EWMA cell rate, and a status
/// column: `done` (partition complete), `live` (fresh heartbeat),
/// `stalled` (heartbeat older than obs::kStaleFactor x its own interval,
/// or one claiming completion the JSONL does not back up — the SIGKILLed
/// worker case), or `unknown` (no heartbeat at all, e.g. a shard never
/// started). Reads only: a shard's torn last line (a live worker may be
/// appending it) is skipped, never repaired. Throws std::runtime_error
/// when the directory has no valid manifest.
util::ResultTable shard_progress_table(const std::filesystem::path& dir);

/// Merges a completed campaign directory back into the full
/// CampaignResult, ordered by plan index, counters recounted — bit-for-bit
/// the result of a single-process run of the same campaign. Reads only,
/// like shard_progress_table. Throws std::runtime_error when cells are
/// missing, duplicated, or measured against inconsistent baselines.
CampaignResult merge_campaign_dir(const std::filesystem::path& dir);

}  // namespace snnfi::fi
