// Shard heartbeats — small JSON files a campaign worker rewrites as it
// progresses, so `run --campaign-dir` can render a per-shard progress /
// straggler table without talking to the workers.
//
// Layout: <campaign-dir>/heartbeat-<k>.json, rewritten atomically
// (temp + rename) as cells close, at most once a second. Each heartbeat is
// self-describing about its own cadence (`interval_s`), which is what
// makes staleness detectable: a worker SIGKILLed mid-shard stops
// rewriting its file, and once the file's age exceeds
// kStaleFactor x interval_s the shard is reported `stalled` instead of
// live — no heartbeat ever claims liveness on its own.
//
// Heartbeats are observability, not state: the shard JSONL checkpoints
// stay the source of truth for which cells completed, and every write
// here is best-effort (an unwritable campaign dir degrades the progress
// table, never the campaign).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

namespace snnfi::obs {

/// Wall-clock now in milliseconds since the Unix epoch (heartbeats are
/// read by other processes, so steady_clock is useless here).
std::int64_t unix_now_ms();

/// Heartbeats older than kStaleFactor x interval_s are considered stalled.
inline constexpr double kStaleFactor = 3.0;

/// EWMA step for the cells-per-second rate (alpha = weight of the new
/// sample). A zero previous value adopts the sample outright so the rate
/// does not ramp up from an artificial 0.
double ewma_update(double previous, double sample, double alpha = 0.3);

struct Heartbeat {
    std::size_t shard = 0;
    std::size_t shards = 0;
    std::size_t cells_done = 0;   ///< of this shard's partition
    std::size_t cells_total = 0;  ///< this shard's partition size
    double ewma_cells_per_s = 0.0;
    /// Expected maximum gap between rewrites (the checkpoint cadence);
    /// the staleness rule is relative to this.
    double interval_s = 1.0;
    std::int64_t written_unix_ms = 0;     ///< when this heartbeat was written
    std::int64_t checkpoint_unix_ms = 0;  ///< last JSONL checkpoint flush
    bool done = false;                    ///< shard partition fully executed

    std::string to_json() const;
    /// std::nullopt on malformed/truncated input (treated as "no heartbeat").
    static std::optional<Heartbeat> from_json(const std::string& text);
};

std::filesystem::path heartbeat_file(const std::filesystem::path& dir,
                                     std::size_t shard);

/// Atomic best-effort write (temp + rename); I/O failures are swallowed.
void write_heartbeat(const std::filesystem::path& dir, const Heartbeat& beat);

/// The shard's heartbeat, or std::nullopt when missing or unparseable.
std::optional<Heartbeat> read_heartbeat(const std::filesystem::path& dir,
                                        std::size_t shard);

enum class HeartbeatStatus { kLive, kStalled, kDone };

/// done beats done; otherwise live until the heartbeat's age exceeds
/// stale_factor x interval_s.
HeartbeatStatus heartbeat_status(const Heartbeat& beat, std::int64_t now_unix_ms,
                                 double stale_factor = kStaleFactor);

const char* to_string(HeartbeatStatus status) noexcept;

}  // namespace snnfi::obs
