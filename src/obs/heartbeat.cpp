#include "obs/heartbeat.hpp"

#include <chrono>
#include <fstream>
#include <sstream>

#include "util/file.hpp"
#include "util/table.hpp"

namespace snnfi::obs {

namespace fs = std::filesystem;

std::int64_t unix_now_ms() {
    // Heartbeat ages are compared across *processes* through the
    // filesystem, where per-process steady_clock epochs are meaningless;
    // the wall clock never feeds campaign results, only staleness display.
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               // snnfi-lint: allow(nondeterministic-source)
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

double ewma_update(double previous, double sample, double alpha) {
    if (previous <= 0.0) return sample;
    return alpha * sample + (1.0 - alpha) * previous;
}

std::string Heartbeat::to_json() const {
    std::ostringstream os;
    os << "{\"shard\":" << shard << ",\"shards\":" << shards
       << ",\"cells_done\":" << cells_done << ",\"cells_total\":" << cells_total
       << ",\"ewma_cells_per_s\":" << util::json_number(ewma_cells_per_s)
       << ",\"interval_s\":" << util::json_number(interval_s)
       << ",\"written_unix_ms\":" << written_unix_ms
       << ",\"checkpoint_unix_ms\":" << checkpoint_unix_ms
       << ",\"done\":" << (done ? "true" : "false") << "}";
    return os.str();
}

std::optional<Heartbeat> Heartbeat::from_json(const std::string& text) {
    if (text.empty() || text.front() != '{') return std::nullopt;
    const auto shard = util::json_get_size(text, "shard");
    const auto shards = util::json_get_size(text, "shards");
    const auto cells_done = util::json_get_size(text, "cells_done");
    const auto cells_total = util::json_get_size(text, "cells_total");
    const auto rate = util::json_get_double(text, "ewma_cells_per_s");
    const auto interval = util::json_get_double(text, "interval_s");
    const auto written = util::json_get_int64(text, "written_unix_ms");
    const auto checkpoint = util::json_get_int64(text, "checkpoint_unix_ms");
    const auto done = util::json_get_bool(text, "done");
    if (!shard || !shards || !cells_done || !cells_total || !rate || !interval ||
        !written || !checkpoint || !done)
        return std::nullopt;
    Heartbeat beat;
    beat.shard = *shard;
    beat.shards = *shards;
    beat.cells_done = *cells_done;
    beat.cells_total = *cells_total;
    beat.ewma_cells_per_s = *rate;
    beat.interval_s = *interval;
    beat.written_unix_ms = *written;
    beat.checkpoint_unix_ms = *checkpoint;
    beat.done = *done;
    return beat;
}

fs::path heartbeat_file(const fs::path& dir, std::size_t shard) {
    std::ostringstream name;
    name << "heartbeat-" << shard << ".json";
    return dir / name.str();
}

void write_heartbeat(const fs::path& dir, const Heartbeat& beat) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return;
    util::publish_file(heartbeat_file(dir, beat.shard), {beat.to_json(), "\n"});
}

std::optional<Heartbeat> read_heartbeat(const fs::path& dir, std::size_t shard) {
    std::ifstream in(heartbeat_file(dir, shard), std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return Heartbeat::from_json(buffer.str());
}

HeartbeatStatus heartbeat_status(const Heartbeat& beat, std::int64_t now_unix_ms,
                                 double stale_factor) {
    if (beat.done) return HeartbeatStatus::kDone;
    const double age_s =
        static_cast<double>(now_unix_ms - beat.written_unix_ms) / 1000.0;
    if (age_s > stale_factor * beat.interval_s) return HeartbeatStatus::kStalled;
    return HeartbeatStatus::kLive;
}

const char* to_string(HeartbeatStatus status) noexcept {
    switch (status) {
        case HeartbeatStatus::kLive: return "live";
        case HeartbeatStatus::kStalled: return "stalled";
        case HeartbeatStatus::kDone: return "done";
    }
    return "?";
}

}  // namespace snnfi::obs
