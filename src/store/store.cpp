#include "store/store.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "store/blob.hpp"
#include "store/hash.hpp"
#include "util/file.hpp"

namespace snnfi::store {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x42464E53;  // "SNFB"

/// Store instruments, resolved once; recording through the references is
/// lock-free (and a no-op while telemetry is off).
struct StoreMetrics {
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& evictions;
    obs::Counter& read_bytes;
    obs::Counter& write_bytes;
    obs::Histogram& load_ms;
    obs::Histogram& save_ms;

    static StoreMetrics& get() {
        static const std::vector<double> bounds{0.1, 0.3, 1, 3, 10, 30, 100, 300};
        static StoreMetrics metrics{
            obs::Registry::global().counter("store.hits"),
            obs::Registry::global().counter("store.misses"),
            obs::Registry::global().counter("store.evictions"),
            obs::Registry::global().counter("store.read_bytes"),
            obs::Registry::global().counter("store.write_bytes"),
            obs::Registry::global().histogram("store.load_ms", bounds),
            obs::Registry::global().histogram("store.save_ms", bounds)};
        return metrics;
    }
};

double ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string_view as_chars(std::span<const std::byte> bytes) {
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::optional<std::vector<std::byte>> read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::vector<std::byte> bytes;
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < 0) return std::nullopt;
    bytes.resize(static_cast<std::size_t>(size));
    in.seekg(0, std::ios::beg);
    in.read(reinterpret_cast<char*>(bytes.data()), size);
    if (!in) return std::nullopt;
    return bytes;
}

}  // namespace

ArtifactStore::ArtifactStore(StoreConfig config) : config_(std::move(config)) {
    if (config_.root.empty())
        throw std::runtime_error("ArtifactStore: empty store directory");
    std::string version_dir = "v";
    version_dir += std::to_string(kSchemaVersion);
    dir_ = config_.root / version_dir;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        throw std::runtime_error("ArtifactStore: cannot create " + dir_.string() +
                                 (ec ? ": " + ec.message() : ""));
}

fs::path ArtifactStore::blob_path(const std::string& kind,
                                  const std::string& key) const {
    return dir_ / (kind + "-" + to_hex(fnv1a64(kind + "\x1f" + key)) + ".blob");
}

std::optional<std::vector<std::byte>> ArtifactStore::load(const std::string& kind,
                                                          const std::string& key) {
    obs::Span span("store.load");
    span.tag("kind", kind);
    const auto start = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    const fs::path path = blob_path(kind, key);
    const auto file = read_file(path);
    if (file) {
        try {
            BlobReader reader(*file);
            if (reader.u32() != kMagic) throw BlobError("bad magic");
            if (reader.u32() != kSchemaVersion) throw BlobError("schema mismatch");
            const std::string stored_key = reader.str();
            const std::uint64_t payload_size = reader.u64();
            const std::uint64_t checksum = reader.u64();
            if (payload_size != reader.remaining())
                throw BlobError("payload size mismatch");
            std::vector<std::byte> payload(payload_size);
            for (auto& byte : payload) byte = static_cast<std::byte>(reader.u8());
            if (checksum != fnv1a64(payload.data(), payload.size()))
                throw BlobError("checksum mismatch");
            // A colliding hash lands two keys on one file name; the echoed
            // key turns that into an honest miss.
            if (stored_key != kind + "\x1f" + key) throw BlobError("key mismatch");
            ++hits_;
            StoreMetrics::get().hits.add();
            StoreMetrics::get().read_bytes.add(file->size());
            StoreMetrics::get().load_ms.observe(ms_since(start));
            span.tag("outcome", "hit");
            // Re-touch for LRU recency (best effort; shared with other
            // processes through the filesystem).
            std::error_code ec;
            fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
            return payload;
        } catch (const BlobError&) {
            // Corrupt blob: drop it so the slot heals on the next save.
            std::error_code ec;
            fs::remove(path, ec);
        }
    }
    ++misses_;
    StoreMetrics::get().misses.add();
    StoreMetrics::get().load_ms.observe(ms_since(start));
    span.tag("outcome", "miss");
    return std::nullopt;
}

void ArtifactStore::save(const std::string& kind, const std::string& key,
                         std::vector<std::byte> payload) {
    obs::Span span("store.save");
    span.tag("kind", kind);
    span.tag("bytes", static_cast<double>(payload.size()));
    const auto start = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    BlobWriter writer;
    writer.u32(kMagic);
    writer.u32(kSchemaVersion);
    writer.str(kind + "\x1f" + key);
    writer.u64(payload.size());
    writer.u64(fnv1a64(payload.data(), payload.size()));
    const fs::path path = blob_path(kind, key);
    // An unwritable store behaves as a cache, not a fault.
    if (!util::publish_file(path, {as_chars(writer.bytes()), as_chars(payload)}))
        return;
    StoreMetrics::get().write_bytes.add(writer.bytes().size() + payload.size());
    StoreMetrics::get().save_ms.observe(ms_since(start));
    enforce_cap(path);
}

void ArtifactStore::enforce_cap(const fs::path& keep) {
    if (config_.max_bytes == 0) return;
    struct Entry {
        fs::path path;
        std::uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& item : fs::directory_iterator(dir_, ec)) {
        if (item.path().extension() != ".blob") continue;
        std::error_code item_ec;
        const std::uint64_t size = item.file_size(item_ec);
        if (item_ec) continue;
        const fs::file_time_type mtime = item.last_write_time(item_ec);
        if (item_ec) continue;
        total += size;
        entries.push_back({item.path(), size, mtime});
    }
    if (ec || total <= config_.max_bytes) return;
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
    for (const Entry& entry : entries) {
        if (total <= config_.max_bytes) break;
        if (entry.path == keep) continue;  // never evict the artifact just written
        std::error_code remove_ec;
        if (fs::remove(entry.path, remove_ec) && !remove_ec) {
            total -= entry.size;
            ++evictions_;
            StoreMetrics::get().evictions.add();
        }
    }
}

std::size_t ArtifactStore::entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t count = 0;
    std::error_code ec;
    for (const auto& item : fs::directory_iterator(dir_, ec)) {
        if (item.path().extension() == ".blob") ++count;
    }
    return ec ? 0 : count;
}

std::uint64_t ArtifactStore::bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& item : fs::directory_iterator(dir_, ec)) {
        if (item.path().extension() != ".blob") continue;
        std::error_code item_ec;
        const std::uint64_t size = item.file_size(item_ec);
        if (!item_ec) total += size;
    }
    return ec ? 0 : total;
}

}  // namespace snnfi::store
