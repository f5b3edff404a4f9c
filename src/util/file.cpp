#include "util/file.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <system_error>

namespace snnfi::util {

namespace fs = std::filesystem;

bool publish_file(const fs::path& path,
                  std::initializer_list<std::string_view> parts) {
    static std::atomic<std::uint64_t> calls{0};
    fs::path temp = path;
    temp += ".tmp" + std::to_string(::getpid()) + "-" +
            std::to_string(calls.fetch_add(1, std::memory_order_relaxed));
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    for (const std::string_view part : parts)
        out.write(part.data(), static_cast<std::streamsize>(part.size()));
    out.close();
    std::error_code ec;
    if (!out.fail()) {
        fs::rename(temp, path, ec);
        if (!ec) return true;
    }
    fs::remove(temp, ec);
    return false;
}

}  // namespace snnfi::util
