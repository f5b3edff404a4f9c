// Atomic file publish: the one temp-then-rename writer behind every file
// the library replaces while other processes may read it (store blobs,
// campaign manifests, repaired shard files, heartbeats).
#pragma once

#include <filesystem>
#include <initializer_list>
#include <string_view>

namespace snnfi::util {

/// Replaces `path` with the concatenated `parts`: writes a sibling temp
/// file, named unique to this process and call, then renames it over
/// `path` (same directory, so readers see the old file or the new one,
/// never a torn one, and concurrent publishers never share a temp file).
/// Returns false, leaving no temp file behind, when any step fails; the
/// caller decides whether that is an error.
bool publish_file(const std::filesystem::path& path,
                  std::initializer_list<std::string_view> parts);

}  // namespace snnfi::util
