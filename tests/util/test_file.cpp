#include "util/file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

namespace snnfi::util {
namespace {

namespace fs = std::filesystem;

TEST(PublishFile, ReplacesTheFileAndLeavesNoTempBehind) {
    const fs::path dir = fs::path(::testing::TempDir()) / "snnfi_publish_file";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path path = dir / "record.json";
    ASSERT_TRUE(publish_file(path, {"{\"a\":", "1}"}));
    ASSERT_TRUE(publish_file(path, {"{}", "\n"}));
    EXPECT_FALSE(publish_file(dir / "missing" / "record.json", {"{}"}));

    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), "{}\n");
    EXPECT_EQ(std::distance(fs::directory_iterator(dir), fs::directory_iterator{}), 1);
    fs::remove_all(dir);
}

}  // namespace
}  // namespace snnfi::util
