#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/idx.hpp"
#include "data/synthetic_digits.hpp"
#include "util/thread_pool.hpp"

namespace snnfi::data {
namespace {

TEST(SyntheticDigits, ImageShapeAndRange) {
    util::Rng rng(1);
    for (std::size_t label = 0; label < 10; ++label) {
        const auto image = render_digit(label, rng, {});
        ASSERT_EQ(image.size(), 28u * 28u);
        for (const float v : image) {
            ASSERT_GE(v, 0.0f);
            ASSERT_LE(v, 1.0f);
        }
    }
}

TEST(SyntheticDigits, StrokesPresent) {
    util::Rng rng(2);
    for (std::size_t label = 0; label < 10; ++label) {
        const auto image = render_digit(label, rng, {});
        double total = 0.0;
        int bright = 0;
        for (const float v : image) {
            total += v;
            bright += v > 0.5f;
        }
        EXPECT_GT(bright, 15) << "label " << label;   // visible strokes
        EXPECT_LT(total / 784.0, 0.5) << "label " << label;  // sparse
    }
}

TEST(SyntheticDigits, DeterministicGivenRngState) {
    util::Rng a(77), b(77);
    EXPECT_EQ(render_digit(4, a, {}), render_digit(4, b, {}));
}

TEST(SyntheticDigits, JitterVariesSamples) {
    util::Rng rng(77);
    const auto first = render_digit(4, rng, {});
    const auto second = render_digit(4, rng, {});
    EXPECT_NE(first, second);
}

TEST(SyntheticDigits, RejectsBadLabel) {
    util::Rng rng(1);
    EXPECT_THROW(render_digit(10, rng, {}), std::invalid_argument);
}

TEST(SyntheticDigits, DrawBudgetIsFixed) {
    // The draw count may not depend on the label or the pixels: the pooled
    // dataset jumps to each chunk's first sample by it.
    SyntheticDigitsConfig small;
    small.image_dim = 20;
    small.pixel_noise = 0.0;
    for (const SyntheticDigitsConfig& config : {SyntheticDigitsConfig{}, small}) {
        ASSERT_EQ(render_digit_draws(config), 7u + config.image_dim * config.image_dim);
        for (std::size_t label = 0; label < 10; ++label) {
            util::Rng rendered(1000 + label);
            util::Rng drawn = rendered;
            (void)render_digit(label, rendered, config);
            for (std::uint64_t i = 0; i < render_digit_draws(config); ++i)
                (void)drawn.next_u64();
            EXPECT_EQ(rendered, drawn)
                << "label " << label << ", dim " << config.image_dim;
        }
    }
}

TEST(SyntheticDataset, SameOnAnyPool) {
    util::ThreadPool one(1);
    util::ThreadPool two(2);
    util::ThreadPool four(4);
    for (const std::size_t count : {0u, 1u, 2u, 31u, 33u, 300u}) {
        const auto serial = make_synthetic_dataset(count, 11);
        ASSERT_EQ(serial.size(), count);
        for (util::ThreadPool* pool : {&one, &two, &four}) {
            const auto pooled = make_synthetic_dataset(count, 11, {}, pool);
            EXPECT_EQ(pooled.labels, serial.labels)
                << count << " samples, " << pool->max_workers() << " workers";
            EXPECT_EQ(pooled.images, serial.images)
                << count << " samples, " << pool->max_workers() << " workers";
            EXPECT_EQ(pooled.image_size, serial.image_size);
        }
    }
}

TEST(SyntheticDataset, BalancedAndShuffled) {
    const auto dataset = make_synthetic_dataset(200, 42);
    ASSERT_EQ(dataset.size(), 200u);
    EXPECT_EQ(dataset.image_size, 784u);
    std::vector<int> counts(10, 0);
    for (const auto label : dataset.labels) ++counts[label];
    for (const int c : counts) EXPECT_EQ(c, 20);
    // Shuffled: the first ten labels should not be exactly 0..9.
    bool ordered = true;
    for (std::size_t i = 0; i < 10; ++i) ordered &= dataset.labels[i] == i;
    EXPECT_FALSE(ordered);
}

TEST(SyntheticDataset, DeterministicGivenSeed) {
    const auto a = make_synthetic_dataset(50, 7);
    const auto b = make_synthetic_dataset(50, 7);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.images, b.images);
    const auto c = make_synthetic_dataset(50, 8);
    EXPECT_NE(a.labels, c.labels);
}

TEST(SyntheticDataset, ClassesAreSeparable) {
    // Nearest-centroid self-classification must be high for STDP clustering
    // to have any chance; this guards the glyph quality.
    const auto dataset = make_synthetic_dataset(400, 21);
    std::vector<std::vector<double>> centroids(10, std::vector<double>(784, 0.0));
    std::vector<int> counts(10, 0);
    for (std::size_t i = 0; i < dataset.size(); ++i) {
        const auto label = dataset.labels[i];
        ++counts[label];
        for (std::size_t p = 0; p < 784; ++p)
            centroids[label][p] += dataset.images[i][p];
    }
    for (std::size_t c = 0; c < 10; ++c)
        for (auto& v : centroids[c]) v /= counts[c];

    int correct = 0;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
        double best = 1e18;
        std::size_t best_class = 0;
        for (std::size_t c = 0; c < 10; ++c) {
            double dist = 0.0;
            for (std::size_t p = 0; p < 784; ++p) {
                const double d = dataset.images[i][p] - centroids[c][p];
                dist += d * d;
            }
            if (dist < best) {
                best = dist;
                best_class = c;
            }
        }
        correct += best_class == dataset.labels[i];
    }
    EXPECT_GT(static_cast<double>(correct) / dataset.size(), 0.85);
}

TEST(Idx, RoundTrip) {
    const auto dataset = make_synthetic_dataset(30, 3);
    const auto dir = std::filesystem::temp_directory_path();
    const std::string images = (dir / "snnfi_test_images").string();
    const std::string labels = (dir / "snnfi_test_labels").string();
    save_idx_pair(dataset, images, labels);
    const auto loaded = load_idx_pair(images, labels);
    ASSERT_EQ(loaded.size(), dataset.size());
    EXPECT_EQ(loaded.labels, dataset.labels);
    EXPECT_EQ(loaded.image_size, dataset.image_size);
    // Quantisation to bytes allows ~1/255 error.
    for (std::size_t p = 0; p < dataset.image_size; ++p)
        EXPECT_NEAR(loaded.images[0][p], dataset.images[0][p], 1.0 / 254.0);
    const auto limited = load_idx_pair(images, labels, 10);
    EXPECT_EQ(limited.size(), 10u);
    std::remove(images.c_str());
    std::remove(labels.c_str());
}

TEST(Idx, MissingFilesHandled) {
    EXPECT_THROW(load_idx_pair("/nonexistent/imgs", "/nonexistent/lbls"),
                 std::runtime_error);
    EXPECT_FALSE(try_load_mnist("/nonexistent/dir").has_value());
}

TEST(Idx, BadMagicRejected) {
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path = (dir / "snnfi_bad_magic").string();
    {
        std::ofstream out(path, std::ios::binary);
        const char junk[16] = {0};
        out.write(junk, sizeof junk);
    }
    EXPECT_THROW(load_idx_pair(path, path), std::runtime_error);
    std::remove(path.c_str());
}

/// Writes an idx3 header (magic, count, rows, cols) plus `pixels` pixel
/// bytes, and an idx1 header plus `labels` label bytes.
void write_idx_pair(const std::string& images_path, const std::string& labels_path,
                    std::uint32_t count, std::uint32_t rows, std::uint32_t cols,
                    std::size_t pixels, std::size_t labels) {
    const auto be32 = [](std::ofstream& out, std::uint32_t value) {
        const char bytes[4] = {static_cast<char>(value >> 24), static_cast<char>(value >> 16),
                               static_cast<char>(value >> 8), static_cast<char>(value)};
        out.write(bytes, 4);
    };
    std::ofstream images(images_path, std::ios::binary);
    be32(images, 2051);
    be32(images, count);
    be32(images, rows);
    be32(images, cols);
    images << std::string(pixels, '\x10');
    std::ofstream label_file(labels_path, std::ios::binary);
    be32(label_file, 2049);
    be32(label_file, count);
    label_file << std::string(labels, '\x03');
}

TEST(Idx, HeaderSizesCheckedAgainstTheFiles) {
    const auto dir = std::filesystem::temp_directory_path();
    const std::string images = (dir / "snnfi_test_idx_claims_images").string();
    const std::string labels = (dir / "snnfi_test_idx_claims_labels").string();
    const auto expect_rejected = [&](std::size_t limit) {
        try {
            (void)load_idx_pair(images, labels, limit);
            ADD_FAILURE() << "accepted a header the files do not back";
        } catch (const std::runtime_error& e) {
            // Rejected from the header, before a pixel buffer is sized
            // from it or a read runs off the end.
            EXPECT_NE(std::string(e.what()).find("header declares more"), std::string::npos)
                << e.what();
        }
    };
    // Two 4096 x 4096 images claimed, 64 pixel bytes present.
    write_idx_pair(images, labels, 2, 4096, 4096, 64, 2);
    expect_rejected(0);
    expect_rejected(1);
    // The pixels are all there, one label is missing.
    write_idx_pair(images, labels, 3, 2, 2, 12, 2);
    expect_rejected(0);
    // Exactly backed files load, and a limit needs only its own samples.
    write_idx_pair(images, labels, 3, 2, 2, 12, 3);
    EXPECT_EQ(load_idx_pair(images, labels).size(), 3u);
    write_idx_pair(images, labels, 3, 2, 2, 8, 2);
    EXPECT_EQ(load_idx_pair(images, labels, 2).size(), 2u);
    // No samples: any image size is backed.
    write_idx_pair(images, labels, 0, 4096, 4096, 0, 0);
    EXPECT_EQ(load_idx_pair(images, labels).size(), 0u);
    std::remove(images.c_str());
    std::remove(labels.c_str());
}

TEST(Idx, NonSquareImagesRoundTrip) {
    snn::Dataset dataset;
    dataset.image_size = 6;
    dataset.images = {{0.0f, 0.2f, 0.4f, 0.6f, 0.8f, 1.0f}};
    dataset.labels = {4};
    const auto dir = std::filesystem::temp_directory_path();
    const std::string images = (dir / "snnfi_test_idx_wide_images").string();
    const std::string labels = (dir / "snnfi_test_idx_wide_labels").string();
    save_idx_pair(dataset, images, labels);
    const auto loaded = load_idx_pair(images, labels);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.image_size, 6u);
    EXPECT_EQ(loaded.labels, dataset.labels);
    std::remove(images.c_str());
    std::remove(labels.c_str());
}

TEST(LoadDigits, FallsBackToSynthetic) {
    const auto dataset = load_digits(40, 42, "/nonexistent/mnist");
    EXPECT_EQ(dataset.size(), 40u);
    EXPECT_EQ(dataset.image_size, 784u);
}

}  // namespace
}  // namespace snnfi::data
