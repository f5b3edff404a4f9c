#include "data/idx.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "data/synthetic_digits.hpp"

namespace snnfi::data {

namespace {

std::uint32_t read_be32(std::istream& in) {
    unsigned char bytes[4];
    // iostream's byte API takes char*; viewing an unsigned-char buffer
    // through it is I/O, not punning.
    in.read(reinterpret_cast<char*>(bytes), 4);  // snnfi-lint: allow(type-punning)
    if (!in) throw std::runtime_error("idx: truncated header");
    return (static_cast<std::uint32_t>(bytes[0]) << 24) |
           (static_cast<std::uint32_t>(bytes[1]) << 16) |
           (static_cast<std::uint32_t>(bytes[2]) << 8) |
           static_cast<std::uint32_t>(bytes[3]);
}

void write_be32(std::ostream& out, std::uint32_t value) {
    const unsigned char bytes[4] = {static_cast<unsigned char>(value >> 24),
                                    static_cast<unsigned char>(value >> 16),
                                    static_cast<unsigned char>(value >> 8),
                                    static_cast<unsigned char>(value)};
    // Same as read_be32: char* view for stream I/O only.
    out.write(reinterpret_cast<const char*>(bytes), 4);  // snnfi-lint: allow(type-punning)
}

/// Bytes from the stream's read position to its end.
std::uint64_t bytes_left(std::istream& in) {
    const std::streamoff here = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streamoff end = in.tellg();
    in.seekg(here);
    if (!in || here < 0 || end < here) throw std::runtime_error("idx: cannot size file");
    return static_cast<std::uint64_t>(end - here);
}

constexpr std::uint32_t kImagesMagic = 2051;
constexpr std::uint32_t kLabelsMagic = 2049;

}  // namespace

snn::Dataset load_idx_pair(const std::string& images_path,
                           const std::string& labels_path, std::size_t limit) {
    std::ifstream images(images_path, std::ios::binary);
    std::ifstream labels(labels_path, std::ios::binary);
    if (!images) throw std::runtime_error("idx: cannot open " + images_path);
    if (!labels) throw std::runtime_error("idx: cannot open " + labels_path);

    if (read_be32(images) != kImagesMagic)
        throw std::runtime_error("idx: bad images magic in " + images_path);
    const std::uint32_t n_images = read_be32(images);
    const std::uint32_t rows = read_be32(images);
    const std::uint32_t cols = read_be32(images);

    if (read_be32(labels) != kLabelsMagic)
        throw std::runtime_error("idx: bad labels magic in " + labels_path);
    const std::uint32_t n_labels = read_be32(labels);
    if (n_images != n_labels)
        throw std::runtime_error("idx: image/label count mismatch");

    std::size_t count = n_images;
    if (limit > 0) count = std::min<std::size_t>(count, limit);
    // The header's sizes are outside bytes: check them against the files
    // before sizing anything from them.
    const std::uint64_t image_size = std::uint64_t{rows} * cols;
    if (bytes_left(labels) < count ||
        (count > 0 && image_size > bytes_left(images) / count))
        throw std::runtime_error("idx: header declares more data than the files hold");

    snn::Dataset dataset;
    dataset.image_size = static_cast<std::size_t>(image_size);
    if (count == 0) return dataset;  // no pixels to buffer, whatever the size
    dataset.images.reserve(count);
    dataset.labels.reserve(count);

    std::vector<unsigned char> buffer(dataset.image_size);
    for (std::size_t i = 0; i < count; ++i) {
        // snnfi-lint: allow(type-punning) — char* view of the pixel buffer for stream I/O
        images.read(reinterpret_cast<char*>(buffer.data()),
                    static_cast<std::streamsize>(buffer.size()));
        char label_byte = 0;
        labels.read(&label_byte, 1);
        if (!images || !labels) throw std::runtime_error("idx: truncated data");
        std::vector<float> image(dataset.image_size);
        for (std::size_t p = 0; p < buffer.size(); ++p)
            image[p] = static_cast<float>(buffer[p]) / 255.0f;
        dataset.images.push_back(std::move(image));
        dataset.labels.push_back(static_cast<std::size_t>(
            static_cast<unsigned char>(label_byte)));
    }
    return dataset;
}

void save_idx_pair(const snn::Dataset& dataset, const std::string& images_path,
                   const std::string& labels_path) {
    std::ofstream images(images_path, std::ios::binary);
    std::ofstream labels(labels_path, std::ios::binary);
    if (!images) throw std::runtime_error("idx: cannot write " + images_path);
    if (!labels) throw std::runtime_error("idx: cannot write " + labels_path);

    auto rows = static_cast<std::uint32_t>(
        std::lround(std::sqrt(static_cast<double>(dataset.image_size))));
    auto cols = rows;
    if (std::size_t{rows} * cols != dataset.image_size) {
        rows = 1;
        cols = static_cast<std::uint32_t>(dataset.image_size);
    }
    write_be32(images, kImagesMagic);
    write_be32(images, static_cast<std::uint32_t>(dataset.size()));
    write_be32(images, rows);
    write_be32(images, cols);
    write_be32(labels, kLabelsMagic);
    write_be32(labels, static_cast<std::uint32_t>(dataset.size()));

    std::vector<unsigned char> buffer(dataset.image_size);
    for (std::size_t i = 0; i < dataset.size(); ++i) {
        for (std::size_t p = 0; p < dataset.image_size; ++p) {
            const float clamped = std::min(1.0f, std::max(0.0f, dataset.images[i][p]));
            buffer[p] = static_cast<unsigned char>(std::lround(clamped * 255.0f));
        }
        // snnfi-lint: allow(type-punning) — char* view of the pixel buffer for stream I/O
        images.write(reinterpret_cast<const char*>(buffer.data()),
                     static_cast<std::streamsize>(buffer.size()));
        const char label_byte = static_cast<char>(dataset.labels[i]);
        labels.write(&label_byte, 1);
    }
}

std::optional<snn::Dataset> try_load_mnist(const std::string& dir, std::size_t limit) {
    namespace fs = std::filesystem;
    const fs::path images = fs::path(dir) / "train-images-idx3-ubyte";
    const fs::path labels = fs::path(dir) / "train-labels-idx1-ubyte";
    if (!fs::exists(images) || !fs::exists(labels)) return std::nullopt;
    return load_idx_pair(images.string(), labels.string(), limit);
}

snn::Dataset load_digits(std::size_t count, std::uint64_t seed,
                         const std::string& mnist_dir, util::ThreadPool* pool) {
    if (auto mnist = try_load_mnist(mnist_dir, count)) return std::move(*mnist);
    return make_synthetic_dataset(count, seed, {}, pool);
}

}  // namespace snnfi::data
