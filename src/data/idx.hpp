// IDX (MNIST) file format reader/writer.
//
// When a real MNIST copy is available under a directory (train-images-
// idx3-ubyte / train-labels-idx1-ubyte), experiments use it automatically;
// otherwise they fall back to the synthetic digits (DESIGN.md §4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "snn/trainer.hpp"
#include "util/thread_pool.hpp"

namespace snnfi::data {

/// Loads an images(idx3)+labels(idx1) pair; at most `limit` samples
/// (0 = all). Throws std::runtime_error on malformed files, including
/// headers that declare more samples or pixels than the files hold (checked
/// before any buffer is sized from them).
snn::Dataset load_idx_pair(const std::string& images_path,
                           const std::string& labels_path, std::size_t limit = 0);

/// Writes a dataset back out as an idx3/idx1 pair (testing round-trips,
/// exporting synthetic data for external tools). Square images are written
/// as dim x dim, any other size as 1 x image_size.
void save_idx_pair(const snn::Dataset& dataset, const std::string& images_path,
                   const std::string& labels_path);

/// Looks for MNIST under `dir` using the canonical file names. Returns
/// nullopt when the files are absent.
std::optional<snn::Dataset> try_load_mnist(const std::string& dir,
                                           std::size_t limit = 0);

/// Experiment entry point: real MNIST from `mnist_dir` when present,
/// synthetic digits otherwise (rendered on `pool` when one is given).
/// `count` caps the sample count either way.
snn::Dataset load_digits(std::size_t count, std::uint64_t seed,
                         const std::string& mnist_dir = "data/mnist",
                         util::ThreadPool* pool = nullptr);

}  // namespace snnfi::data
