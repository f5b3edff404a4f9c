// Synthetic 28x28 digit dataset — offline substitute for MNIST.
//
// Each digit class is a set of stroke polylines in a unit box, rendered
// with a soft pen profile after a random affine jitter (shift, rotation,
// scale, shear) plus stroke-width and intensity variation. The resulting
// distribution has MNIST-like statistics (sparse bright strokes on a dark
// background), which is what the Poisson encoder and STDP clustering
// depend on. DESIGN.md §4 documents the substitution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "snn/trainer.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace snnfi::data {

struct SyntheticDigitsConfig {
    std::size_t image_dim = 28;
    double max_shift_px = 2.2;
    double max_rotation_rad = 0.18;
    double min_scale = 0.88;
    double max_scale = 1.10;
    double max_shear = 0.12;
    double stroke_width_px = 1.6;
    double stroke_width_jitter = 0.35;
    double softness_px = 1.0;       ///< pen-edge falloff
    double intensity_jitter = 0.15; ///< per-sample brightness variation
    double pixel_noise = 0.02;      ///< additive uniform noise amplitude
};

/// Renders one sample of digit `label` (0-9). Deterministic given the Rng.
std::vector<float> render_digit(std::size_t label, util::Rng& rng,
                                const SyntheticDigitsConfig& config = {});

/// The values render_digit draws from its Rng: 7 jitter draws, then one
/// noise draw per pixel, whatever the label or the pixels. So sample i of
/// a dataset starts i times this many draws into the stream.
constexpr std::uint64_t render_digit_draws(const SyntheticDigitsConfig& config) noexcept {
    return 7 + std::uint64_t{config.image_dim} * config.image_dim;
}

/// Generates a balanced labelled dataset of `count` samples (classes cycle
/// 0..9 and the order is then shuffled). Deterministic given `seed`, and
/// the same with or without `pool`: each chunk of samples renders on the
/// pool from its own jump into the one stream (util::Rng::advance).
snn::Dataset make_synthetic_dataset(std::size_t count, std::uint64_t seed,
                                    const SyntheticDigitsConfig& config = {},
                                    util::ThreadPool* pool = nullptr);

}  // namespace snnfi::data
