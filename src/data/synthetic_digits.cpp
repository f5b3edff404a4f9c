#include "data/synthetic_digits.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>

namespace snnfi::data {

namespace {

struct Point {
    double x, y;
};
using Polyline = std::vector<Point>;

/// Samples an elliptic arc (angles in radians, counter-clockwise).
Polyline arc(double cx, double cy, double rx, double ry, double a0, double a1,
             int segments = 14) {
    Polyline line;
    line.reserve(static_cast<std::size_t>(segments) + 1);
    for (int i = 0; i <= segments; ++i) {
        const double t = a0 + (a1 - a0) * i / segments;
        line.push_back({cx + rx * std::cos(t), cy + ry * std::sin(t)});
    }
    return line;
}

/// Stroke templates in a unit box: x right, y *down* (raster convention).
std::vector<Polyline> glyph_strokes(std::size_t label) {
    constexpr double pi = std::numbers::pi;
    switch (label) {
        case 0:
            return {arc(0.5, 0.5, 0.32, 0.42, 0.0, 2.0 * pi, 28)};
        case 1:
            return {{{0.35, 0.28}, {0.52, 0.12}, {0.52, 0.88}},
                    {{0.36, 0.88}, {0.68, 0.88}}};
        case 2:
            return {arc(0.5, 0.30, 0.28, 0.20, -pi, 0.0, 12),
                    {{0.78, 0.30}, {0.70, 0.52}, {0.40, 0.72}, {0.22, 0.88}},
                    {{0.22, 0.88}, {0.80, 0.88}}};
        case 3:
            return {arc(0.48, 0.30, 0.26, 0.19, -pi, 0.6 * pi, 14),
                    arc(0.48, 0.70, 0.28, 0.21, -0.6 * pi, pi, 14)};
        case 4:
            return {{{0.62, 0.12}, {0.22, 0.62}, {0.80, 0.62}},
                    {{0.62, 0.12}, {0.62, 0.88}}};
        case 5:
            return {{{0.75, 0.14}, {0.30, 0.14}, {0.27, 0.48}},
                    arc(0.50, 0.66, 0.27, 0.23, -0.55 * pi, 0.75 * pi, 16)};
        case 6:
            return {{{0.66, 0.12}, {0.40, 0.38}, {0.30, 0.62}},
                    arc(0.50, 0.68, 0.22, 0.20, 0.0, 2.0 * pi, 20)};
        case 7:
            return {{{0.22, 0.14}, {0.78, 0.14}, {0.44, 0.88}},
                    {{0.34, 0.50}, {0.66, 0.50}}};
        case 8:
            return {arc(0.5, 0.30, 0.22, 0.18, 0.0, 2.0 * pi, 20),
                    arc(0.5, 0.70, 0.26, 0.20, 0.0, 2.0 * pi, 20)};
        case 9:
            return {arc(0.5, 0.34, 0.23, 0.20, 0.0, 2.0 * pi, 20),
                    {{0.72, 0.38}, {0.66, 0.66}, {0.52, 0.88}}};
        default:
            throw std::invalid_argument("glyph_strokes: label must be 0-9");
    }
}

double point_segment_distance(double px, double py, const Point& a, const Point& b) {
    const double dx = b.x - a.x;
    const double dy = b.y - a.y;
    const double len2 = dx * dx + dy * dy;
    double t = 0.0;
    if (len2 > 0.0) t = std::clamp(((px - a.x) * dx + (py - a.y) * dy) / len2, 0.0, 1.0);
    const double cx = a.x + t * dx;
    const double cy = a.y + t * dy;
    return std::hypot(px - cx, py - cy);
}

/// render_digit into `image`, which holds image_dim² pixels; every pixel
/// is written.
void render_into(std::size_t label, util::Rng& rng, const SyntheticDigitsConfig& config,
                 std::span<float> image) {
    const std::size_t dim = config.image_dim;
    const double dim_d = static_cast<double>(dim);

    // Per-sample jitter: the 7 draws render_digit_draws counts before the
    // per-pixel noise.
    const double angle = rng.uniform(-config.max_rotation_rad, config.max_rotation_rad);
    const double scale = rng.uniform(config.min_scale, config.max_scale);
    const double shear = rng.uniform(-config.max_shear, config.max_shear);
    const double shift_x = rng.uniform(-config.max_shift_px, config.max_shift_px);
    const double shift_y = rng.uniform(-config.max_shift_px, config.max_shift_px);
    const double width =
        config.stroke_width_px *
        (1.0 + rng.uniform(-config.stroke_width_jitter, config.stroke_width_jitter));
    const double brightness =
        1.0 - rng.uniform(0.0, config.intensity_jitter);

    const double cos_a = std::cos(angle), sin_a = std::sin(angle);
    auto transform = [&](const Point& p) -> Point {
        // Centre, shear, rotate, scale, then map to pixel coordinates.
        const double ux = p.x - 0.5 + shear * (p.y - 0.5);
        const double uy = p.y - 0.5;
        const double rx = cos_a * ux - sin_a * uy;
        const double ry = sin_a * ux + cos_a * uy;
        return {(0.5 + scale * rx) * dim_d + shift_x,
                (0.5 + scale * ry) * dim_d + shift_y};
    };

    std::vector<Polyline> strokes = glyph_strokes(label);
    for (auto& stroke : strokes)
        for (auto& p : stroke) p = transform(p);

    const double softness = std::max(config.softness_px, 1e-3);
    for (std::size_t row = 0; row < dim; ++row) {
        for (std::size_t col = 0; col < dim; ++col) {
            const double px = static_cast<double>(col) + 0.5;
            const double py = static_cast<double>(row) + 0.5;
            double best = 1e9;
            for (const auto& stroke : strokes) {
                for (std::size_t s = 1; s < stroke.size(); ++s) {
                    best = std::min(best, point_segment_distance(px, py, stroke[s - 1],
                                                                 stroke[s]));
                    if (best <= 0.0) break;
                }
            }
            // Soft pen: full intensity inside the core, linear falloff.
            const double core = 0.5 * width;
            double value = 0.0;
            if (best <= core) {
                value = 1.0;
            } else if (best <= core + softness) {
                value = 1.0 - (best - core) / softness;
            }
            value = value * brightness +
                    rng.uniform(0.0, config.pixel_noise);
            image[row * dim + col] = static_cast<float>(std::clamp(value, 0.0, 1.0));
        }
    }
}

}  // namespace

std::vector<float> render_digit(std::size_t label, util::Rng& rng,
                                const SyntheticDigitsConfig& config) {
    std::vector<float> image(config.image_dim * config.image_dim);
    render_into(label, rng, config, image);
    return image;
}

snn::Dataset make_synthetic_dataset(std::size_t count, std::uint64_t seed,
                                    const SyntheticDigitsConfig& config,
                                    util::ThreadPool* pool) {
    snn::Dataset dataset;
    dataset.image_size = config.image_dim * config.image_dim;
    // Allocated here and filled on the pool: the images outlive its tasks,
    // so they stay in this thread's malloc arena instead of spreading over
    // the workers' (which raises the peak RSS).
    dataset.images.assign(count, std::vector<float>(dataset.image_size));
    dataset.labels.reserve(count);
    for (std::size_t i = 0; i < count; ++i) dataset.labels.push_back(i % 10);

    const util::Rng start(util::derive_seed(seed, /*stream_id=*/0xDA7A));
    const std::uint64_t draws = render_digit_draws(config);
    const std::size_t chunks = util::chunk_count(pool, count);
    util::for_each_index(pool, chunks, [&](std::size_t c) {
        const std::size_t first = c * count / chunks;
        const std::size_t last = (c + 1) * count / chunks;
        util::Rng rng = start;
        rng.advance(first * draws);
        for (std::size_t i = first; i < last; ++i)
            render_into(dataset.labels[i], rng, config, dataset.images[i]);
    });
    // Shuffle images and labels with a common permutation, drawn where the
    // last sample's draws end.
    util::Rng rng = start;
    rng.advance(count * draws);
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i) order[i] = i;
    rng.shuffle(std::span<std::size_t>(order));
    snn::Dataset shuffled;
    shuffled.image_size = dataset.image_size;
    shuffled.images.reserve(count);
    shuffled.labels.reserve(count);
    for (const std::size_t idx : order) {
        shuffled.images.push_back(std::move(dataset.images[idx]));
        shuffled.labels.push_back(dataset.labels[idx]);
    }
    return shuffled;
}

}  // namespace snnfi::data
