// Poisson rate encoding of images into spike trains (BindsNET-style).
//
// Pixel intensity in [0,1] maps to a firing rate of intensity*max_rate_hz;
// each simulation step of dt draws an independent Bernoulli with
// p = rate*dt. Only pixels with non-zero intensity are visited.
//
// A SpikeRaster is one such stream encoded once over a whole dataset.
// Nothing in a network feeds back into the encoder's draws, so every
// training pass that starts from the same stream state over the same
// images sees the same spikes: they replay the raster instead of drawing
// them again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace snnfi::snn {

struct PoissonEncoderConfig {
    double max_rate_hz = 128.0;  ///< rate of a full-intensity pixel
    double dt_ms = 1.0;          ///< simulation step

    bool operator==(const PoissonEncoderConfig&) const = default;
};

/// One sample's input spikes: step s is the ascending index list
/// indices[offsets[s], offsets[s + 1]). `indices` may run past
/// offsets.back(); the buffers only grow, so a reused record stops
/// allocating once it has held its largest sample.
struct SampleSpikes {
    std::vector<std::size_t> offsets;  ///< steps + 1 entries, offsets[0] == 0
    std::vector<std::uint32_t> indices;

    std::span<const std::uint32_t> step(std::size_t s) const noexcept {
        return {indices.data() + offsets[s], offsets[s + 1] - offsets[s]};
    }
};

/// Stateless per-step spike generator over one image.
class PoissonEncoder {
public:
    explicit PoissonEncoder(PoissonEncoderConfig config = {});

    /// Binds the encoder to an image (intensities in [0,1]). Pixels outside
    /// [0,1] are clamped. Resets internal step bookkeeping.
    void set_image(std::span<const float> image);

    /// Samples the active input indices for one timestep into `out`
    /// (cleared first). Deterministic given the Rng stream.
    void step(util::Rng& rng, std::vector<std::uint32_t>& out) const;

    /// Samples `steps` timesteps into `out`: one step() per timestep, the
    /// same draws in the same order.
    void encode(util::Rng& rng, std::size_t steps, SampleSpikes& out) const;

    std::size_t size() const noexcept { return probabilities_.size(); }
    /// Pixels that can fire: every step draws once for each of them.
    std::size_t active() const noexcept { return active_pixels_.size(); }

private:
    /// The Bernoulli loop behind step() and encode(): writes the step's
    /// active indices to `out` (room for every active pixel) and returns
    /// how many it wrote.
    std::size_t step_into(util::Rng& rng, std::uint32_t* out) const;

    PoissonEncoderConfig config_;
    /// Per-pixel Bernoulli probability; parallel array of active indices.
    std::vector<float> probabilities_;
    std::vector<std::uint32_t> active_pixels_;  ///< pixels with p > 0
    /// ceil(p * 2^53) per active pixel, parallel to active_pixels_. Lets
    /// step() test `draw < threshold` on the raw 53-bit draw instead of
    /// converting to double — bit-identical to `uniform() < p` because both
    /// the scaling of the draw by 2^-53 and of p by 2^53 are exact.
    std::vector<std::uint64_t> thresholds_;
};

/// Convenience: one image's `steps` timesteps as nested vectors (tests and
/// the benchmark probes).
std::vector<std::vector<std::uint32_t>> encode_raster(const PoissonEncoder& encoder,
                                                      std::size_t steps,
                                                      util::Rng& rng);

/// One Poisson stream over a dataset, encoded once and immutable after:
/// sample i holds what PoissonEncoder::encode draws for images[i] when the
/// stream starts at `start` and runs through images[0..i). The start and
/// end stream states are kept, so a pass that replays the raster can leave
/// its Rng exactly where a live-encoding pass would.
///
/// Sample i's draws start active(images[j]) x steps draws into the stream,
/// summed over j < i: the count does not depend on the draws. So chunks of
/// samples encode in parallel, each from its own util::Rng::advance jump,
/// and the raster is the same with or without a pool.
///
/// Storage: one exact-size byte vector per sample. Each step is its spike
/// count, then the gaps between consecutive ascending indices (the first
/// gap is the first index), all unsigned LEB128. A full-size dataset
/// (1000 digits x 250 steps) takes about 4.7 MiB.
class SpikeRaster {
public:
    /// Encodes `steps` timesteps of every image, in order, from `start`,
    /// in chunks on `pool` when one is given. Throws std::invalid_argument
    /// when the images differ in size.
    static SpikeRaster encode(const PoissonEncoderConfig& config, std::size_t steps,
                              std::span<const std::vector<float>> images,
                              util::Rng start, util::ThreadPool* pool = nullptr);

    std::size_t samples() const noexcept { return samples_.size(); }
    std::size_t steps_per_sample() const noexcept { return steps_; }
    std::size_t image_size() const noexcept { return image_size_; }
    const PoissonEncoderConfig& config() const noexcept { return config_; }
    const util::Rng& start_rng() const noexcept { return start_; }
    const util::Rng& end_rng() const noexcept { return end_; }
    /// Encoded bytes over all samples.
    std::size_t bytes() const noexcept { return bytes_; }

    /// Fills `out` with sample `sample`'s spikes, exactly as they were
    /// encoded. Throws std::out_of_range on a sample index past the end.
    void decode(std::size_t sample, SampleSpikes& out) const;

private:
    SpikeRaster() = default;

    PoissonEncoderConfig config_;
    std::size_t steps_ = 0;
    std::size_t image_size_ = 0;
    std::size_t max_spikes_ = 0;  ///< the densest sample's spike count
    std::size_t bytes_ = 0;
    util::Rng start_;
    util::Rng end_;
    std::vector<std::vector<std::uint8_t>> samples_;
};

}  // namespace snnfi::snn
