#include "snn/encoding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace snnfi::snn {

namespace {

/// Which way a sample's input spikes were produced: drawn from the
/// encoder, or decoded from a raster. No-ops while telemetry is off.
struct EncodingMetrics {
    obs::Counter& encoded;
    obs::Counter& replayed;

    static EncodingMetrics& get() {
        static EncodingMetrics metrics{
            obs::Registry::global().counter("snn.samples.encoded"),
            obs::Registry::global().counter("snn.samples.replayed")};
        return metrics;
    }
};

void put_varint(std::vector<std::uint8_t>& out, std::size_t value) {
    for (; value >= 0x80; value >>= 7)
        out.push_back(static_cast<std::uint8_t>(value | 0x80));
    out.push_back(static_cast<std::uint8_t>(value));
}

std::size_t get_varint(const std::uint8_t*& in) {
    std::size_t value = 0;
    unsigned shift = 0;
    std::uint8_t byte = 0;
    do {
        byte = *in++;
        value |= static_cast<std::size_t>(byte & 0x7f) << shift;
        shift += 7;
    } while (byte & 0x80);
    return value;
}

}  // namespace

PoissonEncoder::PoissonEncoder(PoissonEncoderConfig config) : config_(config) {}

void PoissonEncoder::set_image(std::span<const float> image) {
    probabilities_.assign(image.size(), 0.0f);
    active_pixels_.clear();
    thresholds_.clear();
    const double p_full = config_.max_rate_hz * config_.dt_ms * 1e-3;
    for (std::size_t i = 0; i < image.size(); ++i) {
        const float intensity = std::clamp(image[i], 0.0f, 1.0f);
        if (intensity <= 0.0f) continue;
        const float p = static_cast<float>(
            std::min(1.0, static_cast<double>(intensity) * p_full));
        probabilities_[i] = p;
        active_pixels_.push_back(static_cast<std::uint32_t>(i));
        // For integer x in [0, 2^53): x*2^-53 < p  ⟺  x < ceil(p*2^53).
        // p -> double and the scale by 2^53 are both exact, so this is the
        // same predicate `uniform() < p` evaluates — not an approximation.
        thresholds_.push_back(static_cast<std::uint64_t>(
            std::ceil(static_cast<double>(p) * 0x1.0p53)));
    }
}

std::size_t PoissonEncoder::step_into(util::Rng& rng, std::uint32_t* out) const {
    const std::size_t n_active = active_pixels_.size();
    const std::uint32_t* pixels = active_pixels_.data();
    const std::uint64_t* thresholds = thresholds_.data();
    std::size_t count = 0;
    // Branch-free Bernoulli loop: always stage the candidate pixel, advance
    // the write cursor only on success. Draw order (one next_u64 per active
    // pixel, ascending) is the determinism contract — kernels downstream
    // assume the emitted indices are ascending, and any reordering here
    // changes every golden in the repo.
    for (std::size_t k = 0; k < n_active; ++k) {
        const std::uint64_t draw = rng.next_u64() >> 11;
        out[count] = pixels[k];
        count += static_cast<std::size_t>(draw < thresholds[k]);
    }
    return count;
}

void PoissonEncoder::step(util::Rng& rng, std::vector<std::uint32_t>& out) const {
    out.resize(active_pixels_.size());
    out.resize(step_into(rng, out.data()));
}

void PoissonEncoder::encode(util::Rng& rng, std::size_t steps,
                            SampleSpikes& out) const {
    const std::size_t n_active = active_pixels_.size();
    out.offsets.resize(steps + 1);
    out.offsets[0] = 0;
    std::size_t count = 0;
    for (std::size_t s = 0; s < steps; ++s) {
        // Room for every active pixel to fire; the capacity grows
        // geometrically, so a reused record soon stops allocating.
        if (out.indices.size() < count + n_active) out.indices.resize(count + n_active);
        count += step_into(rng, out.indices.data() + count);
        out.offsets[s + 1] = count;
    }
    EncodingMetrics::get().encoded.add();
}

std::vector<std::vector<std::uint32_t>> encode_raster(const PoissonEncoder& encoder,
                                                      std::size_t steps,
                                                      util::Rng& rng) {
    std::vector<std::vector<std::uint32_t>> raster(steps);
    for (auto& row : raster) encoder.step(rng, row);
    return raster;
}

SpikeRaster SpikeRaster::encode(const PoissonEncoderConfig& config, std::size_t steps,
                                std::span<const std::vector<float>> images,
                                util::Rng start, util::ThreadPool* pool) {
    SpikeRaster raster;
    raster.config_ = config;
    raster.steps_ = steps;
    raster.image_size_ = images.empty() ? 0 : images.front().size();
    raster.start_ = start;
    // Where each sample's draws start: active pixels x steps per sample
    // before it, counted by set_image itself, so pixels it clamps or skips
    // (negative, above 1, NaN) count exactly as they draw.
    std::vector<std::uint64_t> first_draw(images.size() + 1, 0);
    {
        PoissonEncoder encoder(config);
        for (std::size_t i = 0; i < images.size(); ++i) {
            if (images[i].size() != raster.image_size_)
                throw std::invalid_argument("SpikeRaster::encode: images differ in size");
            encoder.set_image(images[i]);
            first_draw[i + 1] = first_draw[i] + std::uint64_t{encoder.active()} * steps;
        }
    }

    raster.samples_.resize(images.size());
    const std::size_t chunks = util::chunk_count(pool, images.size());
    std::vector<std::size_t> chunk_bytes(chunks, 0);
    std::vector<std::size_t> chunk_max_spikes(chunks, 0);
    util::for_each_index(pool, chunks, [&](std::size_t c) {
        const std::size_t first = c * images.size() / chunks;
        const std::size_t last = (c + 1) * images.size() / chunks;
        PoissonEncoder encoder(config);
        std::vector<std::uint32_t> active;
        std::vector<std::uint8_t> bytes;
        util::Rng rng = start;
        rng.advance(first_draw[first]);
        for (std::size_t i = first; i < last; ++i) {
            encoder.set_image(images[i]);
            bytes.clear();
            std::size_t spikes = 0;
            for (std::size_t s = 0; s < steps; ++s) {
                encoder.step(rng, active);
                put_varint(bytes, active.size());
                std::uint32_t previous = 0;
                for (const std::uint32_t index : active) {
                    put_varint(bytes, index - previous);
                    previous = index;
                }
                spikes += active.size();
            }
            // Copied at its exact size: the scratch buffer's slack stays behind.
            raster.samples_[i].assign(bytes.begin(), bytes.end());
            chunk_bytes[c] += bytes.size();
            chunk_max_spikes[c] = std::max(chunk_max_spikes[c], spikes);
        }
    });
    for (std::size_t c = 0; c < chunks; ++c) {
        raster.bytes_ += chunk_bytes[c];
        raster.max_spikes_ = std::max(raster.max_spikes_, chunk_max_spikes[c]);
    }
    raster.end_ = start;
    raster.end_.advance(first_draw.back());
    EncodingMetrics::get().encoded.add(images.size());
    return raster;
}

void SpikeRaster::decode(std::size_t sample, SampleSpikes& out) const {
    if (sample >= samples_.size())
        throw std::out_of_range("SpikeRaster::decode: sample index out of range");
    if (out.indices.size() < max_spikes_) out.indices.resize(max_spikes_);
    out.offsets.resize(steps_ + 1);
    out.offsets[0] = 0;
    const std::uint8_t* in = samples_[sample].data();
    std::uint32_t* indices = out.indices.data();
    std::size_t count = 0;
    for (std::size_t s = 0; s < steps_; ++s) {
        const std::size_t n = get_varint(in);
        std::size_t index = 0;
        for (std::size_t k = 0; k < n; ++k) {
            index += get_varint(in);
            indices[count++] = static_cast<std::uint32_t>(index);
        }
        out.offsets[s + 1] = count;
    }
    EncodingMetrics::get().replayed.add();
}

}  // namespace snnfi::snn
