#include "snn/encoding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace snnfi::snn {
namespace {

TEST(PoissonEncoder, ZeroImageProducesNoSpikes) {
    PoissonEncoder encoder;
    encoder.set_image(std::vector<float>(100, 0.0f));
    util::Rng rng(1);
    std::vector<std::uint32_t> active;
    for (int step = 0; step < 100; ++step) {
        encoder.step(rng, active);
        EXPECT_TRUE(active.empty());
    }
}

TEST(PoissonEncoder, RateMatchesIntensity) {
    PoissonEncoderConfig config;
    config.max_rate_hz = 100.0;
    config.dt_ms = 1.0;
    PoissonEncoder encoder(config);
    std::vector<float> image(2, 0.0f);
    image[0] = 1.0f;   // 100 Hz -> p = 0.1/step
    image[1] = 0.25f;  // 25 Hz -> p = 0.025/step
    encoder.set_image(image);

    util::Rng rng(7);
    std::vector<std::uint32_t> active;
    int count0 = 0, count1 = 0;
    const int steps = 40000;
    for (int step = 0; step < steps; ++step) {
        encoder.step(rng, active);
        for (const auto idx : active) {
            if (idx == 0) ++count0;
            if (idx == 1) ++count1;
        }
    }
    EXPECT_NEAR(static_cast<double>(count0) / steps, 0.1, 0.01);
    EXPECT_NEAR(static_cast<double>(count1) / steps, 0.025, 0.005);
}

TEST(PoissonEncoder, DeterministicGivenSeed) {
    PoissonEncoder encoder;
    std::vector<float> image(50, 0.3f);
    encoder.set_image(image);
    util::Rng rng_a(99), rng_b(99);
    const auto raster_a = encode_raster(encoder, 200, rng_a);
    const auto raster_b = encode_raster(encoder, 200, rng_b);
    EXPECT_EQ(raster_a, raster_b);
}

TEST(PoissonEncoder, IntensityClampedToUnitRange) {
    PoissonEncoderConfig config;
    config.max_rate_hz = 500.0;
    config.dt_ms = 1.0;
    PoissonEncoder encoder(config);
    std::vector<float> image = {5.0f, -2.0f};  // clamp to 1 and 0
    encoder.set_image(image);
    util::Rng rng(3);
    std::vector<std::uint32_t> active;
    int count0 = 0, count1 = 0;
    for (int step = 0; step < 2000; ++step) {
        encoder.step(rng, active);
        for (const auto idx : active) {
            if (idx == 0) ++count0;
            if (idx == 1) ++count1;
        }
    }
    EXPECT_NEAR(count0 / 2000.0, 0.5, 0.05);  // p clamped at rate*dt = 0.5
    EXPECT_EQ(count1, 0);
}

TEST(PoissonEncoder, ProbabilityCappedAtOne) {
    PoissonEncoderConfig config;
    config.max_rate_hz = 5000.0;  // p would exceed 1
    PoissonEncoder encoder(config);
    encoder.set_image(std::vector<float>{1.0f});
    util::Rng rng(5);
    std::vector<std::uint32_t> active;
    for (int step = 0; step < 100; ++step) {
        encoder.step(rng, active);
        ASSERT_EQ(active.size(), 1u);  // fires every step, never more
    }
}

TEST(PoissonEncoder, SizeTracksImage) {
    PoissonEncoder encoder;
    encoder.set_image(std::vector<float>(784, 0.5f));
    EXPECT_EQ(encoder.size(), 784u);
}

/// Property: total spike count scales linearly with intensity.
class EncoderRateSweep : public ::testing::TestWithParam<float> {};

TEST_P(EncoderRateSweep, MeanRateProportionalToIntensity) {
    const float intensity = GetParam();
    PoissonEncoderConfig config;
    config.max_rate_hz = 128.0;
    PoissonEncoder encoder(config);
    encoder.set_image(std::vector<float>(20, intensity));
    util::Rng rng(31);
    std::vector<std::uint32_t> active;
    std::size_t total = 0;
    const int steps = 20000;
    for (int step = 0; step < steps; ++step) {
        encoder.step(rng, active);
        total += active.size();
    }
    const double expected = 20.0 * intensity * 0.128 * steps / 1000.0 * 1000.0;
    const double measured = static_cast<double>(total);
    EXPECT_NEAR(measured, expected, expected * 0.05 + 20.0);
}

INSTANTIATE_TEST_SUITE_P(Intensities, EncoderRateSweep,
                         ::testing::Values(0.1f, 0.3f, 0.5f, 0.9f));

// --- SpikeRaster: one stream encoded once, replayed exactly ------------------

/// Random digit-like images (about a third of the pixels dark), an
/// all-zero image (every step empty) and an all-ones image, which at
/// 1000 Hz fires every pixel on every step (784-spike steps need a
/// two-byte count).
std::vector<std::vector<float>> raster_images() {
    util::Rng rng(17);
    std::vector<std::vector<float>> images;
    for (int i = 0; i < 4; ++i) {
        std::vector<float> image(784);
        for (float& x : image)
            x = rng.uniform() < 0.35 ? 0.0f : static_cast<float>(rng.uniform());
        images.push_back(std::move(image));
    }
    images.emplace_back(784, 0.0f);
    images.emplace_back(784, 1.0f);
    return images;
}

TEST(SpikeRaster, DecodesExactlyWhatTheEncoderEmits) {
    PoissonEncoderConfig config;
    config.max_rate_hz = 1000.0;
    const std::size_t steps = 60;
    const auto images = raster_images();
    const util::Rng start(23);
    const SpikeRaster raster = SpikeRaster::encode(config, steps, images, start);
    ASSERT_EQ(raster.samples(), images.size());
    EXPECT_EQ(raster.steps_per_sample(), steps);
    EXPECT_EQ(raster.image_size(), 784u);
    EXPECT_EQ(raster.config(), config);
    EXPECT_EQ(raster.start_rng(), start);

    // The live stream, step by step from the same start state.
    PoissonEncoder encoder(config);
    util::Rng live = start;
    std::vector<std::uint32_t> active;
    SampleSpikes decoded;
    std::size_t spikes = 0;
    for (std::size_t i = 0; i < images.size(); ++i) {
        encoder.set_image(images[i]);
        raster.decode(i, decoded);
        ASSERT_EQ(decoded.offsets.size(), steps + 1);
        for (std::size_t s = 0; s < steps; ++s) {
            encoder.step(live, active);
            const auto step = decoded.step(s);
            ASSERT_EQ(std::vector<std::uint32_t>(step.begin(), step.end()), active)
                << "sample " << i << " step " << s;
            spikes += active.size();
        }
    }
    EXPECT_EQ(raster.end_rng(), live);
    EXPECT_NE(raster.end_rng(), start);

    // The all-zero sample has only empty steps, the all-ones one fires
    // every pixel every step.
    raster.decode(4, decoded);
    EXPECT_EQ(decoded.offsets.back(), 0u);
    raster.decode(5, decoded);
    for (std::size_t s = 0; s < steps; ++s) ASSERT_EQ(decoded.step(s).size(), 784u);
    // Varints: at least one byte per spike and per step count, and well
    // under four bytes per spike.
    EXPECT_GE(raster.bytes(), spikes + steps * images.size());
    EXPECT_LT(raster.bytes(), 4 * spikes);
}

TEST(SpikeRaster, EncodeMatchesSteppingIntoASampleRecord) {
    const auto images = raster_images();
    PoissonEncoder encoder;
    util::Rng a(5);
    util::Rng b(5);
    SampleSpikes spikes;
    std::vector<std::uint32_t> active;
    for (const auto& image : images) {
        encoder.set_image(image);
        encoder.encode(a, 40, spikes);
        for (std::size_t s = 0; s < 40; ++s) {
            encoder.step(b, active);
            const auto step = spikes.step(s);
            ASSERT_EQ(std::vector<std::uint32_t>(step.begin(), step.end()), active);
        }
    }
    EXPECT_EQ(a, b);
}

/// `count` images cycling through the cases a chunk boundary must count
/// exactly as the encoder draws: dense noise, a dark image (no active
/// pixel), and pixels below 0, above 1 and NaN.
std::vector<std::vector<float>> mixed_images(std::size_t count) {
    util::Rng rng(29);
    std::vector<std::vector<float>> images;
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<float> image(784, 0.0f);
        switch (i % 4) {
            case 0:
                for (float& x : image) x = static_cast<float>(rng.uniform());
                break;
            case 1:
                break;  // no active pixel
            case 2:
                for (std::size_t p = 0; p < image.size(); p += 3)
                    image[p] = static_cast<float>(rng.uniform(-1.0, 2.0));
                break;
            default:
                for (std::size_t p = 0; p < image.size(); p += 5)
                    image[p] = p % 2 == 0 ? std::nanf("") : 0.3f;
                break;
        }
        images.push_back(std::move(image));
    }
    return images;
}

TEST(SpikeRaster, SameOnAnyPool) {
    PoissonEncoderConfig config;
    config.max_rate_hz = 400.0;
    const std::size_t steps = 12;
    util::ThreadPool one(1);
    util::ThreadPool two(2);
    util::ThreadPool four(4);
    util::Rng start(41);
    (void)start.normal();  // a pending deviate must ride through to end_rng
    for (const std::size_t count : {0u, 1u, 2u, 31u, 33u, 300u}) {
        const auto images = mixed_images(count);
        const SpikeRaster serial = SpikeRaster::encode(config, steps, images, start);
        ASSERT_EQ(serial.samples(), count);
        for (util::ThreadPool* pool : {&one, &two, &four}) {
            const SpikeRaster pooled = SpikeRaster::encode(config, steps, images, start, pool);
            const std::string where = std::to_string(count) + " images, " +
                                      std::to_string(pool->max_workers()) + " workers";
            ASSERT_EQ(pooled.samples(), count) << where;
            EXPECT_EQ(pooled.bytes(), serial.bytes()) << where;
            EXPECT_EQ(pooled.start_rng(), serial.start_rng()) << where;
            EXPECT_EQ(pooled.end_rng(), serial.end_rng()) << where;
            SampleSpikes a;
            SampleSpikes b;
            for (std::size_t i = 0; i < count; ++i) {
                serial.decode(i, a);
                pooled.decode(i, b);
                ASSERT_EQ(a.offsets, b.offsets) << where << ", sample " << i;
                ASSERT_TRUE(std::equal(a.indices.begin(),
                                       a.indices.begin() + static_cast<std::ptrdiff_t>(a.offsets.back()),
                                       b.indices.begin()))
                    << where << ", sample " << i;
            }
        }
        // And the serial raster is the live stream, from `start` to its end.
        PoissonEncoder encoder(config);
        util::Rng live = start;
        SampleSpikes drawn;
        for (const auto& image : images) {
            encoder.set_image(image);
            encoder.encode(live, steps, drawn);
        }
        EXPECT_EQ(serial.end_rng(), live) << count << " images";
    }
}

TEST(SpikeRaster, RejectsRaggedImagesAndBadSampleIndex) {
    const std::vector<std::vector<float>> ragged{std::vector<float>(10, 0.5f),
                                                 std::vector<float>(11, 0.5f)};
    EXPECT_THROW(SpikeRaster::encode({}, 5, ragged, util::Rng(1)),
                 std::invalid_argument);
    util::ThreadPool pool(2);
    EXPECT_THROW(SpikeRaster::encode({}, 5, ragged, util::Rng(1), &pool),
                 std::invalid_argument);
    const std::vector<std::vector<float>> one{std::vector<float>(10, 0.5f)};
    const SpikeRaster raster = SpikeRaster::encode({}, 5, one, util::Rng(1));
    SampleSpikes out;
    EXPECT_THROW(raster.decode(1, out), std::out_of_range);
}

}  // namespace
}  // namespace snnfi::snn
