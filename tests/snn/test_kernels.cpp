// Kernel-layer equivalence: the blocked/predicated hot-path kernels must
// be BIT-identical to their naive scalar references — across shapes that
// exercise every unroll tail and padding edge, across random fault state
// in both layer-update shapes, and through NetworkRuntime/BatchRunner
// (patch lists, merge-join vs binary-search adopt_drive, a patched
// replica's own run vs its batch-member run), and reference-driven batches
// whose dormant members must equal their standalone twins bit for bit.
// Plus the steady-state no-allocation guarantee of the sample loop.
#include "snn/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "obs/metrics.hpp"
#include "snn/runtime.hpp"
#include "snn/tensor.hpp"
#include "snn/trainer.hpp"
#include "util/random.hpp"

namespace {

// --- allocation counting (used by the steady-state test) -----------------
// Replacing global operator new in the test binary counts every heap
// allocation made by the code under test. Counting is always on; the test
// reads the counter around the hot loop. The nothrow forms are replaced
// too: every form a replaced delete can free must come from the same
// malloc, or a sanitizer's own nothrow new (std::stable_sort's temporary
// buffer) meets our delete as an alloc-dealloc mismatch.
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto alignment = static_cast<std::size_t>(align);
    return std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
}

}  // namespace

void* operator new(std::size_t size) {
    if (void* p = counted_malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
    if (void* p = counted_aligned_alloc(size, align)) return p;
    throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
    return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}

namespace snnfi::snn {

/// White-box access to NetworkRuntime internals for the adopt_drive,
/// drive-aliasing and patch-list checks (friend of NetworkRuntime).
struct RuntimeTestPeer {
    static void adopt_drive(NetworkRuntime& runtime, std::span<const float> base,
                            std::span<const std::uint32_t> active) {
        runtime.adopt_drive(base, active);
    }
    static const float* drive(const NetworkRuntime& runtime) {
        return runtime.drive_;
    }
    static std::vector<std::uint32_t> exc_patch(const NetworkRuntime& runtime) {
        return runtime.exc_.patch;
    }
    static std::vector<std::uint32_t> inh_patch(const NetworkRuntime& runtime) {
        return runtime.inh_.patch;
    }
    static std::vector<std::tuple<std::uint32_t, std::uint32_t, float>> deltas(
        const NetworkRuntime& runtime) {
        std::vector<std::tuple<std::uint32_t, std::uint32_t, float>> out;
        for (const auto& cell : runtime.cell_deltas_)
            out.emplace_back(cell.pre, cell.post, cell.delta);
        return out;
    }
    /// How the runtime took its last sample in a reference-driven batch.
    static bool ended_dormant(const NetworkRuntime& runtime) {
        return runtime.follow_ == NetworkRuntime::Follow::kDormant;
    }
    static bool woke(const NetworkRuntime& runtime) {
        return runtime.follow_ == NetworkRuntime::Follow::kWoke;
    }
};

namespace {

namespace kernels = snn::kernels;

DiehlCookConfig tiny_config() {
    DiehlCookConfig cfg;
    cfg.n_neurons = 24;
    cfg.steps_per_sample = 120;
    return cfg;
}

std::vector<float> random_image(util::Rng& rng, std::size_t n) {
    std::vector<float> image(n);
    for (float& x : image) x = static_cast<float>(rng.uniform());
    return image;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// --- drive accumulation ---------------------------------------------------

TEST(Kernels, PaddedSizeRoundsUpToStride) {
    EXPECT_EQ(kernels::padded_size(0), 0u);
    EXPECT_EQ(kernels::padded_size(1), kernels::kPadFloats);
    EXPECT_EQ(kernels::padded_size(16), 16u);
    EXPECT_EQ(kernels::padded_size(17), 32u);
    EXPECT_EQ(kernels::padded_size(100), 112u);
}

TEST(Kernels, MatrixPaddingLanesStayZero) {
    Matrix m(3, 13, 0.5f);
    m.fill(2.0f);
    m.scale_column(4, 3.0f);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const auto padded = m.padded_row(r);
        for (std::size_t j = m.cols(); j < padded.size(); ++j)
            EXPECT_EQ(padded[j], 0.0f) << "row " << r << " lane " << j;
    }
}

/// A shape whose padded row length or storage size wraps std::size_t is
/// rejected before anything is allocated or written.
TEST(Kernels, MatrixRejectsOverflowingShapes) {
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    // padded_size(kMax) would wrap to 0.
    EXPECT_THROW(Matrix(784, kMax), std::length_error);
    // 784 rows of 2^62 floats wrap to 0 (784 = 49 * 2^4).
    EXPECT_THROW(Matrix(784, std::size_t{1} << 62), std::length_error);
}

/// Blocked accumulation must be bit-identical to the one-row-at-a-time
/// reference for every unroll tail (active sizes 0..9) and for logical
/// widths off the SIMD/padding grid.
TEST(Kernels, BlockedAccumulationBitIdenticalToReference) {
    util::Rng rng(41);
    const std::size_t n_pre = 37;
    for (const std::size_t n : {1u, 3u, 13u, 16u, 17u, 33u, 48u, 100u}) {
        Matrix weights(n_pre, n);
        for (std::size_t r = 0; r < n_pre; ++r) {
            for (float& w : weights.row(r))
                w = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
        std::vector<const float*> rows(n_pre);
        for (std::size_t r = 0; r < n_pre; ++r)
            rows[r] = weights.padded_row(r).data();
        const std::size_t padded = kernels::padded_size(n);
        for (std::size_t n_active = 0; n_active <= 9; ++n_active) {
            std::vector<std::uint32_t> active;
            for (std::uint32_t r = 0; r < n_pre; ++r) {
                if (rng.uniform() < static_cast<double>(n_active) / n_pre)
                    active.push_back(r);
            }
            AlignedVector padded_out(padded, 0.25f);
            std::vector<float> logical_out(n, 0.25f);
            std::vector<float> reference(n, 0.25f);
            kernels::accumulate_rows(weights.data(), weights.stride(), active,
                                     padded_out.data(), padded);
            kernels::accumulate_rows(weights.data(), weights.stride(), active,
                                     logical_out.data(), n);
            kernels::accumulate_rows_reference(rows.data(), active,
                                               reference.data(), n);
            ASSERT_TRUE(same_bits({padded_out.data(), n}, reference))
                << "padded length, n=" << n << " active=" << active.size();
            ASSERT_TRUE(same_bits(logical_out, reference))
                << "logical length, n=" << n << " active=" << active.size();
        }
    }
}

// --- neuron update: both layer shapes vs the scalar oracle ------------------

/// One layer's fault arrays with `n_faulty` random neurons carrying one
/// random non-identity field each; `patch` lists them, ascending.
struct RandomFaults {
    std::vector<float> thresh_scale, drive_gain;
    std::vector<std::uint8_t> forced;
    std::vector<std::int32_t> refrac_period;
    std::vector<std::uint32_t> everyone, patch;

    RandomFaults(util::Rng& rng, std::size_t n, std::size_t n_faulty, std::int32_t refrac)
        : thresh_scale(n, 1.0f), drive_gain(n, 1.0f), forced(n, 0),
          refrac_period(n, refrac), everyone(n) {
        std::iota(everyone.begin(), everyone.end(), 0u);
        patch = everyone;
        rng.shuffle(std::span<std::uint32_t>(patch));
        patch.resize(n_faulty);
        std::sort(patch.begin(), patch.end());
        for (const std::uint32_t i : patch) {
            switch (rng.below(4)) {
                case 0: forced[i] = static_cast<std::uint8_t>(1 + rng.below(2)); break;
                case 1: drive_gain[i] = static_cast<float>(rng.uniform(0.3, 2.0)); break;
                case 2: thresh_scale[i] = static_cast<float>(rng.uniform(0.6, 1.4));
                        break;
                default:  // any period in 0..9 but the nominal one
                    refrac_period[i] =
                        (refrac + 1 + static_cast<std::int32_t>(rng.below(9))) % 10;
            }
        }
    }
    kernels::LayerFaults view(std::span<const std::uint32_t> list) const {
        return {thresh_scale.data(), drive_gain.data(), forced.data(),
                refrac_period.data(), list};
    }
};

struct LayerRun {
    std::vector<float> v, theta;
    std::vector<std::int32_t> refrac;
    std::vector<std::uint8_t> spiked;
    std::size_t count = 0;

    LayerRun(std::size_t n, float v_rest)
        : v(n, v_rest), theta(n, 0.0f), refrac(n, 0), spiked(n, 0) {}
    bool operator==(const LayerRun& o) const {
        return count == o.count && same_bits(v, o.v) && same_bits(theta, o.theta) &&
               refrac == o.refrac && spiked == o.spiked;
    }
};

/// Each layer runs three ways from the same state: exc_update/inh_update
/// with the true patch list (the identity loop, plus a redo when the list
/// is short), with every neuron listed (the fault-aware loop over the
/// layer; identity neurons must come out unchanged), and the oracle. All
/// three must agree bit for bit, step after step.
TEST(Kernels, LayerUpdateShapesBitIdenticalToOracle) {
    util::Rng rng(97);
    kernels::ExcParams ep{.v_rest = -65.0f, .v_reset = -60.0f, .decay = 0.99f,
                          .thresh_span = 13.0f, .theta_decay = 0.999999f,
                          .theta_plus = 0.05f, .refrac_steps = 5, .w_inh = -17.5f};
    const kernels::InhParams ip{.v_rest = -60.0f, .v_reset = -45.0f, .decay = 0.9f,
                                .thresh_span = 20.0f, .refrac_steps = 2, .w_exc = 22.5f};
    for (const float driver_gain : {1.0f, 0.7f}) {
        ep.driver_gain = driver_gain;
        for (const std::size_t n : {5u, 16u, 24u, 33u, 100u}) {
            for (const std::size_t n_faulty : {std::size_t{0}, n / 8, n / 2, n}) {
                const RandomFaults ef(rng, n, n_faulty, ep.refrac_steps);
                const RandomFaults hf(rng, n, n_faulty, ip.refrac_steps);
                std::vector<kernels::NeuronState> save(n);
                // [0] true patch list, [1] every neuron listed, [2] oracle.
                std::vector<LayerRun> exc(3, LayerRun(n, ep.v_rest));
                std::vector<LayerRun> inh(3, LayerRun(n, ip.v_rest));
                std::vector<std::uint8_t> inh_spiked(n, 0);
                std::vector<float> drive(n, 0.0f);
                for (std::size_t step = 0; step < 200; ++step) {
                    for (float& d : drive) d = static_cast<float>(rng.uniform(0.0, 30.0));
                    std::size_t inh_total = 0;
                    for (auto& s : inh_spiked) inh_total += s = rng.uniform() < 0.2;
                    for (std::size_t k = 0; k < 2; ++k) {
                        LayerRun& e = exc[k];
                        LayerRun& h = inh[k];
                        e.count = kernels::exc_update(
                            ep, ef.view(k == 0 ? ef.patch : ef.everyone), drive.data(),
                            inh_spiked.data(), inh_total, e.v.data(), e.refrac.data(),
                            e.theta.data(), e.spiked.data(), n, save.data());
                        h.count = kernels::inh_update(
                            ip, hf.view(k == 0 ? hf.patch : hf.everyone), e.spiked.data(),
                            h.v.data(), h.refrac.data(), h.spiked.data(), n, save.data());
                    }
                    LayerRun& e = exc[2];
                    LayerRun& h = inh[2];
                    e.count = kernels::exc_update_reference(
                        ep, ef.view(ef.patch), drive.data(), inh_spiked.data(), inh_total,
                        e.v.data(), e.refrac.data(), e.theta.data(), e.spiked.data(), n);
                    h.count = kernels::inh_update_reference(
                        ip, hf.view(hf.patch), e.spiked.data(), h.v.data(),
                        h.refrac.data(), h.spiked.data(), n);
                    for (std::size_t k = 0; k < 2; ++k) {
                        ASSERT_TRUE(exc[k] == e && inh[k] == h)
                            << "shape " << k << ", n=" << n << " faulty=" << n_faulty
                            << " step " << step;
                    }
                }
            }
        }
    }
}

// --- the runtime's patch lists ----------------------------------------------

/// Ops that compose to the identity (drive gain 1.0, scale 1.0, the
/// nominal refractory period) leave the patch lists empty: the runtime stays on
/// the identity loop and matches a clean runtime bit for bit, standalone
/// and as a batch member.
TEST(Kernels, IdentityOpsKeepTheIdentityLoop) {
    const auto model = NetworkModel::random(tiny_config(), 21);
    FaultOverlay identity;
    const std::size_t targets[] = {0, 5};
    identity.scale_driver_gain(targets, 1.0f)
        .scale_threshold(OverlayLayer::kInhibitory, targets, 1.0f)
        .override_refractory(OverlayLayer::kExcitatory, targets,
                             tiny_config().excitatory.lif.refrac_steps);
    NetworkRuntime clean(model);
    NetworkRuntime touched(model, identity);
    EXPECT_TRUE(touched.fast_path_active());
    NetworkRuntime batch_clean(model);
    NetworkRuntime batch_touched(model, identity);
    BatchRunner batch(*model, {&batch_clean, &batch_touched});
    std::vector<SampleActivity> activities(batch.size());
    util::Rng batch_rng(91);

    clean.rng().reseed(7);
    touched.rng().reseed(7);
    util::Rng image_rng(55);
    for (std::size_t sample = 0; sample < 4; ++sample) {
        const auto image = random_image(image_rng, model->config().n_input);
        const SampleActivity a = clean.run_sample(image);
        const SampleActivity b = touched.run_sample(image);
        ASSERT_EQ(a.exc_counts, b.exc_counts) << "sample " << sample;
        ASSERT_EQ(a.total_inh_spikes, b.total_inh_spikes) << "sample " << sample;
        ASSERT_TRUE(same_bits(clean.exc_theta(), touched.exc_theta()));
        batch.run_sample_into(image, batch_rng, activities);
        ASSERT_EQ(activities[0].exc_counts, activities[1].exc_counts);
        ASSERT_EQ(activities[0].total_inh_spikes, activities[1].total_inh_spikes);
    }
}

/// Every kind of non-identity op puts its neuron on its layer's patch
/// list, ascending, whatever order the ops came in.
TEST(Kernels, NonIdentityOpsBuildSortedPatchLists) {
    const auto model = NetworkModel::random(tiny_config(), 29);
    FaultOverlay faults;
    const std::size_t dead[] = {11}, saturated[] = {4}, gained[] = {2},
                      scaled[] = {7}, refrac[] = {3};
    faults.force_state(OverlayLayer::kExcitatory, dead, NeuronFault::kDead)
        .force_state(OverlayLayer::kExcitatory, saturated, NeuronFault::kSaturated)
        .scale_driver_gain(gained, 0.25f)
        .scale_threshold(OverlayLayer::kInhibitory, scaled, 1.3f)
        .override_refractory(OverlayLayer::kInhibitory, refrac, 9);
    NetworkRuntime runtime(model, faults);
    EXPECT_FALSE(runtime.fast_path_active());
    EXPECT_EQ(RuntimeTestPeer::exc_patch(runtime),
              (std::vector<std::uint32_t>{2, 4, 11}));
    EXPECT_EQ(RuntimeTestPeer::inh_patch(runtime), (std::vector<std::uint32_t>{3, 7}));
    runtime.set_overlay({});
    EXPECT_TRUE(runtime.fast_path_active());
}

// --- adopt_drive: aliasing + merge-join ------------------------------------

TEST(Kernels, AdoptDriveAliasesSharedBaseWhenNoDeltas) {
    const auto model = NetworkModel::random(tiny_config(), 3);
    NetworkRuntime runtime(model);
    const std::size_t padded = kernels::padded_size(model->n_neurons());
    AlignedVector base(padded, 1.5f);
    const std::vector<std::uint32_t> active = {0, 5};
    RuntimeTestPeer::adopt_drive(runtime, {base.data(), base.size()}, active);
    EXPECT_EQ(RuntimeTestPeer::drive(runtime), base.data())
        << "clean runtime must alias the shared buffer, not copy it";

    // A learning runtime's base comes from its materialised matrix, which
    // holds the patched cells already: adding the deltas again would count
    // them twice.
    FaultOverlay patched;
    patched.set_weight(5, 2, 0.9f);
    NetworkRuntime learner(model, patched);
    learner.set_learning(true);
    RuntimeTestPeer::adopt_drive(learner, {base.data(), base.size()}, active);
    EXPECT_EQ(RuntimeTestPeer::drive(learner), base.data());
}

/// Many-delta overlay (several deltas per row, rows out of order): the
/// merge-join must reproduce the old per-delta binary_search drive
/// bit-for-bit, and the delta table must come out sorted by (pre, post).
TEST(Kernels, AdoptDriveMergeJoinMatchesBinarySearchReference) {
    const auto model = NetworkModel::random(tiny_config(), 5);
    const std::size_t n = model->n_neurons();
    FaultOverlay overlay;
    util::Rng rng(17);
    // Insertion order deliberately scrambled; duplicate (pre, post) hits
    // collapse to one delta (last op wins, matching first-touch order).
    for (const std::uint32_t pre : {40u, 3u, 770u, 3u, 128u, 40u, 501u}) {
        for (std::size_t k = 0; k < 5; ++k) {
            overlay.set_weight(pre, (pre + 7 * k) % n,
                               static_cast<float>(rng.uniform(-0.5, 0.5)));
        }
    }
    // And many cells of widely spread values on three posts: adding a
    // post's deltas in any order but ascending pre rounds differently.
    const std::size_t posts[] = {1, 9, 17};
    for (std::uint32_t pre = 0; pre < model->n_input(); pre += 3) {
        const float magnitude = std::ldexp(1.0f, static_cast<int>(rng.between(-20, 20)));
        overlay.set_weight(pre, posts[(pre / 3) % 3],
                           rng.uniform() < 0.5 ? magnitude : -magnitude);
    }
    NetworkRuntime runtime(model, overlay);
    const auto deltas = RuntimeTestPeer::deltas(runtime);
    ASSERT_FALSE(deltas.empty());
    ASSERT_TRUE(std::is_sorted(deltas.begin(), deltas.end(),
                               [](const auto& a, const auto& b) {
                                   return std::get<0>(a) != std::get<0>(b)
                                              ? std::get<0>(a) < std::get<0>(b)
                                              : std::get<1>(a) < std::get<1>(b);
                               }));

    const std::size_t padded = kernels::padded_size(n);
    util::Rng drive_rng(19);
    for (std::size_t trial = 0; trial < 20; ++trial) {
        AlignedVector base(padded, 0.0f);
        for (std::size_t j = 0; j < n; ++j)
            base[j] = static_cast<float>(drive_rng.uniform(0.0, 5.0));
        std::vector<std::uint32_t> active;
        for (std::uint32_t pre = 0; pre < model->n_input(); ++pre) {
            if (drive_rng.uniform() < 0.1) active.push_back(pre);
        }
        // Reference: the pre-merge-join implementation.
        std::vector<float> expected(base.begin(), base.begin() +
                                                      static_cast<long>(n));
        for (const auto& [pre, post, delta] : deltas) {
            if (std::binary_search(active.begin(), active.end(), pre))
                expected[post] += delta;
        }
        RuntimeTestPeer::adopt_drive(runtime, {base.data(), base.size()}, active);
        ASSERT_TRUE(same_bits({RuntimeTestPeer::drive(runtime), n}, expected))
            << "trial " << trial;
    }
}

bool same_activity(const SampleActivity& a, const SampleActivity& b) {
    return a.total_exc_spikes == b.total_exc_spikes &&
           a.total_inh_spikes == b.total_inh_spikes &&
           a.exc_counts.size() == b.exc_counts.size() &&
           std::memcmp(a.exc_counts.data(), b.exc_counts.data(),
                       a.exc_counts.size() * sizeof(a.exc_counts[0])) == 0;
}

/// A standalone replica runs the one step loop as a batch of one, so
/// under stuck-at and bit-flip patches on many rows its activity over a
/// raster equals its BatchRunner member twin's bit for bit, not just
/// closely.
TEST(Kernels, PatchedStandaloneRunEqualsBatchMemberRun) {
    const auto model = NetworkModel::random(tiny_config(), 5);
    const DiehlCookConfig& config = model->config();
    const std::size_t n = model->n_neurons();
    const std::uint32_t bits[] = {0, 15, 22, 23, 30, 31};
    FaultOverlay overlay;
    for (std::uint32_t pre = 1, k = 0; pre < model->n_input(); pre += 5, ++k) {
        const std::size_t post = (pre * 7) % n;
        switch (k % 3) {
            case 0: overlay.set_weight(pre, post, 1.0f); break;  // stuck-at wmax
            case 1: overlay.set_weight(pre, post, 0.0f); break;  // stuck-at wmin
            default: overlay.flip_weight_bit(pre, (post + 3) % n, bits[k % 6]);
        }
    }
    NetworkRuntime standalone(model, overlay);
    NetworkRuntime member(model, overlay);
    NetworkRuntime clean(model);
    ASSERT_GT(RuntimeTestPeer::deltas(member).size(), 100u);
    BatchRunner batch(*model, {&member, &clean});

    util::Rng image_rng(19);
    std::vector<std::vector<float>> images;
    for (std::size_t i = 0; i < 6; ++i)
        images.push_back(random_image(image_rng, config.n_input));
    const SpikeRaster raster =
        SpikeRaster::encode(config.encoder, config.steps_per_sample, images, util::Rng(23));
    const ReferenceRun reference(model, raster);
    SampleActivity own;
    std::vector<SampleActivity> batched(batch.size());
    bool patches_matter = false;
    for (std::size_t i = 0; i < raster.samples(); ++i) {
        standalone.run_sample_into(raster, i, own);
        batch.run_sample_into(reference, i, batched);
        ASSERT_GT(own.total_exc_spikes, 0u) << "sample " << i;
        ASSERT_TRUE(same_activity(own, batched[0])) << "sample " << i;
        patches_matter = patches_matter || !same_activity(own, batched[1]);
    }
    EXPECT_TRUE(patches_matter) << "the patches never changed a spike";
}

// --- reference-driven batches ----------------------------------------------

/// Turns telemetry on over an empty global registry, and back off (the
/// default other tests rely on) when it goes out of scope.
struct TelemetryOn {
    TelemetryOn() {
        obs::set_enabled(true);
        obs::Registry::global().reset();
    }
    ~TelemetryOn() {
        obs::set_enabled(false);
        obs::Registry::global().reset();
    }
};

std::uint64_t counter(const char* name) {
    return obs::Registry::global().counter(name).value();
}

/// A tiny network trained on synthetic digits, so its layers spike and
/// its thetas move the way a campaign's baseline does.
std::shared_ptr<const NetworkModel> trained_tiny_model() {
    NetworkRuntime runtime(NetworkModel::random(tiny_config(), 41));
    (void)Trainer(runtime, 20).run(data::make_synthetic_dataset(40, 43));
    return runtime.freeze();
}

SpikeRaster digit_raster(const NetworkModel& model, std::size_t samples) {
    const DiehlCookConfig& config = model.config();
    const Dataset digits = data::make_synthetic_dataset(samples, 47);
    return SpikeRaster::encode(config.encoder, config.steps_per_sample, digits.images,
                               util::Rng(53));
}

/// One member of a reference-driven batch and its standalone twin.
struct FollowedMember {
    const char* name;
    FaultOverlay overlay;
    OverlaySchedule schedule;
};

/// Runs `order` of the reference's raster through a reference-driven batch
/// of `members` and through one standalone runtime per member, asserting
/// after every sample that
/// each member's activity equals its twin's bit for bit, and after the
/// run that its theta and frozen weights do too. Returns, per member and
/// sample, 'd' when it ended the sample dormant, 'w' when it woke, else
/// 'f'.
std::vector<std::string> run_followed(const std::shared_ptr<const NetworkModel>& model,
                                      const ReferenceRun& reference,
                                      const std::vector<FollowedMember>& members,
                                      const std::vector<std::size_t>& order) {
    std::vector<NetworkRuntime> twins;
    std::vector<NetworkRuntime> runtimes;
    for (const FollowedMember& member : members) {
        twins.emplace_back(model, member.overlay);
        runtimes.emplace_back(model, member.overlay);
        twins.back().set_schedule(member.schedule);
        runtimes.back().set_schedule(member.schedule);
    }
    std::vector<NetworkRuntime*> pointers;
    for (NetworkRuntime& runtime : runtimes) pointers.push_back(&runtime);
    BatchRunner batch(*model, pointers);
    std::vector<SampleActivity> batched(batch.size());
    SampleActivity own;
    std::vector<std::string> taken(members.size());
    for (const std::size_t i : order) {
        batch.run_sample_into(reference, i, batched);
        for (std::size_t k = 0; k < members.size(); ++k) {
            twins[k].run_sample_into(reference.raster(), i, own);
            EXPECT_TRUE(same_activity(own, batched[k]))
                << members[k].name << ", sample " << i;
            taken[k] += RuntimeTestPeer::ended_dormant(runtimes[k])
                            ? 'd'
                            : (RuntimeTestPeer::woke(runtimes[k]) ? 'w' : 'f');
        }
    }
    for (std::size_t k = 0; k < members.size(); ++k) {
        EXPECT_TRUE(same_bits(runtimes[k].exc_theta(), twins[k].exc_theta()))
            << members[k].name;
        EXPECT_TRUE(same_bits(runtimes[k].freeze()->input_weights().to_vector(),
                              twins[k].freeze()->input_weights().to_vector()))
            << members[k].name;
    }
    return taken;
}

/// The neuron that fires most over the reference's first sample, and
/// three inputs that fire together at one of its steps.
std::pair<std::size_t, std::vector<std::uint32_t>> busy_neuron_and_inputs(
    const ReferenceRun& reference) {
    const std::vector<std::uint32_t>& counts = reference.activity(0).exc_counts;
    const auto neuron = static_cast<std::size_t>(std::ranges::max_element(counts) -
                                                 counts.begin());
    SampleSpikes spikes;
    reference.raster().decode(0, spikes);
    for (std::size_t step = 0; step < reference.raster().steps_per_sample(); ++step) {
        const std::span<const std::uint32_t> active = spikes.step(step);
        if (active.size() >= 3) return {neuron, {active[0], active[1], active[2]}};
    }
    return {neuron, {}};
}

/// Every member of a reference-driven batch gives its standalone twin's
/// activity in every sample, and its theta and weights after the run, bit
/// for bit: members dormant throughout, members that wake mid-sample or at
/// step 0, and members whose faults keep them from following at all.
TEST(BatchRunner, ReferenceDrivenMembersMatchStandaloneRuns) {
    const auto model = trained_tiny_model();
    const std::size_t n = model->n_neurons();
    const std::size_t steps = model->config().steps_per_sample;
    const ReferenceRun reference(model, digit_raster(*model, 24));
    const auto [busy, inputs] = busy_neuron_and_inputs(reference);
    ASSERT_GT(reference.activity(0).exc_counts[busy], 0u);
    ASSERT_EQ(inputs.size(), 3u);
    const std::uint32_t input = inputs[0];
    const std::size_t other = (busy + 5) % n;
    const std::size_t one[] = {busy};
    const std::size_t inh_one[] = {(busy + 3) % n};
    const std::size_t other_one[] = {other};
    std::vector<std::size_t> layer(n);
    std::iota(layer.begin(), layer.end(), std::size_t{0});

    std::vector<FollowedMember> members(11);
    members[0].name = "no fault";
    members[1].name = "stuck-at-1 on a firing input";
    members[1].overlay.set_weight(input, busy, 1.0f);
    members[2].name = "bit-0 flip";
    members[2].overlay.flip_weight_bit(input, other, 0);
    members[3].name = "dead excitatory neuron";
    members[3].overlay.force_state(OverlayLayer::kExcitatory, one, NeuronFault::kDead);
    members[4].name = "saturated inhibitory neuron";
    members[4].overlay.force_state(OverlayLayer::kInhibitory, inh_one,
                                   NeuronFault::kSaturated);
    members[5].name = "refractory stretch";
    members[5].overlay.override_refractory(OverlayLayer::kExcitatory, one, 40);
    // Three active cells on one post, summed in pre order, and a neuron
    // fault beside them.
    members[6].name = "cells and a neuron";
    members[6]
        .overlay.set_weight(inputs[2], other, 0.9f)
        .set_weight(inputs[0], other, 0.7f)
        .set_weight(inputs[1], other, 0.3f)
        .scale_threshold(OverlayLayer::kExcitatory, one, 1.2f);
    // A cell patched to its own value: a zero delta leaves every spike the
    // clean run's, so this member follows the reference throughout.
    members[7].name = "zero-delta cell";
    members[7].overlay.set_weight(input, other, model->input_weights()(input, other));
    members[8].name = "whole-layer threshold drift";
    members[8].overlay.scale_threshold(OverlayLayer::kExcitatory, layer, 0.9f);
    members[9].name = "driver gain 0.8";
    members[9].overlay.set_driver_gain(0.8f);
    members[10].name = "scheduled glitch";
    FaultOverlay dip;
    dip.scale_threshold(OverlayLayer::kExcitatory, other_one, 0.5f);
    members[10].schedule = {{20, 60, dip}};

    std::vector<std::size_t> order(reference.samples());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const TelemetryOn telemetry;
    const std::vector<std::string> taken = run_followed(model, reference, members, order);

    const std::string all_dormant(order.size(), 'd');
    const std::string all_full(order.size(), 'f');
    EXPECT_EQ(taken[0], all_dormant);
    EXPECT_EQ(taken[7], all_dormant);
    EXPECT_EQ(taken[4].front(), 'w') << taken[4];
    for (std::size_t k = 8; k < members.size(); ++k)
        EXPECT_EQ(taken[k], all_full) << members[k].name;
    std::size_t dormant_samples = 0;
    std::size_t woken_samples = 0;
    for (const std::string& member : taken) {
        dormant_samples += static_cast<std::size_t>(std::ranges::count(member, 'd'));
        woken_samples += static_cast<std::size_t>(std::ranges::count(member, 'w'));
    }
    // A sample that ended dormant took every step dormant; the excess
    // comes from samples whose member woke after step 0.
    EXPECT_EQ(counter("snn.dormant.wakes"), woken_samples);
    EXPECT_GT(counter("snn.steps.dormant"), dormant_samples * steps)
        << "no member woke mid-sample";
    EXPECT_GT(dormant_samples, 2 * order.size()) << "no faulty member went dormant";
}

/// Samples may come in any order: a member goes dormant exactly when its
/// theta equals the record's at the sample's start, so one that ran
/// another sample before runs this one in full.
TEST(BatchRunner, ReferenceDrivenSamplesInAnyOrder) {
    const auto model = trained_tiny_model();
    const ReferenceRun reference(model, digit_raster(*model, 6));
    const auto [busy, inputs] = busy_neuron_and_inputs(reference);
    ASSERT_EQ(inputs.size(), 3u);
    const std::uint32_t input = inputs[0];
    const std::size_t one[] = {busy};
    std::vector<FollowedMember> members(4);
    members[0].name = "no fault";
    members[1].name = "dead excitatory neuron";
    members[1].overlay.force_state(OverlayLayer::kExcitatory, one, NeuronFault::kDead);
    members[2].name = "stuck-at-0";
    members[2].overlay.set_weight(input, busy, 0.0f);
    members[3].name = "zero-delta cell";
    members[3].overlay.set_weight(input, busy, model->input_weights()(input, busy));

    const std::vector<std::string> taken =
        run_followed(model, reference, members, {0, 1, 4, 1, 2, 2, 3});
    EXPECT_EQ(taken[0], "ddfffff");
    EXPECT_EQ(taken[3], "ddfffff");
}

/// Thetas are compared by their bits: with no theta bump a neuron's theta
/// is -0.0f until it first fires and +0.0f after, which compare equal as
/// floats. A member that never fired a neuron the clean run fired must not
/// follow the record, whose end theta would hand it the other zero.
TEST(BatchRunner, DormantRuleComparesThetaBits) {
    DiehlCookConfig config = tiny_config();
    config.excitatory.theta_plus = 0.0f;
    const auto random = NetworkModel::random(config, 5);
    const auto model = std::make_shared<const NetworkModel>(
        config, random->input_weights(), std::vector<float>(config.n_neurons, -0.0f));
    const ReferenceRun reference(model, digit_raster(*model, 8));
    const std::size_t busy = busy_neuron_and_inputs(reference).first;
    ASSERT_GT(reference.activity(0).exc_counts[busy], 0u);
    const std::size_t one[] = {busy};
    std::vector<FollowedMember> members(2);
    members[0].name = "no fault";
    members[1].name = "dead excitatory neuron";
    members[1].overlay.force_state(OverlayLayer::kExcitatory, one, NeuronFault::kDead);

    std::vector<std::size_t> order(reference.samples());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::vector<std::string> taken = run_followed(model, reference, members, order);
    EXPECT_EQ(taken[0], std::string(order.size(), 'd'));
    EXPECT_EQ(taken[1], 'w' + std::string(order.size() - 1, 'f'));
}

/// The record equals a clean standalone runtime's run, sample by sample:
/// its activity, its theta at each sample's start, and one event per
/// spike.
TEST(ReferenceRun, EqualsCleanStandaloneRun) {
    const auto model = trained_tiny_model();
    const std::size_t n = model->n_neurons();
    const std::size_t steps = model->config().steps_per_sample;
    const ReferenceRun reference(model, digit_raster(*model, 5));
    const SpikeRaster& raster = reference.raster();
    ASSERT_EQ(reference.samples(), raster.samples());
    NetworkRuntime clean(model);
    SampleActivity activity;
    for (std::size_t i = 0; i < raster.samples(); ++i) {
        EXPECT_TRUE(same_bits(reference.theta(i), clean.exc_theta())) << "sample " << i;
        clean.run_sample_into(raster, i, activity);
        EXPECT_TRUE(same_activity(reference.activity(i), activity)) << "sample " << i;
        const std::span<const std::uint32_t> events = reference.events(i);
        EXPECT_TRUE(std::ranges::is_sorted(events)) << "sample " << i;
        std::vector<std::uint32_t> counts(n, 0);
        std::size_t inhibitory = 0;
        for (const std::uint32_t event : events) {
            ASSERT_LT(event, steps * 2 * n);
            if (event % (2 * n) < n) {
                ++counts[event % (2 * n)];
            } else {
                ++inhibitory;
            }
        }
        EXPECT_EQ(counts, activity.exc_counts) << "sample " << i;
        EXPECT_EQ(inhibitory, activity.total_inh_spikes) << "sample " << i;
    }
    EXPECT_TRUE(same_bits(reference.theta(raster.samples()), clean.exc_theta()));
    EXPECT_THROW((void)reference.theta(raster.samples() + 1), std::out_of_range);
    EXPECT_THROW((void)reference.events(raster.samples()), std::out_of_range);
}

// --- STDP potentiation and normalisation ----------------------------------

/// Bitwise equality of two matrices over their full padded storage, so
/// a kernel that wrote a padding lane fails too.
bool same_storage(const Matrix& a, const Matrix& b) {
    return a.rows() == b.rows() && a.stride() == b.stride() &&
           same_bits({a.data(), a.rows() * a.stride()}, {b.data(), b.rows() * b.stride()});
}

Matrix random_weights(util::Rng& rng, std::size_t rows, std::size_t cols, double hi) {
    Matrix w(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (float& x : w.row(r)) x = static_cast<float>(rng.uniform(0.0, hi));
    }
    return w;
}

/// Depression of the active rows equals the per-row scalar loop it
/// replaced, including weights driven below wmin (clamped).
TEST(Kernels, DepressBitIdenticalToScalarLoop) {
    util::Rng rng(39);
    const float nu_pre = 0.3f;
    const float wmin = 0.0f;
    for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{784, 100},
                                     {37, 5},
                                     {10, 16},
                                     {3, 33}}) {
        Matrix w = random_weights(rng, rows, cols, 0.3);
        std::vector<float> trace(cols);
        for (float& t : trace) t = static_cast<float>(rng.uniform());
        std::vector<std::uint32_t> active;
        for (std::uint32_t a = 0; a < rows; ++a) {
            if (rng.uniform() < 0.3) active.push_back(a);
        }
        Matrix expected = w;
        for (const std::uint32_t a : active) {
            for (std::size_t j = 0; j < cols; ++j)
                expected(a, j) = std::max(wmin, expected(a, j) - nu_pre * trace[j]);
        }
        std::vector<float> drive(cols, 0.0f);
        kernels::depress_rows(w.data(), w.stride(), active, trace.data(), nu_pre, wmin,
                              drive.data(), cols);
        ASSERT_TRUE(same_storage(w, expected)) << rows << "x" << cols;
    }
}

/// The drive pass of a learning step: accumulating the active rows and
/// depressing them in one pass equals accumulate_rows_reference over the
/// rows as they stood followed by the scalar depression loop, on both the
/// drive and the weights, for every unroll tail (0..9 active rows) and
/// for logical and padded lengths.
TEST(Kernels, FusedDepressionEqualsAccumulateThenDepress) {
    util::Rng rng(47);
    const float nu_pre = 0.3f;
    const float wmin = 0.0f;
    const std::size_t n_pre = 37;
    for (const std::size_t cols : {1u, 3u, 13u, 16u, 17u, 33u, 100u}) {
        for (const std::size_t n : {cols, kernels::padded_size(cols)}) {
            for (std::size_t n_active = 0; n_active <= 9; ++n_active) {
                Matrix w = random_weights(rng, n_pre, cols, 0.3);
                std::vector<float> trace(n, 0.0f);
                for (std::size_t j = 0; j < cols; ++j)
                    trace[j] = static_cast<float>(rng.uniform());
                std::vector<std::uint32_t> active(n_pre);
                std::iota(active.begin(), active.end(), 0u);
                rng.shuffle(std::span<std::uint32_t>(active));
                active.resize(n_active);
                std::sort(active.begin(), active.end());

                Matrix expected = w;
                std::vector<const float*> rows(n_pre);
                for (std::size_t r = 0; r < n_pre; ++r)
                    rows[r] = expected.padded_row(r).data();
                std::vector<float> expected_drive(n, 0.25f);
                kernels::accumulate_rows_reference(rows.data(), active,
                                                   expected_drive.data(), n);
                for (const std::uint32_t a : active) {
                    float* row = expected.data() + a * expected.stride();
                    for (std::size_t j = 0; j < n; ++j)
                        row[j] = std::max(wmin, row[j] - nu_pre * trace[j]);
                }

                std::vector<float> drive(n, 0.25f);
                kernels::depress_rows(w.data(), w.stride(), active, trace.data(), nu_pre,
                                      wmin, drive.data(), n);
                ASSERT_TRUE(same_bits(drive, expected_drive))
                    << "drive, cols=" << cols << " n=" << n << " active=" << n_active;
                ASSERT_TRUE(same_storage(w, expected))
                    << "weights, cols=" << cols << " n=" << n << " active=" << n_active;
            }
        }
    }
}

/// Potentiation of a list of rows equals the column walk it replaced, for
/// no, one, some and all posts, for every row in order and for a shuffled
/// subset, including weights above wmax (clamped) and zero traces.
TEST(Kernels, PotentiateBitIdenticalToColumnWalk) {
    util::Rng rng(41);
    const float nu_post = 1e-2f;
    const float wmax = 1.0f;
    for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{784, 100},
                                     {37, 5},
                                     {10, 16},
                                     {3, 33}}) {
        for (int trial = 0; trial < 12; ++trial) {
            Matrix w = random_weights(rng, rows, cols, 1.2);
            std::vector<std::uint32_t> walked(rows);
            std::iota(walked.begin(), walked.end(), 0u);
            if (trial % 2 == 1) {
                rng.shuffle(std::span<std::uint32_t>(walked));
                walked.resize(rng.below(rows + 1));
            }
            std::vector<float> trace(walked.size());
            for (float& t : trace)
                t = rng.uniform() < 0.3 ? 0.0f : static_cast<float>(rng.uniform());
            std::vector<std::uint32_t> posts;
            const int shape = trial / 2;
            if (shape == 1) posts.push_back(static_cast<std::uint32_t>(cols / 2));
            for (std::uint32_t j = 0; shape > 1 && j < cols; ++j) {
                if (shape == 5 || rng.uniform() < 0.1 * shape) posts.push_back(j);
            }
            Matrix expected = w;
            for (const std::uint32_t j : posts) {
                for (std::size_t k = 0; k < walked.size(); ++k) {
                    const std::uint32_t i = walked[k];
                    expected(i, j) = std::min(wmax, expected(i, j) + nu_post * trace[k]);
                }
            }
            kernels::potentiate(w.data(), w.stride(), walked, trace.data(), nu_post, wmax,
                                posts);
            ASSERT_TRUE(same_storage(w, expected))
                << rows << "x" << cols << " trial " << trial;
        }
    }
}

/// Scalar statement of the no-op check: potentiating every weight with a
/// zero pre trace writes back its own bits.
bool noop_reference(const Matrix& w, float nu_post, float wmax) {
    for (std::size_t k = 0; k < w.rows() * w.stride(); ++k) {
        const float x = w.data()[k];
        const float y = std::min(wmax, x + nu_post * 0.0f);
        if (std::memcmp(&x, &y, sizeof x) != 0) return false;
    }
    return true;
}

/// Row-major normalisation equals the per-column sum-and-scale it
/// replaced; columns whose sum is zero or negative stay untouched. Its
/// no-op check agrees with the scalar one over the scaled matrix, under
/// budgets that leave every weight below wmax and that push some above it,
/// with and without a column of negative weights (which the scale pass's
/// range test sends to the full scan).
TEST(Kernels, NormalizeColumnsBitIdenticalToColumnWalk) {
    util::Rng rng(43);
    const float nu_post = 1e-2f;
    const float wmax = 1.0f;
    std::size_t holds = 0;
    std::size_t fails = 0;
    for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{784, 100},
                                     {37, 5},
                                     {10, 16},
                                     {3, 33}}) {
        const float n = static_cast<float>(rows);
        for (const auto& [total, negative] :
             {std::pair{78.4f, true}, {0.1f * n, true}, {0.1f * n, false}, {2.0f * n, true}}) {
            Matrix w = random_weights(rng, rows, cols, 0.3);
            for (std::size_t r = 0; r < rows; ++r) {
                w(r, 0) = 0.0f;  // sum 0: skipped
                if (negative) w(r, cols - 1) = -w(r, cols - 1) - 0.1f;  // sum < 0: skipped
            }
            Matrix expected = w;
            for (std::size_t j = 0; j < cols; ++j) {
                const float sum = expected.column_sum(j);
                if (sum > 0.0f) expected.scale_column(j, total / sum);
            }
            std::vector<float> sums(w.stride());
            const bool noop = kernels::normalize_columns(w.data(), w.stride(), rows, total,
                                                         sums.data(), nu_post, wmax);
            ASSERT_TRUE(same_storage(w, expected)) << rows << "x" << cols << " " << total;
            EXPECT_EQ(noop, noop_reference(expected, nu_post, wmax))
                << rows << "x" << cols << " " << total;
            EXPECT_EQ(noop, kernels::potentiation_is_noop(w.data(), w.stride(), rows,
                                                          nu_post, wmax));
            ++(noop ? holds : fails);
        }
    }
    EXPECT_GT(holds, 0u);
    EXPECT_GT(fails, 0u);
}

/// The no-op check fails exactly on the weights a zero-trace potentiation
/// would rewrite: above wmax, NaN of either sign and -0.0. wmax itself,
/// zero and negative weights pass, and so does -0.0 under a negative
/// nu_post. normalize_columns gives the same answer over the matrix it
/// scaled (a NaN column sums to NaN and is left as it is; -0.0 scales to
/// -0.0).
TEST(Kernels, NoopCheckFlagsWeightsPotentiationWouldRewrite) {
    const float wmax = 1.0f;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    util::Rng rng(53);
    Matrix w = random_weights(rng, 7, 20, 1.0);
    w(1, 2) = wmax;
    w(2, 3) = 0.0f;
    w(3, 4) = -0.5f;
    ASSERT_TRUE(noop_reference(w, 1e-2f, wmax));
    EXPECT_TRUE(kernels::potentiation_is_noop(w.data(), w.stride(), 7, 1e-2f, wmax));
    std::vector<float> sums(w.stride());
    for (const float bad : {1.5f, nan, -nan, -0.0f}) {
        Matrix flagged = w;
        flagged(6, 19) = bad;
        ASSERT_FALSE(noop_reference(flagged, 1e-2f, wmax)) << bad;
        EXPECT_FALSE(kernels::potentiation_is_noop(flagged.data(), flagged.stride(), 7,
                                                   1e-2f, wmax))
            << bad;
        EXPECT_EQ(kernels::potentiation_is_noop(flagged.data(), flagged.stride(), 7,
                                                -1e-2f, wmax),
                  noop_reference(flagged, -1e-2f, wmax))
            << bad;
        // No negative weight, and a budget that keeps every scaled weight
        // below wmax: only `bad` can send normalize to the full scan.
        flagged(3, 4) = 0.5f;
        const bool noop = kernels::normalize_columns(flagged.data(), flagged.stride(), 7,
                                                     0.7f, sums.data(), 1e-2f, wmax);
        EXPECT_EQ(noop, noop_reference(flagged, 1e-2f, wmax)) << bad;
        if (bad != 1.5f) EXPECT_FALSE(noop) << bad;
    }
}

// --- steady-state allocation freedom ---------------------------------------

TEST(Kernels, SampleLoopIsAllocationFreeAtSteadyState) {
    const auto model = NetworkModel::random(tiny_config(), 29);
    const DiehlCookConfig& config = model->config();
    NetworkRuntime standalone(model);
    NetworkRuntime learner(model);
    learner.set_learning(true);
    FaultOverlay patched;
    patched.set_weight(10, 2, 0.9f).set_weight(300, 5, 0.1f);
    NetworkRuntime member_clean(model);
    NetworkRuntime member_patched(model, patched);
    BatchRunner batch(*model, {&member_clean, &member_patched});

    util::Rng image_rng(31);
    const std::vector<std::vector<float>> images = {random_image(image_rng, config.n_input),
                                                    random_image(image_rng, config.n_input)};
    const SpikeRaster raster =
        SpikeRaster::encode(config.encoder, config.steps_per_sample, images, util::Rng(37));
    SampleActivity activity;
    SampleActivity learned;
    std::vector<SampleActivity> activities(batch.size());
    util::Rng batch_rng(33);
    // A reference-driven batch whose members stay dormant, wake mid-sample
    // and wake at step 0 on every pass: with no theta bump, theta never
    // leaves the model's zeros, so every sample starts on the record's.
    DiehlCookConfig fixed_theta = tiny_config();
    fixed_theta.excitatory.theta_plus = 0.0f;
    const auto followed_model = NetworkModel::random(fixed_theta, 29);
    const ReferenceRun reference(followed_model, raster);
    FaultOverlay saturated;
    const std::size_t one[] = {3};
    saturated.force_state(OverlayLayer::kInhibitory, one, NeuronFault::kSaturated);
    NetworkRuntime followed_clean(followed_model);
    NetworkRuntime followed_patched(followed_model, patched);
    NetworkRuntime followed_saturated(followed_model, saturated);
    BatchRunner followed(*followed_model,
                         {&followed_clean, &followed_patched, &followed_saturated});
    std::vector<SampleActivity> followed_activities(followed.size());
    // Warm-up: sizes the activity records, the reserved worklists and the
    // spike buffers for the denser sample.
    for (std::size_t i = 0; i < images.size(); ++i) {
        standalone.run_sample_into(images[i], activity);
        learner.run_sample_into(images[i], learned);
        learner.run_sample_into(raster, i, learned);
        batch.run_sample_into(images[i], batch_rng, activities);
        followed.run_sample_into(reference, i, followed_activities);
    }

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (std::size_t rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < images.size(); ++i) {
            standalone.run_sample_into(images[i], activity);
            learner.run_sample_into(images[i], learned);
            learner.run_sample_into(raster, i, learned);
            batch.run_sample_into(images[i], batch_rng, activities);
            followed.run_sample_into(reference, i, followed_activities);
        }
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "the sample loop allocated " << (after - before)
        << " time(s) at steady state";
}

/// std::stable_sort takes its temporary buffer from nothrow new and hands
/// it back through delete. Both ends must be this binary's counted forms:
/// with only the throwing forms replaced, a sanitizer build aborts here on
/// an alloc-dealloc mismatch.
TEST(Kernels, NothrowNewIsCountedAndPairsWithDelete) {
    std::vector<std::uint64_t> values(4096);
    std::iota(values.rbegin(), values.rend(), 0u);
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    std::stable_sort(values.begin(), values.end());
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
    EXPECT_GT(after, before) << "the temporary buffer was not counted";
}

}  // namespace
}  // namespace snnfi::snn
