#include "snn/kernels.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>

namespace snnfi::snn::kernels {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define SNNFI_RESTRICT __restrict__
#define SNNFI_NOINLINE [[gnu::noinline]]
#else
#define SNNFI_RESTRICT
#define SNNFI_NOINLINE
#endif

// The layer loops take their parameter structs by value: the copies live
// in registers, so a field that feeds one arm of a select is not a
// memory load the vectorizer would have to prove safe to speculate. They
// stay out of line so each instantiation is its own symbol, and whether
// it vectorized can be read off the disassembly.

template <bool kFaults>
SNNFI_NOINLINE std::size_t exc_loop(const ExcParams p, const LayerFaults f,
                                    const float* SNNFI_RESTRICT drive,
                                    const std::uint8_t* SNNFI_RESTRICT inh_spiked,
                                    float inh_total, float* SNNFI_RESTRICT v,
                                    std::int32_t* SNNFI_RESTRICT refrac,
                                    float* SNNFI_RESTRICT theta,
                                    std::uint8_t* SNNFI_RESTRICT spiked, std::size_t n) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        NeuronState s{v[i], refrac[i], theta[i]};
        const int spike =
            exc_neuron<kFaults>(p, f, i, drive[i], inh_total, inh_spiked[i], s);
        v[i] = s.v;
        refrac[i] = s.refrac;
        theta[i] = s.theta;
        spiked[i] = static_cast<std::uint8_t>(spike);
        count += static_cast<std::size_t>(spike);
    }
    return count;
}

template <bool kFaults>
SNNFI_NOINLINE std::size_t inh_loop(const InhParams p, const LayerFaults f,
                                    const std::uint8_t* SNNFI_RESTRICT exc_spiked,
                                    float* SNNFI_RESTRICT v,
                                    std::int32_t* SNNFI_RESTRICT refrac,
                                    std::uint8_t* SNNFI_RESTRICT spiked, std::size_t n) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        NeuronState s{v[i], refrac[i], 0.0f};
        const int spike = inh_neuron<kFaults>(p, f, i, exc_spiked[i], s);
        v[i] = s.v;
        refrac[i] = s.refrac;
        spiked[i] = static_cast<std::uint8_t>(spike);
        count += static_cast<std::size_t>(spike);
    }
    return count;
}

/// Runs one layer step in the shape the patch list picks. The redo shape
/// runs the identity loop over the whole layer, then redoes the patched
/// neurons from the state they had before it — neurons are independent
/// within a step, so the redo composes bit-identically with the loop's
/// output for every other neuron. `loop(std::bool_constant<kFaults>)` runs
/// a layer loop; `redo(i, state)` steps neuron i fault-aware. `theta` is
/// null for the inhibitory layer.
template <class Loop, class Redo>
std::size_t update_layer(const LayerFaults& f, std::size_t n, NeuronState* save,
                         float* v, std::int32_t* refrac, float* theta,
                         std::uint8_t* spiked, Loop loop, Redo redo) {
    // Each redo is a scalar fault-aware step on top of the identity loop;
    // past n/8 of the layer the single fault-aware pass is the cheaper one.
    if (f.patch.size() * 8 > n) return loop(std::true_type{});
    for (std::size_t k = 0; k < f.patch.size(); ++k) {
        const std::uint32_t i = f.patch[k];
        save[k] = {v[i], refrac[i], theta ? theta[i] : 0.0f};
    }
    std::size_t count = loop(std::false_type{});
    for (std::size_t k = 0; k < f.patch.size(); ++k) {
        const std::uint32_t i = f.patch[k];
        NeuronState s = save[k];
        const int spike = redo(i, s);
        count -= static_cast<std::size_t>(spiked[i]);
        count += static_cast<std::size_t>(spike);
        v[i] = s.v;
        refrac[i] = s.refrac;
        if (theta) theta[i] = s.theta;
        spiked[i] = static_cast<std::uint8_t>(spike);
    }
    return count;
}

// The STDP rule of one weight, written once for the kernels below and the
// no-op check.
SNNFI_ALWAYS_INLINE float depressed(float w, float trace_post, float nu_pre, float wmin) {
    return std::max(wmin, w - nu_pre * trace_post);
}

SNNFI_ALWAYS_INLINE float potentiated(float w, float dw, float wmax) {
    return std::min(wmax, w + dw);
}

/// The drive pass of accumulate_rows and depress_rows. The unroll factor
/// (4) amortises the out[] load/store traffic across rows; the adds per
/// element stay left-to-right, so every rounding matches the reference.
/// With kDepress each element of a block's rows is depressed once the
/// block has read all of them, so the rows must be distinct.
template <bool kDepress>
SNNFI_ALWAYS_INLINE void drive_pass(std::conditional_t<kDepress, float, const float>* base,
                                    std::size_t stride,
                                    std::span<const std::uint32_t> active,
                                    float* SNNFI_RESTRICT out, std::size_t n,
                                    const float* SNNFI_RESTRICT trace_post, float nu_pre,
                                    float wmin) {
    using Row = std::conditional_t<kDepress, float, const float>* SNNFI_RESTRICT;
    const auto row_at = [base, stride](std::uint32_t a) { return base + a * stride; };
    const std::size_t n_active = active.size();
    std::size_t a = 0;
    for (; a + 4 <= n_active; a += 4) {
        const Row r0 = row_at(active[a]);
        const Row r1 = row_at(active[a + 1]);
        const Row r2 = row_at(active[a + 2]);
        const Row r3 = row_at(active[a + 3]);
        for (std::size_t j = 0; j < n; ++j) {
            const float w0 = r0[j];
            const float w1 = r1[j];
            const float w2 = r2[j];
            const float w3 = r3[j];
            out[j] = (((out[j] + w0) + w1) + w2) + w3;
            if constexpr (kDepress) {
                const float t = trace_post[j];
                r0[j] = depressed(w0, t, nu_pre, wmin);
                r1[j] = depressed(w1, t, nu_pre, wmin);
                r2[j] = depressed(w2, t, nu_pre, wmin);
                r3[j] = depressed(w3, t, nu_pre, wmin);
            }
        }
    }
    if (a + 2 <= n_active) {
        const Row r0 = row_at(active[a]);
        const Row r1 = row_at(active[a + 1]);
        for (std::size_t j = 0; j < n; ++j) {
            const float w0 = r0[j];
            const float w1 = r1[j];
            out[j] = (out[j] + w0) + w1;
            if constexpr (kDepress) {
                const float t = trace_post[j];
                r0[j] = depressed(w0, t, nu_pre, wmin);
                r1[j] = depressed(w1, t, nu_pre, wmin);
            }
        }
        a += 2;
    }
    if (a < n_active) {
        const Row r0 = row_at(active[a]);
        for (std::size_t j = 0; j < n; ++j) {
            const float w0 = r0[j];
            out[j] += w0;
            if constexpr (kDepress) r0[j] = depressed(w0, trace_post[j], nu_pre, wmin);
        }
    }
}

}  // namespace

void accumulate_rows(const float* base, std::size_t stride,
                     std::span<const std::uint32_t> active, float* out, std::size_t n) {
    drive_pass<false>(base, stride, active, out, n, nullptr, 0.0f, 0.0f);
}

void depress_rows(float* weights, std::size_t stride,
                  std::span<const std::uint32_t> active, const float* trace_post,
                  float nu_pre, float wmin, float* drive, std::size_t n) {
    drive_pass<true>(weights, stride, active, drive, n, trace_post, nu_pre, wmin);
}

void accumulate_rows_reference(const float* const* rows,
                               std::span<const std::uint32_t> active,
                               float* out, std::size_t n) {
    for (const std::uint32_t a : active) {
        const float* row = rows[a];
        for (std::size_t j = 0; j < n; ++j) out[j] += row[j];
    }
}

std::size_t exc_update(const ExcParams& p, const LayerFaults& f, const float* drive,
                       const std::uint8_t* inh_spiked, std::size_t inh_total,
                       float* v, std::int32_t* refrac, float* theta,
                       std::uint8_t* spiked, std::size_t n, NeuronState* save) {
    const float total = static_cast<float>(inh_total);
    return update_layer(
        f, n, save, v, refrac, theta, spiked,
        [&](auto faults) {
            return exc_loop<decltype(faults)::value>(p, f, drive, inh_spiked, total, v,
                                                     refrac, theta, spiked, n);
        },
        [&](std::uint32_t i, NeuronState& s) {
            return exc_neuron<true>(p, f, i, drive[i], total, inh_spiked[i], s);
        });
}

std::size_t inh_update(const InhParams& p, const LayerFaults& f,
                       const std::uint8_t* exc_spiked, float* v,
                       std::int32_t* refrac, std::uint8_t* spiked, std::size_t n,
                       NeuronState* save) {
    return update_layer(
        f, n, save, v, refrac, nullptr, spiked,
        [&](auto faults) {
            return inh_loop<decltype(faults)::value>(p, f, exc_spiked, v, refrac,
                                                     spiked, n);
        },
        [&](std::uint32_t i, NeuronState& s) {
            return inh_neuron<true>(p, f, i, exc_spiked[i], s);
        });
}

void exc_update_subset(const ExcParams& p, const LayerFaults& f,
                       std::span<const std::uint32_t> subset, const float* drive,
                       const std::uint8_t* inh_spiked, std::size_t inh_total, float* v,
                       std::int32_t* refrac, float* theta, std::uint8_t* spiked) {
    const float total = static_cast<float>(inh_total);
    for (const std::uint32_t i : subset) {
        NeuronState s{v[i], refrac[i], theta[i]};
        spiked[i] = static_cast<std::uint8_t>(
            exc_neuron<true>(p, f, i, drive[i], total, inh_spiked[i], s));
        v[i] = s.v;
        refrac[i] = s.refrac;
        theta[i] = s.theta;
    }
}

void inh_update_subset(const InhParams& p, const LayerFaults& f,
                       std::span<const std::uint32_t> subset,
                       const std::uint8_t* exc_spiked, float* v, std::int32_t* refrac,
                       std::uint8_t* spiked) {
    for (const std::uint32_t i : subset) {
        NeuronState s{v[i], refrac[i], 0.0f};
        spiked[i] = static_cast<std::uint8_t>(inh_neuron<true>(p, f, i, exc_spiked[i], s));
        v[i] = s.v;
        refrac[i] = s.refrac;
    }
}

std::size_t exc_update_reference(const ExcParams& p, const LayerFaults& f,
                                 const float* drive, const std::uint8_t* inh_spiked,
                                 std::size_t inh_total, float* v,
                                 std::int32_t* refrac, float* theta,
                                 std::uint8_t* spiked, std::size_t n) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        float x = drive[i] * p.driver_gain * f.drive_gain[i];
        if (inh_total > 0) {
            x += p.w_inh * (static_cast<float>(inh_total) -
                            static_cast<float>(inh_spiked[i]));
        }
        theta[i] *= p.theta_decay;
        spiked[i] = 0;
        if (f.forced[i] == kDeadState) {
            v[i] = p.v_rest;
        } else if (f.forced[i] == kSaturatedState) {
            spiked[i] = 1;
            v[i] = p.v_reset;
        } else if (refrac[i] > 0) {
            --refrac[i];
            v[i] = p.v_reset;
        } else {
            v[i] = p.v_rest + p.decay * (v[i] - p.v_rest) + x;
            if (v[i] >= p.v_rest + p.thresh_span * f.thresh_scale[i] + theta[i]) {
                spiked[i] = 1;
                v[i] = p.v_reset;
                refrac[i] = f.refrac_period[i];
            }
        }
        if (spiked[i]) theta[i] += p.theta_plus;
        count += spiked[i];
    }
    return count;
}

std::size_t inh_update_reference(const InhParams& p, const LayerFaults& f,
                                 const std::uint8_t* exc_spiked, float* v,
                                 std::int32_t* refrac, std::uint8_t* spiked,
                                 std::size_t n) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const float x = exc_spiked[i] ? p.w_exc : 0.0f;
        spiked[i] = 0;
        if (f.forced[i] == kDeadState) {
            v[i] = p.v_rest;
        } else if (f.forced[i] == kSaturatedState) {
            spiked[i] = 1;
            v[i] = p.v_reset;
        } else if (refrac[i] > 0) {
            --refrac[i];
            v[i] = p.v_reset;
        } else {
            v[i] = p.v_rest + p.decay * (v[i] - p.v_rest) + x;
            if (v[i] >= p.v_rest + p.thresh_span * f.thresh_scale[i]) {
                spiked[i] = 1;
                v[i] = p.v_reset;
                refrac[i] = f.refrac_period[i];
            }
        }
        count += spiked[i];
    }
    return count;
}

void add_counts(std::uint32_t* counts, const std::uint8_t* spiked,
                std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) counts[i] += spiked[i];
}

void potentiate(float* weights, std::size_t stride,
                std::span<const std::uint32_t> rows, const float* trace,
                float nu_post, float wmax, std::span<const std::uint32_t> posts) {
    for (std::size_t k = 0; k < rows.size(); ++k) {
        float* row = weights + rows[k] * stride;
        const float dw = nu_post * trace[k];
        for (const std::uint32_t j : posts) row[j] = potentiated(row[j], dw, wmax);
    }
}

bool potentiation_is_noop(const float* weights, std::size_t stride,
                          std::size_t rows, float nu_post, float wmax) {
    const float dw = nu_post * 0.0f;
    std::uint32_t changed = 0;
    for (std::size_t k = 0; k < rows * stride; ++k) {
        changed |= std::bit_cast<std::uint32_t>(potentiated(weights[k], dw, wmax)) ^
                   std::bit_cast<std::uint32_t>(weights[k]);
    }
    return changed == 0;
}

bool normalize_columns(float* SNNFI_RESTRICT weights, std::size_t stride,
                       std::size_t rows, float total, float* SNNFI_RESTRICT sums,
                       float nu_post, float wmax) {
    std::fill(sums, sums + stride, 0.0f);
    for (std::size_t i = 0; i < rows; ++i) {
        const float* row = weights + i * stride;
        for (std::size_t j = 0; j < stride; ++j) sums[j] += row[j];
    }
    // A skipped column (and a zero padding lane) is multiplied by 1.0f,
    // which is exact.
    for (std::size_t j = 0; j < stride; ++j)
        sums[j] = sums[j] > 0.0f ? total / sums[j] : 1.0f;
    // The scale pass takes the largest weight word, read unsigned, into
    // one lane set per padded block, kept in registers across rows (a
    // scalar would be reduced after every row). Every weight in [+0, wmax]
    // passes the check: w + (+-0) is w, and min(wmax, w) is w, or wmax
    // when w is wmax. Only a weight outside that range (above wmax,
    // negative, -0.0, NaN) sends the check to the full scan.
    std::uint32_t top[kPadFloats] = {};
    for (std::size_t i = 0; i < rows; ++i) {
        float* row = weights + i * stride;
        for (std::size_t j = 0; j < stride; j += kPadFloats) {
            for (std::size_t l = 0; l < kPadFloats; ++l) {
                const float w = row[j + l] * sums[j + l];
                row[j + l] = w;
                top[l] = std::max(top[l], std::bit_cast<std::uint32_t>(w));
            }
        }
    }
    // The range argument also needs wmax in [+0, +inf] and a zero
    // increment (nu_post * 0.0f is NaN for a nu_post that is not finite).
    const std::uint32_t bound = std::bit_cast<std::uint32_t>(wmax);
    const bool in_range =
        bound <= std::bit_cast<std::uint32_t>(std::numeric_limits<float>::infinity()) &&
        nu_post * 0.0f == 0.0f &&
        std::ranges::all_of(top, [bound](std::uint32_t t) { return t <= bound; });
    return in_range || potentiation_is_noop(weights, stride, rows, nu_post, wmax);
}

}  // namespace snnfi::snn::kernels
