// snn::kernels — the simulation hot path as free, stateless functions.
//
// Every fi/glitch campaign cell ultimately spends its time in two loops:
// the per-step input->excitatory drive accumulation and the fused
// LIF/DiehlCook neuron update. This header isolates both as plain
// kernels over raw spans so NetworkRuntime, BatchRunner and
// DenseConnection share one implementation — and so the property tests
// can pit each kernel against a naive scalar reference in isolation.
//
// Layout contract (shared with snn::Matrix, snn/tensor.hpp):
//   * weight rows are padded to a 64-byte stride (kPadFloats floats) and
//     the storage is 64-byte aligned;
//   * padding lanes are ALWAYS zero, so a kernel may stream whole padded
//     rows — accumulating the padding is a no-op on logical columns.
//
// Determinism-of-summation-order rule: accumulate_rows processes active
// rows in unrolled blocks of four, but each output element is updated
// with left-to-right adds — out[j] + r0[j] + r1[j] + r2[j] + r3[j] —
// which is EXACTLY the sequence of roundings the one-row-at-a-time loop
// performs. Blocking changes memory traffic, never the summation order,
// so results are bit-identical to the scalar reference, independent of
// the block schedule and of the worker-thread count (accumulation is
// always per-runtime, single-threaded).
//
// The neuron update is written once per layer, as the per-neuron
// functions exc_neuron<kFaults> / inh_neuron<kFaults>: straight-line
// predicated selects, so a loop over them vectorizes. With kFaults = false
// they read no fault array (the identity fault state); with kFaults = true
// they read the layer's per-neuron fault state, which holds exactly what
// the fault models emit (snn/overlay.hpp): the threshold scale, the
// feedforward drive gain (excitatory only), the forced state and the
// refractory period. The two agree bit for bit on a neuron whose fault
// state is the identity, because multiplying by 1.0f and scaling the
// threshold distance by 1.0f are exact in IEEE-754.
// exc_update / inh_update run a layer step in one of two shapes, picked
// from the layer's patch list (the neurons whose fault state is not the
// identity): a short list runs the identity loop over the layer and then
// redoes just the patched neurons from their saved pre-step state; a long
// one runs the fault-aware loop over the whole layer. The scalar
// *_update_reference oracles restate the rule with branches and are what
// the tests and bench_kernel check both shapes against. The *_subset
// functions run the redo's fault-aware step alone over an index list,
// for a runtime that steps only its faulted neurons (snn/runtime.hpp).
//
// The STDP update (depression, potentiation) and weight normalisation
// live here too, as row-major passes over the padded matrix, so they get
// the same lanes. Depression runs inside the drive pass of a learning
// step (depress_rows, the same blocked loop as accumulate_rows), and
// potentiation walks a list of rows: DenseConnection (snn/connection.hpp)
// passes the inputs fired since the last trace reset while the no-op
// check (potentiation_is_noop, which normalize_columns answers from its
// scale pass) holds, and every row when it fails.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "snn/nodes.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SNNFI_ALWAYS_INLINE [[gnu::always_inline]] inline
#else
#define SNNFI_ALWAYS_INLINE inline
#endif

namespace snnfi::snn::kernels {

inline constexpr std::size_t kAlignBytes = 64;
inline constexpr std::size_t kPadFloats = kAlignBytes / sizeof(float);  // 16

/// Smallest multiple of kPadFloats >= n: the padded row stride (and the
/// padded drive-buffer length) for a logical column count n.
constexpr std::size_t padded_size(std::size_t n) noexcept {
    return (n + kPadFloats - 1) / kPadFloats * kPadFloats;
}

/// Sparse drive accumulation over strided matrix storage (row a starts
/// at base + a * stride): out[j] += row_a[j] for each a in `active`, in
/// active order, blocked by four rows. Writes exactly `n` elements; pass
/// the padded length when `out` is a padded buffer to skip the scalar
/// tail, or the logical length otherwise — the result over the logical
/// prefix is identical either way.
void accumulate_rows(const float* base, std::size_t stride,
                     std::span<const std::uint32_t> active, float* out,
                     std::size_t n);

/// Naive one-row-at-a-time reference over per-row pointers (the
/// pre-kernel implementation). Kept callable so the equivalence property
/// tests and bench_kernel can compare against it; results must match
/// accumulate_rows bit-for-bit.
void accumulate_rows_reference(const float* const* rows,
                               std::span<const std::uint32_t> active,
                               float* out, std::size_t n);

/// Excitatory (DiehlCook) layer parameters, all loop-invariant.
struct ExcParams {
    float v_rest = 0.0f;
    float v_reset = 0.0f;
    float decay = 0.0f;        ///< exp(-dt/tau)
    float thresh_span = 0.0f;  ///< v_thresh - v_rest
    float theta_decay = 1.0f;
    float theta_plus = 0.0f;
    std::int32_t refrac_steps = 0;
    float driver_gain = 1.0f;  ///< network-wide driver gain
    float w_inh = 0.0f;        ///< lateral inhibition weight
};

/// Inhibitory (plain LIF, one-to-one EL drive) layer parameters.
struct InhParams {
    float v_rest = 0.0f;
    float v_reset = 0.0f;
    float decay = 0.0f;
    float thresh_span = 0.0f;  ///< v_thresh - v_rest
    std::int32_t refrac_steps = 0;
    float w_exc = 0.0f;  ///< EL -> IL one-to-one weight
};

/// One layer's per-neuron fault state, struct-of-arrays with one entry
/// per neuron, plus its patch list: the ascending indices of the neurons
/// whose state differs from the identity (drive gain and threshold scale
/// 1, nominal forced state, the layer's own refractory period).
struct LayerFaults {
    const float* thresh_scale = nullptr;
    const float* drive_gain = nullptr;  ///< feedforward drive (excitatory)
    const std::uint8_t* forced = nullptr;  ///< NeuronFault per neuron
    const std::int32_t* refrac_period = nullptr;
    std::span<const std::uint32_t> patch;
};

/// One neuron's dynamic state; theta is the excitatory adaptive threshold.
struct NeuronState {
    float v = 0.0f;
    std::int32_t refrac = 0;
    float theta = 0.0f;
};

inline constexpr std::uint8_t kDeadState = static_cast<std::uint8_t>(NeuronFault::kDead);
inline constexpr std::uint8_t kSaturatedState =
    static_cast<std::uint8_t>(NeuronFault::kSaturated);

/// One excitatory step of neuron i: driver gain, lateral inhibition from
/// the other inhibitory spikes, leak, integration, adaptive threshold and
/// spike / reset / refractory / theta bump. A dead neuron rests at v_rest
/// and never fires; a saturated one fires every step. Neither counts its
/// refractory period down. Returns the spike (0 or 1).
///
/// Every branch is a select, so the loops over it vectorize: the lateral
/// term is added even with no inhibitory spikes (w_inh * 0 is a signed
/// zero, an exact additive identity on the drive), and each array element
/// is loaded unconditionally — a load that feeds only one arm of a select
/// can be sunk into a branch that if-conversion will not hoist back.
template <bool kFaults>
SNNFI_ALWAYS_INLINE int exc_neuron(const ExcParams& p, const LayerFaults& f,
                                   std::size_t i, float drive, float inh_total,
                                   std::uint8_t inh_spiked, NeuronState& s) {
    float x = drive * p.driver_gain;
    if constexpr (kFaults) x *= f.drive_gain[i];
    x += p.w_inh * (inh_total - static_cast<float>(inh_spiked));
    const float th = s.theta * p.theta_decay;
    const float th_plus = th + p.theta_plus;
    const std::int32_t rc = s.refrac;
    const int in_refrac = rc > 0;
    // Not firing: a refractory neuron counts down, an idle one holds at 0.
    const std::int32_t rc_down = rc > 1 ? rc - 1 : 0;
    const float vi = p.v_rest + p.decay * (s.v - p.v_rest) + x;
    if constexpr (kFaults) {
        const float scale = f.thresh_scale[i];
        const std::int32_t period = f.refrac_period[i];
        const std::uint8_t forced = f.forced[i];
        const int fires = static_cast<int>(vi >= p.v_rest + p.thresh_span * scale + th) &
                          (1 - in_refrac);
        const int dead = forced == kDeadState;
        const int saturated = forced == kSaturatedState;
        const int spike = saturated | (fires & (1 - dead));
        s.v = dead ? p.v_rest : ((in_refrac | spike) ? p.v_reset : vi);
        s.refrac = (dead | saturated) ? rc : (fires ? period : rc_down);
        s.theta = spike ? th_plus : th;
        return spike;
    } else {
        const int fires =
            static_cast<int>(vi >= p.v_rest + p.thresh_span + th) & (1 - in_refrac);
        s.v = (in_refrac | fires) ? p.v_reset : vi;
        s.refrac = fires ? p.refrac_steps : rc_down;
        s.theta = fires ? th_plus : th;
        return fires;
    }
}

/// One inhibitory step of neuron i, driven one-to-one by its excitatory
/// partner's spike; same forced-state rules as exc_neuron, no theta.
template <bool kFaults>
SNNFI_ALWAYS_INLINE int inh_neuron(const InhParams& p, const LayerFaults& f,
                                   std::size_t i, std::uint8_t exc_spiked,
                                   NeuronState& s) {
    const std::int32_t rc = s.refrac;
    const int in_refrac = rc > 0;
    const std::int32_t rc_down = rc > 1 ? rc - 1 : 0;
    const float vi =
        p.v_rest + p.decay * (s.v - p.v_rest) + (exc_spiked ? p.w_exc : 0.0f);
    if constexpr (kFaults) {
        const float scale = f.thresh_scale[i];
        const std::int32_t period = f.refrac_period[i];
        const std::uint8_t forced = f.forced[i];
        const int fires =
            static_cast<int>(vi >= p.v_rest + p.thresh_span * scale) & (1 - in_refrac);
        const int dead = forced == kDeadState;
        const int saturated = forced == kSaturatedState;
        const int spike = saturated | (fires & (1 - dead));
        s.v = dead ? p.v_rest : ((in_refrac | spike) ? p.v_reset : vi);
        s.refrac = (dead | saturated) ? rc : (fires ? period : rc_down);
        return spike;
    } else {
        const int fires =
            static_cast<int>(vi >= p.v_rest + p.thresh_span) & (1 - in_refrac);
        s.v = (in_refrac | fires) ? p.v_reset : vi;
        s.refrac = fires ? p.refrac_steps : rc_down;
        return fires;
    }
}

/// One excitatory step over `n` neurons. With at most n/8 patched neurons
/// it runs the identity loop over the layer and redoes the patched ones
/// from their saved pre-step state; otherwise it runs the fault-aware loop
/// over the layer. `save` is scratch for at least f.patch.size() entries.
/// Returns the spike count.
std::size_t exc_update(const ExcParams& p, const LayerFaults& f, const float* drive,
                       const std::uint8_t* inh_spiked, std::size_t inh_total,
                       float* v, std::int32_t* refrac, float* theta,
                       std::uint8_t* spiked, std::size_t n, NeuronState* save);

/// One inhibitory step over `n` neurons; same shapes and scratch contract
/// as exc_update.
std::size_t inh_update(const InhParams& p, const LayerFaults& f,
                       const std::uint8_t* exc_spiked, float* v,
                       std::int32_t* refrac, std::uint8_t* spiked, std::size_t n,
                       NeuronState* save);

/// The fault-aware step of the neurons in `subset` alone, each from its
/// own state in v/refrac/theta, writing spiked[i] for each: the redo
/// shape's per-neuron work without the layer loop. A runtime that steps
/// only its faulted neurons calls these, so every neuron update builds
/// under this file's floating-point flags.
void exc_update_subset(const ExcParams& p, const LayerFaults& f,
                       std::span<const std::uint32_t> subset, const float* drive,
                       const std::uint8_t* inh_spiked, std::size_t inh_total, float* v,
                       std::int32_t* refrac, float* theta, std::uint8_t* spiked);
void inh_update_subset(const InhParams& p, const LayerFaults& f,
                       std::span<const std::uint32_t> subset,
                       const std::uint8_t* exc_spiked, float* v, std::int32_t* refrac,
                       std::uint8_t* spiked);

/// Scalar oracles of the two updates: the rule restated with branches,
/// reading every fault array for every neuron (the patch list is
/// ignored). exc_update and inh_update must match them bit for bit.
std::size_t exc_update_reference(const ExcParams& p, const LayerFaults& f,
                                 const float* drive, const std::uint8_t* inh_spiked,
                                 std::size_t inh_total, float* v,
                                 std::int32_t* refrac, float* theta,
                                 std::uint8_t* spiked, std::size_t n);
std::size_t inh_update_reference(const InhParams& p, const LayerFaults& f,
                                 const std::uint8_t* exc_spiked, float* v,
                                 std::int32_t* refrac, std::uint8_t* spiked,
                                 std::size_t n);

/// counts[i] += spiked[i] — the per-sample spike histogram update.
void add_counts(std::uint32_t* counts, const std::uint8_t* spiked,
                std::size_t n);

/// The drive pass of a learning step: accumulate_rows over `active` into
/// drive[0..n), and STDP depression of the same rows, over padded
/// row-major weights: w[a][j] = max(wmin, w[a][j] - nu_pre *
/// trace_post[j]) for every row a in `active` and every j < n. Both run
/// in accumulate_rows' blocks, and a block reads every element before it
/// writes one, so the drive equals accumulate_rows' over the rows as they
/// stood and the weights equal the one-row-at-a-time depression, bit for
/// bit — and each row is read once. The rows must be distinct (a spike
/// list is ascending).
void depress_rows(float* weights, std::size_t stride,
                  std::span<const std::uint32_t> active, const float* trace_post,
                  float nu_pre, float wmin, float* drive, std::size_t n);

/// STDP potentiation of the posts that spiked this step, over padded
/// row-major weights: w[i][j] = min(wmax, w[i][j] + nu_post * trace[k])
/// for i = rows[k] and every j in `posts`. Each weight gets one update,
/// so walking rows gives the same values as walking each post's column.
void potentiate(float* weights, std::size_t stride,
                std::span<const std::uint32_t> rows, const float* trace,
                float nu_post, float wmax, std::span<const std::uint32_t> posts);

/// True when potentiating with a zero pre trace, min(wmax, w + nu_post *
/// 0.0f), gives back the bits of every weight of the padded storage
/// (padding lanes included, which only makes it stricter). It fails on a
/// weight above wmax, a NaN or a -0.0: those are the rows potentiation
/// may not skip while their input has not fired.
bool potentiation_is_noop(const float* weights, std::size_t stride,
                          std::size_t rows, float nu_post, float wmax);

/// Scales every column of the padded matrix whose sum is positive so that
/// it sums to `total`; other columns are left as they are. Column sums
/// accumulate row by row in ascending row order, the same add sequence
/// per column as a column walk, into `sums` (stride floats of scratch).
/// Returns potentiation_is_noop(nu_post, wmax) of the scaled matrix. The
/// scale pass checks that every weight lies in [+0, wmax], which implies
/// it; only a matrix with a weight outside that range gets the full scan.
/// `stride` must be a multiple of kPadFloats, as a Matrix's is.
bool normalize_columns(float* weights, std::size_t stride, std::size_t rows,
                       float total, float* sums, float nu_post, float wmax);

}  // namespace snnfi::snn::kernels
