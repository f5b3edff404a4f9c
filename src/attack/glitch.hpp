// Time-resolved glitch calibration: the bridge from transient circuit
// characterisation to scheduled SNN fault overlays.
//
// The static path (attack::VddCalibration) collapses a supply fault into
// one (threshold-delta, driver-gain) pair that is "on" for the whole run.
// The glitch pipeline keeps the time axis:
//
//   circuits::GlitchSpec          parameterised VDD waveform (shape x depth
//                                 x width x onset, fractional sample time)
//   circuits::GlitchCharacterization
//                                 per-window transient measurements
//   attack::GlitchProfile         the same windows expressed in network
//                                 parameters (threshold delta, driver gain)
//   attack::GlitchCompiler        profile -> snn::OverlaySchedule: merged
//                                 piecewise segments of fault overlays
//                                 activated at step boundaries
//
// A constant profile (flat over the whole sample) is the degenerate case:
// the compiler recognises it, and its FaultSpec form routes through the
// exact static train-under-fault path — so the paper's attacks 1-5 fall
// out bit-for-bit when the time axis is collapsed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/calibration.hpp"
#include "attack/fault_model.hpp"
#include "circuits/glitch.hpp"

namespace snnfi::attack {

/// One window of a glitch profile on the fractional sample axis: the two
/// attacked network parameters the circuit layer measured for it.
struct GlitchWindow {
    double begin = 0.0;  ///< fraction of the inference sample
    double end = 1.0;
    double threshold_delta = 0.0;  ///< fractional threshold change
    double driver_gain = 1.0;      ///< input drive amplitude ratio
};

/// A time-resolved supply-fault calibration: piecewise windows over one
/// inference sample. Windows are ordered and non-overlapping; gaps mean
/// nominal operation.
class GlitchProfile {
public:
    GlitchProfile() = default;
    /// Throws std::invalid_argument on unordered/overlapping windows.
    explicit GlitchProfile(std::vector<GlitchWindow> windows);

    /// The degenerate whole-sample profile (the static attack expressed on
    /// the glitch axis).
    static GlitchProfile constant(double threshold_delta, double driver_gain);
    /// Constant profile from the DC calibration curves at `vdd` — the
    /// paper-reference path (VddCalibration::paper_reference()) without any
    /// circuit simulation.
    static GlitchProfile constant_from(const VddCalibration& calibration,
                                       double vdd);
    /// From transient circuit characterisation (the production path:
    /// severities come from measurements, not hand-coded tables).
    static GlitchProfile from_characterization(
        const circuits::GlitchCharacterization& characterization);
    /// Quasi-static realisation of `spec` through DC calibration curves
    /// (every window's supply mapped through the VDD curves).
    static GlitchProfile from_calibration(const VddCalibration& calibration,
                                          const circuits::GlitchSpec& spec,
                                          std::size_t n_windows,
                                          double nominal_vdd = 1.0);

    const std::vector<GlitchWindow>& windows() const noexcept { return windows_; }
    bool empty() const noexcept { return windows_.empty(); }

    /// True when one (threshold_delta, driver_gain) pair covers the whole
    /// sample without gaps — the case the static fault path expresses.
    bool is_constant(double tolerance = 1e-9) const;

    /// The equivalent static FaultSpec of a constant profile (threshold
    /// fault on both layers at fraction 1 + network-wide driver gain,
    /// exactly how VddCalibration-driven attacks are specified). Throws
    /// std::logic_error unless is_constant().
    FaultSpec to_fault_spec(
        ThresholdSemantics semantics = ThresholdSemantics::kBindsNetValue) const;

    /// Stable identity for cache keys.
    std::string fingerprint() const;

private:
    std::vector<GlitchWindow> windows_;
};

/// Spatial coupling of a compiled glitch: which neurons the supply dip
/// actually reaches. The paper's attacks hit whole layers uniformly (one
/// shared rail); SpikeFI-style footprints localise the fault to a neuron
/// subset — a separately-glitched power domain, or a stratified sample
/// standing in for layout-dependent IR drop. A footprint compiles into
/// per-neuron overlay ops (threshold shifts + per-neuron driver gains)
/// instead of the uniform layer fault + network-wide gain.
struct GlitchFootprint {
    enum class Kind : std::uint8_t {
        kWholeLayer,  ///< uniform: the paper's setting (and the default)
        kNeurons,     ///< explicit neuron subset (same indices per layer)
        kStratified,  ///< seeded stratified sample of a fraction
    };

    Kind kind = Kind::kWholeLayer;
    /// Which layers' thresholds the dip reaches (driver ops always target
    /// the excitatory layer — that is where the input drivers land).
    TargetLayer layer = TargetLayer::kBoth;
    std::vector<std::size_t> neurons;  ///< kNeurons subset (sorted, unique)
    double fraction = 1.0;             ///< kStratified sampled fraction
    std::uint64_t seed = 1;            ///< kStratified sampling stream

    static GlitchFootprint whole_layer(TargetLayer layer = TargetLayer::kBoth);
    static GlitchFootprint subset(std::vector<std::size_t> neurons,
                                  TargetLayer layer = TargetLayer::kBoth);
    /// One neuron drawn per contiguous stratum of the layer, so the
    /// footprint spreads over the die instead of clustering (seeded,
    /// deterministic).
    static GlitchFootprint stratified(double fraction, std::uint64_t seed,
                                      TargetLayer layer = TargetLayer::kBoth);

    /// The uniform paper setting: whole layers, both of them — the only
    /// footprint with a static whole-network FaultSpec form.
    bool is_uniform() const noexcept {
        return kind == Kind::kWholeLayer && layer == TargetLayer::kBoth;
    }

    /// The faulted neuron indices for a layer of `layer_size` neurons
    /// (sorted; whole-layer resolves to every index). Throws
    /// std::invalid_argument on out-of-range subsets or fractions.
    std::vector<std::size_t> resolve(std::size_t layer_size) const;

    /// Stable identity for cache keys ("whole", "sub:1+5+9", "strat:0.25@7").
    std::string fingerprint() const;
};

/// One compiled schedule segment on the step axis.
struct GlitchSegment {
    std::size_t begin_step = 0;
    std::size_t end_step = 0;  ///< exclusive
    double threshold_delta = 0.0;
    double driver_gain = 1.0;
};

/// Compiles GlitchProfiles into snn::OverlaySchedules for one topology:
/// fractional windows land on step boundaries, adjacent windows with equal
/// parameters merge into one segment, and identity windows (no threshold
/// change, unit gain) compile to nothing — so a brief glitch costs two
/// overlay swaps per sample, not one per step.
class GlitchCompiler {
public:
    explicit GlitchCompiler(snn::DiehlCookConfig config, double tolerance = 1e-9);

    const snn::DiehlCookConfig& config() const noexcept { return config_; }

    /// The merged step-axis segments (identity segments dropped). Windows
    /// that round to less than one step but carry a real fault clamp to a
    /// one-step segment (a narrow-but-deep paper glitch must not compile
    /// to nothing), and end steps clamp to steps_per_sample so float
    /// error in a characterised window can never produce a segment past
    /// the sample.
    std::vector<GlitchSegment> segments(const GlitchProfile& profile) const;

    /// The full compilation: each segment's overlay is built through the
    /// same attack::overlay_for path as the static attacks, so a
    /// one-segment full-range schedule is bit-identical to the static
    /// overlay of the equivalent FaultSpec.
    snn::OverlaySchedule compile(
        const GlitchProfile& profile,
        ThresholdSemantics semantics = ThresholdSemantics::kBindsNetValue) const;

    /// Spatially-coupled compilation: a whole-layer footprint routes
    /// through the uniform path above (bit-identical), any other
    /// footprint emits per-neuron threshold ops on the footprint subset
    /// and per-neuron driver gains instead of the network-wide gain.
    snn::OverlaySchedule compile(
        const GlitchProfile& profile, const GlitchFootprint& footprint,
        ThresholdSemantics semantics = ThresholdSemantics::kBindsNetValue) const;

private:
    snn::DiehlCookConfig config_;
    double tolerance_;
};

}  // namespace snnfi::attack
