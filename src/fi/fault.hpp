// Generic fault library: the polymorphic fault models of the campaign
// engine (src/fi/campaign.hpp).
//
// The paper studies two power-oriented fault axes — threshold scaling
// (§III-C) and driver gain (§III-B). This library generalises them into a
// FaultModel hierarchy in the spirit of SpikeFI/NeuroAttack:
//
//   model              site kind   severity meaning
//   -----------------  ----------  ------------------------------------
//   stuck_at_0         synapse     (ignored) weight pinned to wmin
//   stuck_at_1         synapse     (ignored) weight pinned to wmax
//   bit_flip           synapse     IEEE-754 bit index to flip (0..31)
//   dead_neuron        neuron      (ignored) output stuck low
//   saturated_neuron   neuron      (ignored) fires on every step
//   refractory_stretch neuron      refractory-period multiplier
//   threshold_drift    parameter   threshold delta (paper attacks 2-4)
//   driver_gain_drift  parameter   theta/drive delta (paper attack 1)
//
// Every model expresses (site, severity) as a snn::FaultOverlay
// (build_overlay), which the campaign engine hands to one NetworkRuntime
// per (cell, replica) over the shared trained NetworkModel — no baseline
// snapshot/restore. The two *_drift models are the paper's attacks
// re-expressed: they carry trains_under_fault() == true, so the campaign
// engine trains under their overlay (AttackSuite::train_many) and
// reproduces the published scenarios exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/fault_model.hpp"
#include "snn/network.hpp"
#include "snn/overlay.hpp"

namespace snnfi::fi {

/// Where a fault physically lives in the network.
enum class SiteKind : std::uint8_t {
    kNeuron,     ///< one neuron of one layer
    kSynapse,    ///< one input->EL synaptic weight cell
    kParameter,  ///< a layer- or network-wide analog parameter
};

const char* to_string(SiteKind kind);

/// An addressable fault location. The meaning of the index fields depends
/// on `kind`; id() renders the stable human-readable address used in
/// campaign tables and JSON (e.g. "exc.n17", "syn.w312.5", "inh.param").
struct FaultSite {
    SiteKind kind = SiteKind::kNeuron;
    /// Layer handle for neuron and parameter sites; kNone marks a
    /// network-wide parameter site (input drivers).
    attack::TargetLayer layer = attack::TargetLayer::kExcitatory;
    std::size_t neuron = 0;  ///< neuron index (kNeuron)
    std::size_t pre = 0;     ///< synapse row / input pixel (kSynapse)
    std::size_t post = 0;    ///< synapse column / EL neuron (kSynapse)

    std::string id() const;
};

/// One fault mechanism, applicable to any matching site at a severity
/// drawn from the model's grid. Implementations are stateless and
/// thread-safe: build_overlay() only appends to the overlay it is handed.
class FaultModel {
public:
    virtual ~FaultModel() = default;

    virtual const char* name() const = 0;
    virtual const char* description() const = 0;
    virtual SiteKind site_kind() const = 0;

    /// The severity grid a campaign sweeps for this model. Binary faults
    /// return a single don't-care entry.
    virtual std::vector<double> severity_grid(bool quick) const;

    /// True for analog drift models that must corrupt *training* (the
    /// paper's setting); the campaign engine trains under their overlay
    /// (AttackSuite::train_many) instead of the inference-time path.
    virtual bool trains_under_fault() const { return false; }

    /// True when the fault hits the whole network at once (one site)
    /// rather than one layer/neuron/synapse — e.g. the shared input
    /// drivers. Campaigns then plan a single kParameter site with
    /// layer == TargetLayer::kNone.
    virtual bool network_wide() const { return false; }

    /// Appends the overlay operations expressing (site, severity) for a
    /// network of this topology. Validates the site against `config` with
    /// the same exceptions the legacy inject path threw.
    virtual void build_overlay(snn::FaultOverlay& overlay,
                               const snn::DiehlCookConfig& config,
                               const FaultSite& site, double severity) const = 0;

    /// Convenience: a fresh overlay holding just this fault.
    snn::FaultOverlay overlay(const snn::DiehlCookConfig& config,
                              const FaultSite& site, double severity) const;
};

class StuckAtWeightFault final : public FaultModel {
public:
    explicit StuckAtWeightFault(bool stuck_high) : stuck_high_(stuck_high) {}
    const char* name() const override { return stuck_high_ ? "stuck_at_1" : "stuck_at_0"; }
    const char* description() const override;
    SiteKind site_kind() const override { return SiteKind::kSynapse; }
    void build_overlay(snn::FaultOverlay& overlay, const snn::DiehlCookConfig& config,
                       const FaultSite& site, double severity) const override;

private:
    bool stuck_high_;
};

/// Flips one bit of the IEEE-754 float32 weight word (severity = bit
/// index, 0 = LSB of the mantissa, 31 = sign). Injecting the same fault
/// twice restores the weight bit-exactly.
class BitFlipWeightFault final : public FaultModel {
public:
    const char* name() const override { return "bit_flip"; }
    const char* description() const override;
    SiteKind site_kind() const override { return SiteKind::kSynapse; }
    std::vector<double> severity_grid(bool quick) const override;
    void build_overlay(snn::FaultOverlay& overlay, const snn::DiehlCookConfig& config,
                       const FaultSite& site, double severity) const override;
};

class DeadNeuronFault final : public FaultModel {
public:
    const char* name() const override { return "dead_neuron"; }
    const char* description() const override;
    SiteKind site_kind() const override { return SiteKind::kNeuron; }
    void build_overlay(snn::FaultOverlay& overlay, const snn::DiehlCookConfig& config,
                       const FaultSite& site, double severity) const override;
};

class SaturatedNeuronFault final : public FaultModel {
public:
    const char* name() const override { return "saturated_neuron"; }
    const char* description() const override;
    SiteKind site_kind() const override { return SiteKind::kNeuron; }
    void build_overlay(snn::FaultOverlay& overlay, const snn::DiehlCookConfig& config,
                       const FaultSite& site, double severity) const override;
};

/// Multiplies a neuron's refractory period (severity = multiplier).
class RefractoryStretchFault final : public FaultModel {
public:
    const char* name() const override { return "refractory_stretch"; }
    const char* description() const override;
    SiteKind site_kind() const override { return SiteKind::kNeuron; }
    std::vector<double> severity_grid(bool quick) const override;
    void build_overlay(snn::FaultOverlay& overlay, const snn::DiehlCookConfig& config,
                       const FaultSite& site, double severity) const override;
};

/// Parametric threshold drift on a whole layer — the general form of the
/// paper's attacks 2-4 (severity = threshold delta, BindsNET semantics).
class ThresholdDriftFault final : public FaultModel {
public:
    const char* name() const override { return "threshold_drift"; }
    const char* description() const override;
    SiteKind site_kind() const override { return SiteKind::kParameter; }
    std::vector<double> severity_grid(bool quick) const override;
    bool trains_under_fault() const override { return true; }
    void build_overlay(snn::FaultOverlay& overlay, const snn::DiehlCookConfig& config,
                       const FaultSite& site, double severity) const override;
};

/// Parametric drift of the input current drivers — the general form of the
/// paper's attack 1 (severity = theta delta; gain = 1 + severity). Uses the
/// same grid as the fig7b scenario so the campaign reproduces it exactly.
class DriverGainDriftFault final : public FaultModel {
public:
    const char* name() const override { return "driver_gain_drift"; }
    const char* description() const override;
    SiteKind site_kind() const override { return SiteKind::kParameter; }
    std::vector<double> severity_grid(bool quick) const override;
    bool trains_under_fault() const override { return true; }
    bool network_wide() const override { return true; }
    void build_overlay(snn::FaultOverlay& overlay, const snn::DiehlCookConfig& config,
                       const FaultSite& site, double severity) const override;
};

/// The standard catalog: all eight models above, in taxonomy order.
const std::vector<std::shared_ptr<const FaultModel>>& standard_fault_library();

/// Looks a model up by name() in the standard library; throws
/// std::invalid_argument on an unknown name.
std::shared_ptr<const FaultModel> find_fault_model(const std::string& name);

/// Flips one bit of a float's IEEE-754 representation (bit 0 = LSB).
float flip_weight_bit(float value, unsigned bit);

/// The overlay-layer handle a neuron/parameter site addresses. Throws
/// std::invalid_argument unless the site names one concrete layer.
snn::OverlayLayer overlay_layer_of(attack::TargetLayer layer);

}  // namespace snnfi::fi
