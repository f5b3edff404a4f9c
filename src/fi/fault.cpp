#include "fi/fault.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace snnfi::fi {

const char* to_string(SiteKind kind) {
    switch (kind) {
        case SiteKind::kNeuron: return "neuron";
        case SiteKind::kSynapse: return "synapse";
        case SiteKind::kParameter: return "parameter";
    }
    return "?";
}

namespace {

const char* layer_prefix(attack::TargetLayer layer) {
    switch (layer) {
        case attack::TargetLayer::kExcitatory: return "exc";
        case attack::TargetLayer::kInhibitory: return "inh";
        case attack::TargetLayer::kBoth: return "both";
        case attack::TargetLayer::kNone: return "net";
    }
    return "?";
}

/// Bounds-checked synapse address of a site (legacy Matrix::at parity).
void check_synapse_site(const snn::DiehlCookConfig& config, const FaultSite& site) {
    if (site.kind != SiteKind::kSynapse)
        throw std::invalid_argument("weight fault needs a synapse site");
    if (site.pre >= config.n_input || site.post >= config.n_neurons)
        throw std::out_of_range("synapse site index out of range");
}

/// Bounds-checked neuron index of a site (legacy parity).
std::size_t check_neuron_site(const snn::DiehlCookConfig& config,
                              const FaultSite& site) {
    if (site.kind != SiteKind::kNeuron)
        throw std::invalid_argument("neuron fault needs a neuron site");
    (void)overlay_layer_of(site.layer);  // must address one concrete layer
    if (site.neuron >= config.n_neurons)
        throw std::out_of_range("neuron site index out of range");
    return site.neuron;
}

}  // namespace

std::string FaultSite::id() const {
    std::ostringstream os;
    switch (kind) {
        case SiteKind::kNeuron:
            os << layer_prefix(layer) << ".n" << neuron;
            break;
        case SiteKind::kSynapse:
            os << "syn.w" << pre << "." << post;
            break;
        case SiteKind::kParameter:
            os << layer_prefix(layer) << ".param";
            break;
    }
    return os.str();
}

std::vector<double> FaultModel::severity_grid(bool) const { return {1.0}; }

snn::FaultOverlay FaultModel::overlay(const snn::DiehlCookConfig& config,
                                      const FaultSite& site, double severity) const {
    snn::FaultOverlay result;
    build_overlay(result, config, site, severity);
    return result;
}

snn::OverlayLayer overlay_layer_of(attack::TargetLayer layer) {
    switch (layer) {
        case attack::TargetLayer::kExcitatory: return snn::OverlayLayer::kExcitatory;
        case attack::TargetLayer::kInhibitory: return snn::OverlayLayer::kInhibitory;
        default:
            throw std::invalid_argument(
                "layer_of: site must address one concrete layer");
    }
}

float flip_weight_bit(float value, unsigned bit) {
    if (bit > 31) throw std::invalid_argument("flip_weight_bit: bit > 31");
    return snn::xor_weight_bits(value, std::uint32_t{1} << bit);
}

// --- StuckAtWeightFault --------------------------------------------------

const char* StuckAtWeightFault::description() const {
    return stuck_high_ ? "synaptic weight cell stuck at wmax"
                       : "synaptic weight cell stuck at wmin";
}

void StuckAtWeightFault::build_overlay(snn::FaultOverlay& overlay,
                                       const snn::DiehlCookConfig& config,
                                       const FaultSite& site, double) const {
    check_synapse_site(config, site);
    overlay.set_weight(site.pre, site.post,
                       stuck_high_ ? config.stdp.wmax : config.stdp.wmin);
}

// --- BitFlipWeightFault --------------------------------------------------

const char* BitFlipWeightFault::description() const {
    return "one bit of the float32 weight word flipped (severity = bit)";
}

std::vector<double> BitFlipWeightFault::severity_grid(bool quick) const {
    // Sign, exponent MSB/LSB, mantissa MSB/mid/LSB — the spread NeuroAttack
    // style bit-flip studies care about.
    if (quick) return {30, 22};
    return {31, 30, 23, 22, 15, 0};
}

void BitFlipWeightFault::build_overlay(snn::FaultOverlay& overlay,
                                       const snn::DiehlCookConfig& config,
                                       const FaultSite& site, double severity) const {
    check_synapse_site(config, site);
    const double rounded = std::round(severity);
    if (rounded < 0.0 || rounded > 31.0)
        throw std::invalid_argument("bit_flip severity must be a bit index 0..31");
    overlay.flip_weight_bit(site.pre, site.post, static_cast<unsigned>(rounded));
}

// --- DeadNeuronFault -----------------------------------------------------

const char* DeadNeuronFault::description() const {
    return "neuron output stuck low: never fires";
}

void DeadNeuronFault::build_overlay(snn::FaultOverlay& overlay,
                                    const snn::DiehlCookConfig& config,
                                    const FaultSite& site, double) const {
    const std::size_t mask[] = {check_neuron_site(config, site)};
    overlay.force_state(overlay_layer_of(site.layer), mask, snn::NeuronFault::kDead);
}

// --- SaturatedNeuronFault ------------------------------------------------

const char* SaturatedNeuronFault::description() const {
    return "neuron output stuck oscillating: fires on every step";
}

void SaturatedNeuronFault::build_overlay(snn::FaultOverlay& overlay,
                                         const snn::DiehlCookConfig& config,
                                         const FaultSite& site, double) const {
    const std::size_t mask[] = {check_neuron_site(config, site)};
    overlay.force_state(overlay_layer_of(site.layer), mask,
                        snn::NeuronFault::kSaturated);
}

// --- RefractoryStretchFault ----------------------------------------------

const char* RefractoryStretchFault::description() const {
    return "refractory period stretched (severity = multiplier)";
}

std::vector<double> RefractoryStretchFault::severity_grid(bool quick) const {
    if (quick) return {8.0};
    return {2.0, 4.0, 8.0};
}

void RefractoryStretchFault::build_overlay(snn::FaultOverlay& overlay,
                                           const snn::DiehlCookConfig& config,
                                           const FaultSite& site,
                                           double severity) const {
    if (severity < 0.0)
        throw std::invalid_argument("refractory_stretch severity must be >= 0");
    const std::size_t mask[] = {check_neuron_site(config, site)};
    const snn::OverlayLayer layer = overlay_layer_of(site.layer);
    const int nominal = layer == snn::OverlayLayer::kExcitatory
                            ? config.excitatory.lif.refrac_steps
                            : config.inhibitory.refrac_steps;
    const int steps =
        static_cast<int>(std::lround(severity * static_cast<double>(nominal)));
    overlay.override_refractory(layer, mask, steps);
}

// --- ThresholdDriftFault -------------------------------------------------

const char* ThresholdDriftFault::description() const {
    return "layer-wide threshold drift (paper attacks 2-4; severity = delta)";
}

std::vector<double> ThresholdDriftFault::severity_grid(bool quick) const {
    // The grid of the paper's threshold scenarios (figs. 8a-8c).
    if (quick) return {-0.2, 0.2};
    return {-0.2, -0.1, 0.1, 0.2};
}

void ThresholdDriftFault::build_overlay(snn::FaultOverlay& overlay,
                                        const snn::DiehlCookConfig& config,
                                        const FaultSite& site, double severity) const {
    if (site.kind != SiteKind::kParameter)
        throw std::invalid_argument("threshold_drift needs a parameter site");
    std::vector<std::size_t> all(config.n_neurons);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    overlay.shift_threshold_value(overlay_layer_of(site.layer), all,
                                  static_cast<float>(severity));
}

// --- DriverGainDriftFault ------------------------------------------------

const char* DriverGainDriftFault::description() const {
    return "input-driver theta drift (paper attack 1; severity = delta)";
}

std::vector<double> DriverGainDriftFault::severity_grid(bool quick) const {
    // Identical to the fig7b scenario grids so the campaign's drift rows
    // reproduce the published attack-1 numbers exactly.
    if (quick) return {-0.2, 0.2};
    return {-0.2, -0.1, -0.05, 0.05, 0.1, 0.2};
}

void DriverGainDriftFault::build_overlay(snn::FaultOverlay& overlay,
                                         const snn::DiehlCookConfig&,
                                         const FaultSite& site,
                                         double severity) const {
    if (site.kind != SiteKind::kParameter)
        throw std::invalid_argument("driver_gain_drift needs a parameter site");
    overlay.set_driver_gain(static_cast<float>(1.0 + severity));
}

// --- library -------------------------------------------------------------

const std::vector<std::shared_ptr<const FaultModel>>& standard_fault_library() {
    static const std::vector<std::shared_ptr<const FaultModel>> library = {
        std::make_shared<StuckAtWeightFault>(false),
        std::make_shared<StuckAtWeightFault>(true),
        std::make_shared<BitFlipWeightFault>(),
        std::make_shared<DeadNeuronFault>(),
        std::make_shared<SaturatedNeuronFault>(),
        std::make_shared<RefractoryStretchFault>(),
        std::make_shared<ThresholdDriftFault>(),
        std::make_shared<DriverGainDriftFault>(),
    };
    return library;
}

std::shared_ptr<const FaultModel> find_fault_model(const std::string& name) {
    for (const auto& model : standard_fault_library()) {
        if (name == model->name()) return model;
    }
    throw std::invalid_argument("unknown fault model: " + name);
}

}  // namespace snnfi::fi
