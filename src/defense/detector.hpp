// Dummy-neuron voltage-glitch detector (paper §V-C, Figs. 10b/10c).
//
// Decision rule: a layer is flagged as under attack when its dummy
// neuron's output spike count over the sampling window deviates from the
// golden (nominal-VDD) count by at least `threshold_pct` (paper: 10%).
#pragma once

#include <utility>
#include <vector>

#include "circuits/dummy_neuron.hpp"

namespace snnfi::defense {

struct DetectorConfig {
    circuits::DummyNeuronConfig cell;
    double threshold_pct = 10.0;  ///< flag at >= this absolute deviation
    double nominal_vdd = 1.0;
};

struct DetectorReading {
    double vdd = 0.0;
    double spike_count = 0.0;     ///< over the sampling window
    double deviation_pct = 0.0;
    bool flagged = false;
};

class DummyNeuronDetector {
public:
    explicit DummyNeuronDetector(DetectorConfig config = {});

    const DetectorConfig& config() const noexcept { return config_; }

    /// Characterises the golden count, then evaluates each VDD (Fig. 10c);
    /// the cell transients fan out over `pool` when one is supplied.
    std::vector<DetectorReading> sweep(const std::vector<double>& vdds,
                                       util::ThreadPool* pool = nullptr) const;

    /// Detection decision for a single observed count.
    bool flags(double observed_count, double golden_count) const;

    /// Smallest |VDD - nominal| in `vdds` that trips the detector on each
    /// side (returns {low_side, high_side}; 0 entries mean never tripped).
    std::pair<double, double> detection_edges(const std::vector<double>& vdds) const;

private:
    DetectorConfig config_;
};

}  // namespace snnfi::defense
