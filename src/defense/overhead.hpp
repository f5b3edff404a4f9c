// Power/area overhead accounting for the paper's §V defenses.
//
// Power numbers are Characterizer supply-power points (supply-current
// integration plus declared quiescent power for behavioral op-amps); area
// numbers come from the first-order layout model in circuits/area_power.hpp
// applied to the same netlists.
// Paper-reported overheads are carried alongside for comparison —
// DESIGN.md §1 gives the area model's constants and where they diverge.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuits/characterization.hpp"

namespace snnfi::defense {

struct OverheadReport {
    std::string defense;
    double baseline_power_w = 0.0;
    double secured_power_w = 0.0;
    double power_overhead_pct = 0.0;
    double baseline_area_um2 = 0.0;
    double secured_area_um2 = 0.0;
    double area_overhead_pct = 0.0;
    double paper_power_overhead_pct = 0.0;  ///< published number
    double paper_area_note = 0.0;           ///< published area overhead (% or ~0)
};

class OverheadAnalyzer {
public:
    /// Measures the nominal-VDD supply power of every cell the reports
    /// compare (the plain, MP1-resized and comparator AH neurons, the
    /// VampIF neuron and both drivers: six transients) as one
    /// Characterizer::measure batch on `pool`, serially without one.
    explicit OverheadAnalyzer(const circuits::Characterizer& circuits,
                              util::ThreadPool* pool = nullptr);

    /// Robust op-amp driver vs. unsecured mirror driver (paper: +3% power,
    /// negligible area).
    OverheadReport robust_driver() const;
    /// AH neuron with MP1 resized 32:1 (Fig. 9c's largest ratio) vs.
    /// baseline AH neuron (paper: +25% power, negligible area).
    OverheadReport transistor_sizing() const;
    /// Comparator-AH neuron vs. baseline AH neuron (paper: +11% power,
    /// negligible area).
    OverheadReport comparator_ah() const;
    /// Bandgap shared across an SNN of `total_neurons` I&F neurons
    /// (paper: 65% area overhead at 200 neurons).
    OverheadReport bandgap(std::size_t total_neurons) const;
    /// One dummy neuron + fixed driver per layer of `neurons_per_layer`
    /// (paper: ~1% power and area).
    OverheadReport dummy_neuron(std::size_t neurons_per_layer) const;

    /// All five, in paper order.
    std::vector<OverheadReport> all(std::size_t total_neurons = 200,
                                    std::size_t neurons_per_layer = 100) const;

private:
    /// One cell's measured supply power and modelled layout area.
    struct Cell {
        double power_w = 0.0;
        double area_um2 = 0.0;
    };
    Cell neuron_, sized_, comparator_, vamp_if_, driver_, robust_driver_;
};

}  // namespace snnfi::defense
