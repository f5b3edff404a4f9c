// Behavioral bandgap voltage reference (paper §V-B1, ref [24]).
//
// The defense analysis only relies on the published residual supply
// sensitivity of the Sanborn et al. sub-1V bandgap: +/-0.56% output
// variation for supplies from 0.85 V to 1 V. We model the reference as a
// bounded-deviation function of VDD rather than simulating the BJT core
// (the paper likewise cites, not simulates, the reference).
#pragma once

namespace snnfi::circuits {

struct BandgapModel {
    double nominal_vref = 0.5;       ///< programmed output [V]
    double max_deviation_pct = 0.56; ///< |dVref/Vref| bound over supply range
    /// Below this supply the reference drops out. The cited design ([24])
    /// specifies 0.85 V; we assume a retargeted variant that covers the
    /// paper's full 0.8-1.2 V attack range (DESIGN.md §1).
    double min_supply = 0.75;
    double supply_headroom = 0.05;   ///< linear dropout width below min_supply

    /// Reference output at a given supply. Within the valid supply range the
    /// deviation stays inside +/-max_deviation_pct (worst at the range
    /// edges, zero at 1 V nominal supply); below min_supply the output
    /// degrades linearly (dropout).
    double vref(double vdd) const;

    /// Percent change of vref at `vdd` relative to the nominal output.
    double deviation_pct(double vdd) const;
};

/// Area/power budget of the bandgap used for overhead accounting
/// (paper: 65% area overhead for a 200-neuron SNN when unshared).
struct BandgapCost {
    double area_um2 = 16000.0;  ///< one instance, behavioral estimate
    double power_w = 12e-6;
};

}  // namespace snnfi::circuits
