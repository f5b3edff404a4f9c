// Defense evaluations (paper §V): each defense is scored by re-running the
// relevant attack with the *residual* parameter corruption the hardened
// circuit still lets through.
//
//   robust driver  -> residual amplitude error from the op-amp regulated
//                     mirror (Fig. 9b) instead of the unsecured curve.
//   bandgap Vthr   -> residual threshold deviation bounded by +/-0.56%.
//   MP1 resizing   -> measured threshold droop at the chosen sizing ratio.
//   comparator AH  -> measured (flat) comparator threshold curve.
//
// The measured residuals arrive as characterisation curves (one
// circuits::SweepSpec each, e.g. from core::Session::sweeps), so the
// suite itself simulates no circuit.
#pragma once

#include <string>
#include <vector>

#include "attack/calibration.hpp"
#include "attack/scenarios.hpp"
#include "circuits/bandgap.hpp"
#include "circuits/characterization.hpp"

namespace snnfi::defense {

struct DefenseOutcome {
    std::string defense;
    double vdd = 0.0;
    double residual_threshold_delta_pct = 0.0;  ///< what the attack still corrupts
    double residual_gain = 1.0;
    double accuracy = 0.0;
    double degradation_pct = 0.0;  ///< vs attack-free baseline
    double undefended_accuracy = -1.0;  ///< same VDD without the defense
};

class DefenseSuite {
public:
    /// Shares the dataset/baseline with an AttackSuite (results comparable).
    explicit DefenseSuite(attack::AttackSuite& attacks) : attacks_(&attacks) {}

    /// Bandgap-referenced Vthr (paper §V-B1): the threshold attack is
    /// clamped to the bandgap's residual deviation; drivers assumed robust.
    std::vector<DefenseOutcome> bandgap_vthr(const circuits::BandgapModel& bandgap,
                                             const std::vector<double>& vdds);

    /// First-inverter resizing (paper Fig. 9c): replays Attack 4 with each
    /// point's threshold change of the resized neuron's threshold curve.
    std::vector<DefenseOutcome> transistor_sizing(
        const std::vector<circuits::VddPoint>& threshold);

    /// Comparator first stage (paper Fig. 10a): replays Attack 4 with the
    /// comparator-AH threshold curve.
    std::vector<DefenseOutcome> comparator_first_stage(
        const std::vector<circuits::VddPoint>& threshold);

    /// Robust current driver (paper §V-A): replays Attack 1 with the
    /// regulated driver's amplitude curve instead of the unsecured one;
    /// each point's driver gain is its amplitude over `nominal_amplitude`.
    std::vector<DefenseOutcome> robust_driver(const std::vector<circuits::VddPoint>& amplitude,
                                              double nominal_amplitude);

    /// Undefended Attack-5-style outcome at each VDD for side-by-side
    /// comparison columns.
    std::vector<double> undefended_accuracy(const attack::VddCalibration& calibration,
                                            const std::vector<double>& vdds);

private:
    /// What a defended circuit still lets the attack corrupt at one VDD.
    struct Residual {
        double threshold_delta_pct = 0.0;  ///< both layers, 100%
        double gain = 1.0;                 ///< input-driver amplitude ratio
    };
    /// Replays the attack with each VDD's residual corruption (one
    /// run_many batch) and labels the outcomes `name`.
    std::vector<DefenseOutcome> replay(const std::string& name,
                                       const std::vector<double>& vdds,
                                       const std::vector<Residual>& residuals);
    /// Replays each point's threshold change of `threshold` as `name`.
    std::vector<DefenseOutcome> replay_threshold(const std::string& name,
                                                 const std::vector<circuits::VddPoint>& threshold);

    attack::AttackSuite* attacks_;
};

}  // namespace snnfi::defense
