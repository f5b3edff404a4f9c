// Defense evaluations (paper §V): each defense is scored by re-running the
// relevant attack with the *residual* parameter corruption the hardened
// circuit still lets through.
//
//   robust driver  -> residual amplitude error from the op-amp regulated
//                     mirror (Fig. 9b) instead of the unsecured curve.
//   bandgap Vthr   -> residual threshold deviation bounded by +/-0.56%.
//   MP1 resizing   -> measured threshold droop at the chosen sizing ratio.
//   comparator AH  -> measured (flat) comparator threshold curve.
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
    DefenseSuite(attack::AttackSuite& attacks, const circuits::Characterizer& circuits)
        : attacks_(&attacks), circuits_(&circuits) {}

    /// Bandgap-referenced Vthr (paper §V-B1): the threshold attack is
    /// clamped to the bandgap's residual deviation; drivers assumed robust.
    std::vector<DefenseOutcome> bandgap_vthr(const circuits::BandgapModel& bandgap,
                                             const std::vector<double>& vdds);

    /// First-inverter resizing (paper Fig. 9c): measures the AH threshold
    /// droop at `sizing_ratio` for each VDD and replays Attack 4 with it.
    std::vector<DefenseOutcome> transistor_sizing(double sizing_ratio,
                                                  const std::vector<double>& vdds);

    /// Comparator first stage (paper Fig. 10a): measured comparator-AH
    /// threshold curve drives the replay.
    std::vector<DefenseOutcome> comparator_first_stage(const std::vector<double>& vdds);

    /// Robust current driver (paper §V-A): replays Attack 1 with the
    /// regulated driver's measured amplitude curve instead of the
    /// unsecured one.
    std::vector<DefenseOutcome> robust_driver(const std::vector<double>& vdds);

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

    attack::AttackSuite* attacks_;
    const circuits::Characterizer* circuits_;
};

}  // namespace snnfi::defense
