#include "defense/defenses.hpp"

namespace snnfi::defense {

std::vector<DefenseOutcome> DefenseSuite::replay(const std::string& name,
                                                 const std::vector<double>& vdds,
                                                 const std::vector<Residual>& residuals) {
    std::vector<attack::FaultSpec> faults;
    faults.reserve(residuals.size());
    for (const Residual& residual : residuals) {
        attack::FaultSpec fault;
        fault.layer = attack::TargetLayer::kBoth;
        fault.fraction = 1.0;
        fault.threshold_delta = residual.threshold_delta_pct / 100.0;
        fault.driver_gain = residual.gain;
        faults.push_back(fault);
    }
    const auto runs = attacks_->run_many(faults);
    std::vector<DefenseOutcome> outcomes(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        outcomes[i].defense = name;
        outcomes[i].vdd = vdds[i];
        outcomes[i].residual_threshold_delta_pct = residuals[i].threshold_delta_pct;
        outcomes[i].residual_gain = residuals[i].gain;
        outcomes[i].accuracy = runs[i].accuracy;
        outcomes[i].degradation_pct = runs[i].degradation_pct;
    }
    return outcomes;
}

std::vector<DefenseOutcome> DefenseSuite::bandgap_vthr(
    const circuits::BandgapModel& bandgap, const std::vector<double>& vdds) {
    std::vector<Residual> residuals;
    for (const double vdd : vdds) residuals.push_back({bandgap.deviation_pct(vdd), 1.0});
    return replay("bandgap-vthr", vdds, residuals);
}

std::vector<DefenseOutcome> DefenseSuite::replay_threshold(
    const std::string& name, const std::vector<circuits::VddPoint>& threshold) {
    std::vector<double> vdds;
    std::vector<Residual> residuals;
    for (const circuits::VddPoint& point : threshold) {
        vdds.push_back(point.vdd);
        residuals.push_back({point.change_pct, 1.0});
    }
    return replay(name, vdds, residuals);
}

std::vector<DefenseOutcome> DefenseSuite::transistor_sizing(
    const std::vector<circuits::VddPoint>& threshold) {
    return replay_threshold("mp1-sizing", threshold);
}

std::vector<DefenseOutcome> DefenseSuite::comparator_first_stage(
    const std::vector<circuits::VddPoint>& threshold) {
    return replay_threshold("comparator-ah", threshold);
}

std::vector<DefenseOutcome> DefenseSuite::robust_driver(
    const std::vector<circuits::VddPoint>& amplitude, double nominal_amplitude) {
    std::vector<double> vdds;
    std::vector<Residual> residuals;
    for (const circuits::VddPoint& point : amplitude) {
        vdds.push_back(point.vdd);
        residuals.push_back({0.0, point.value / nominal_amplitude});
    }
    return replay("robust-driver", vdds, residuals);
}

std::vector<double> DefenseSuite::undefended_accuracy(
    const attack::VddCalibration& calibration, const std::vector<double>& vdds) {
    // Attack 5 straight through the calibration bridge, as fig9a builds it
    // (the threshold curve is in percent).
    std::vector<Residual> residuals;
    for (const double vdd : vdds) {
        residuals.push_back(
            {calibration.threshold_curve()(vdd), calibration.driver_gain(vdd)});
    }
    std::vector<double> accuracies;
    for (const DefenseOutcome& outcome : replay("undefended", vdds, residuals))
        accuracies.push_back(outcome.accuracy);
    return accuracies;
}

}  // namespace snnfi::defense
