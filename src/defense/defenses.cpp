#include "defense/defenses.hpp"

#include "util/stats.hpp"

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

std::vector<DefenseOutcome> DefenseSuite::transistor_sizing(
    double sizing_ratio, const std::vector<double>& vdds) {
    // Measure the hardened inverter's threshold curve once.
    const double nominal =
        circuits_->measure_ah_threshold_with_sizing(1.0, sizing_ratio);
    std::vector<Residual> residuals;
    for (const double vdd : vdds) {
        const double thr = circuits_->measure_ah_threshold_with_sizing(vdd, sizing_ratio);
        residuals.push_back({util::percent_change(thr, nominal), 1.0});
    }
    return replay("mp1-sizing", vdds, residuals);
}

std::vector<DefenseOutcome> DefenseSuite::comparator_first_stage(
    const std::vector<double>& vdds) {
    const double nominal = circuits_->measure_comparator_ah_threshold(1.0);
    std::vector<Residual> residuals;
    for (const double vdd : vdds) {
        const double thr = circuits_->measure_comparator_ah_threshold(vdd);
        residuals.push_back({util::percent_change(thr, nominal), 1.0});
    }
    return replay("comparator-ah", vdds, residuals);
}

std::vector<DefenseOutcome> DefenseSuite::robust_driver(
    const std::vector<double>& vdds) {
    const double nominal = circuits_->measure_robust_driver_amplitude(1.0);
    std::vector<Residual> residuals;
    for (const double vdd : vdds) {
        const double amp = circuits_->measure_robust_driver_amplitude(vdd);
        residuals.push_back({0.0, amp / nominal});
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
