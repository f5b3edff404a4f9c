#include <gtest/gtest.h>

#include "attack/scenarios.hpp"
#include "data/synthetic_digits.hpp"
#include "defense/defenses.hpp"
#include "defense/overhead.hpp"
#include "util/thread_pool.hpp"

namespace snnfi::defense {
namespace {

const circuits::Characterizer& shared_characterizer() {
    static const circuits::Characterizer instance{circuits::CharacterizationConfig{}};
    return instance;
}

attack::AttackSuite tiny_suite() {
    attack::AttackRunConfig config;
    config.network.n_neurons = 50;
    config.train_samples = 300;
    config.eval_window = 100;
    return attack::AttackSuite(data::make_synthetic_dataset(300, 42), config);
}

// ---------------------------------------------------------------- overhead
/// One analyzer for every overhead test: its constructor simulates the six
/// supply-power points.
const OverheadAnalyzer& shared_analyzer() {
    static const OverheadAnalyzer instance = [] {
        util::ThreadPool pool(2);
        return OverheadAnalyzer(shared_characterizer(), &pool);
    }();
    return instance;
}

TEST(Overhead, ComparatorCostsPower) {
    const auto report = shared_analyzer().comparator_ah();
    EXPECT_GT(report.power_overhead_pct, 0.0);  // OTA bias current (paper: 11%)
    EXPECT_LT(report.power_overhead_pct, 100.0);
    EXPECT_GT(report.secured_power_w, report.baseline_power_w);
}

TEST(Overhead, RobustDriverReport) {
    const auto report = shared_analyzer().robust_driver();
    EXPECT_GT(report.power_overhead_pct, 0.0);
    EXPECT_GT(report.baseline_area_um2, 0.0);
    EXPECT_DOUBLE_EQ(report.paper_power_overhead_pct, 3.0);
}

TEST(Overhead, BandgapAmortizesAcrossNeurons) {
    const auto small = shared_analyzer().bandgap(200);
    const auto large = shared_analyzer().bandgap(2000);
    EXPECT_GT(small.area_overhead_pct, large.area_overhead_pct);
    EXPECT_GT(small.area_overhead_pct, 0.0);
}

TEST(Overhead, DummyNeuronAboutOnePercent) {
    const auto report = shared_analyzer().dummy_neuron(100);
    EXPECT_GT(report.area_overhead_pct, 0.3);
    EXPECT_LT(report.area_overhead_pct, 3.0);
    EXPECT_GT(report.power_overhead_pct, 0.3);
    EXPECT_LT(report.power_overhead_pct, 5.0);
}

TEST(Overhead, AllReportsPresent) {
    const auto reports = shared_analyzer().all();
    ASSERT_EQ(reports.size(), 5u);
    for (const auto& report : reports) {
        EXPECT_FALSE(report.defense.empty());
        EXPECT_GT(report.baseline_power_w, 0.0);
    }
}

// ---------------------------------------------------------------- defenses
/// One threshold curve of the default characterizer over `vdds`.
std::vector<circuits::VddPoint> threshold_curve(circuits::SweepSpec sweep,
                                                std::vector<double> vdds) {
    sweep.quantity = circuits::Quantity::kThreshold;
    sweep.grid = std::move(vdds);
    return shared_characterizer().sweep({sweep}).front();
}

TEST(DefenseSuite, BandgapRecoversAccuracy) {
    auto suite = tiny_suite();
    DefenseSuite defenses(suite);

    // Undefended attack at 0.8 V collapses...
    const auto calibration = attack::VddCalibration::paper_reference();
    attack::FaultSpec vdd_attack;
    vdd_attack.layer = attack::TargetLayer::kBoth;
    vdd_attack.threshold_delta = calibration.threshold_delta(0.8);
    vdd_attack.driver_gain = calibration.driver_gain(0.8);
    const auto undefended = suite.run_many({vdd_attack});
    EXPECT_LT(undefended[0].degradation_pct, -40.0);

    // ...the bandgap-clamped threshold keeps accuracy near the baseline.
    const auto defended = defenses.bandgap_vthr(circuits::BandgapModel{}, {0.8});
    ASSERT_EQ(defended.size(), 1u);
    EXPECT_GT(defended[0].accuracy, 0.8 * suite.baseline_accuracy());
    EXPECT_LT(std::abs(defended[0].residual_threshold_delta_pct), 0.6);
}

TEST(DefenseSuite, ComparatorRecoversAccuracy) {
    auto suite = tiny_suite();
    DefenseSuite defenses(suite);
    const auto defended = defenses.comparator_first_stage(
        threshold_curve({.circuit = circuits::Circuit::kComparatorAh}, {0.8}));
    ASSERT_EQ(defended.size(), 1u);
    EXPECT_LT(std::abs(defended[0].residual_threshold_delta_pct), 1.5);
    // Online accuracy at this scale is trajectory-noisy; the residual
    // corruption must stay far from the collapse regime (compare against
    // the undefended -20% attack which lands near chance).
    EXPECT_GT(defended[0].accuracy, 0.55 * suite.baseline_accuracy());
    attack::FaultSpec undefended;
    undefended.layer = attack::TargetLayer::kBoth;
    undefended.threshold_delta = -0.18;
    EXPECT_GT(defended[0].accuracy, 2.0 * suite.run_many({undefended})[0].accuracy);
}

TEST(DefenseSuite, SizingReducesResidualCorruption) {
    auto suite = tiny_suite();
    DefenseSuite defenses(suite);
    const auto defended =
        defenses.transistor_sizing(threshold_curve({.sizing_ratio = 32.0}, {0.8}));
    ASSERT_EQ(defended.size(), 1u);
    // Residual droop must beat the unsecured -18%.
    EXPECT_GT(defended[0].residual_threshold_delta_pct, -16.0);
    EXPECT_LT(defended[0].residual_threshold_delta_pct, -5.0);
}

TEST(DefenseSuite, RobustDriverKeepsGainNearUnity) {
    auto suite = tiny_suite();
    DefenseSuite defenses(suite);
    const auto& ch = shared_characterizer();
    const double nominal =
        ch.measure({{.quantity = circuits::Quantity::kRobustDriverAmplitude,
                     .vdd = ch.config().nominal_vdd}})
            .front();
    const auto defended =
        defenses.robust_driver(ch.driver_amplitude_vs_vdd({0.8, 1.2}, true), nominal);
    ASSERT_EQ(defended.size(), 2u);
    for (const auto& outcome : defended) {
        EXPECT_NEAR(outcome.residual_gain, 1.0, 0.02);
        EXPECT_GT(outcome.accuracy, 0.75 * suite.baseline_accuracy());
    }
}

}  // namespace
}  // namespace snnfi::defense
