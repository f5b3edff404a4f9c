#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "spice/engine.hpp"
#include "spice/ptm65.hpp"
#include "util/units.hpp"

namespace snnfi::spice {
namespace {

using namespace snnfi::util::literals;

Netlist rc_netlist(double r, double c, double v_step) {
    Netlist nl;
    PulseSpec pulse;
    pulse.v1 = 0.0;
    pulse.v2 = v_step;
    pulse.rise = 1e-12;
    pulse.width = 1e3;  // effectively a step
    nl.add_voltage_source("V1", "in", "0", SourceSpec(pulse));
    nl.add_resistor("R1", "in", "out", r);
    nl.add_capacitor("C1", "out", "0", c);
    return nl;
}

TEST(Transient, RcStepMatchesAnalytic) {
    Netlist nl = rc_netlist(1.0_kOhm, 1.0_uF, 1.0);  // tau = 1 ms
    Simulator sim(nl);
    const auto result = sim.run_transient(5e-3, 2e-6);
    const auto t = result.time();
    const auto v = result.signal("V(out)");
    for (std::size_t k = 0; k < t.size(); k += 100) {
        const double expected = 1.0 - std::exp(-t[k] / 1e-3);
        EXPECT_NEAR(v[k], expected, 0.01) << "t=" << t[k];
    }
}

TEST(Transient, BackwardEulerTracksSinusoidalSteadyState) {
    // A smooth (sinusoidal) drive against the analytic RC response: the
    // backward-Euler error is first order in dt, about 3% of the output
    // amplitude at 100 steps per period.
    Netlist nl;
    SinSpec sin_spec;
    sin_spec.amplitude = 1.0;
    sin_spec.frequency = 500.0;  // period 2 ms vs tau 1 ms
    nl.add_voltage_source("V1", "in", "0", SourceSpec(sin_spec));
    nl.add_resistor("R1", "in", "out", 1.0_kOhm);
    nl.add_capacitor("C1", "out", "0", 1.0_uF);
    Simulator sim(nl);
    const auto result = sim.run_transient(4e-3, 20e-6);
    // Analytic steady response of RC to sin(wt): amplitude and phase.
    const double w = 2.0 * std::numbers::pi * 500.0;
    const double tau = 1e-3;
    const double gain = 1.0 / std::sqrt(1.0 + w * w * tau * tau);
    const double phase = std::atan(w * tau);
    const auto t = result.time();
    const auto v = result.signal("V(out)");
    double worst = 0.0;
    for (std::size_t k = 0; k < t.size(); ++k) {
        if (t[k] < 3.0 * tau) continue;  // skip the startup transient
        const double expected =
            gain * std::sin(w * t[k] - phase) +
            // decaying homogeneous part from v(0) = 0
            (gain * std::sin(phase)) * std::exp(-t[k] / tau);
        worst = std::max(worst, std::abs(v[k] - expected));
    }
    EXPECT_LT(worst, 0.05 * gain);
}

TEST(Transient, RcDischargeFromDcState) {
    // Capacitor pre-charged through the DC solve, then the source drops.
    Netlist nl;
    PulseSpec pulse;
    pulse.v1 = 1.0;
    pulse.v2 = 0.0;
    pulse.delay = 0.0;
    pulse.rise = 1e-12;
    pulse.width = 1e3;
    nl.add_voltage_source("V1", "in", "0", SourceSpec(pulse));
    nl.add_resistor("R1", "in", "out", 1.0_kOhm);
    nl.add_capacitor("C1", "out", "0", 1.0_uF);
    Simulator sim(nl);
    const auto result = sim.run_transient(3e-3, 2e-6);
    const auto t = result.time();
    const auto v = result.signal("V(out)");
    EXPECT_NEAR(v.front(), 1.0, 1e-6);  // DC operating point
    for (std::size_t k = 0; k < t.size(); k += 200) {
        EXPECT_NEAR(v[k], std::exp(-t[k] / 1e-3), 0.01);
    }
}

TEST(Transient, CurrentSourceChargesCapacitorLinearly) {
    Netlist nl;
    // Pulse with v1 = 0 so the DC operating point starts uncharged.
    PulseSpec pulse;
    pulse.v1 = 0.0;
    pulse.v2 = 1e-6;
    pulse.rise = 1e-12;
    pulse.width = 1.0;
    nl.add_current_source("I1", "0", "a", SourceSpec(pulse));
    nl.add_capacitor("C1", "a", "0", 1.0_uF);
    nl.add_resistor("Rleak", "a", "0", 1e9);  // keeps DC solvable
    Simulator sim(nl);
    const auto result = sim.run_transient(1e-3, 1e-6);
    // dV/dt = I/C = 1 V/s -> 1 mV after 1 ms.
    EXPECT_NEAR(result.signal("V(a)").back(), 1e-3, 5e-5);
}

TEST(Transient, RecordsBranchCurrent) {
    Netlist nl = rc_netlist(1.0_kOhm, 1.0_uF, 1.0);
    Simulator sim(nl);
    const auto result = sim.run_transient(1e-3, 5e-6);
    ASSERT_TRUE(result.has("I(V1)"));
    // At t ~ 0+ the full step appears across R: i = -1 mA (sourcing).
    const auto i = result.signal("I(V1)");
    EXPECT_NEAR(i[2], -1e-3, 1e-4);
    // After a tau the current decays.
    EXPECT_GT(i.back(), -0.5e-3);
}

TEST(Transient, InverterSwitchesWithPulseInput) {
    Netlist nl;
    nl.add_voltage_source("VDD", "vdd", "0", SourceSpec::dc(1.0));
    PulseSpec pulse;
    pulse.v1 = 0.0;
    pulse.v2 = 1.0;
    pulse.delay = 10e-9;
    pulse.rise = 1e-9;
    pulse.fall = 1e-9;
    pulse.width = 20e-9;
    nl.add_voltage_source("VIN", "in", "0", SourceSpec(pulse));
    nl.add_mosfet("MP", "out", "in", "vdd", ptm65::pmos(8.0));
    nl.add_mosfet("MN", "out", "in", "0", ptm65::nmos(4.0));
    nl.add_capacitor("CL", "out", "0", 10.0_fF);
    Simulator sim(nl);
    const auto result = sim.run_transient(50e-9, 0.25e-9);
    EXPECT_GT(result.signal("V(out)").front(), 0.99);    // input low -> out high
    const double t_fall = result.first_crossing_time("V(out)", 0.5, -1);
    EXPECT_GT(t_fall, 10e-9);
    EXPECT_LT(t_fall, 14e-9);
    const double t_rise = result.first_crossing_time("V(out)", 0.5, +1, 20e-9);
    EXPECT_GT(t_rise, 30e-9);
    EXPECT_LT(t_rise, 35e-9);
}

TEST(Transient, InvalidArguments) {
    Netlist nl = rc_netlist(1.0_kOhm, 1.0_uF, 1.0);
    Simulator sim(nl);
    EXPECT_THROW(sim.run_transient(0.0, 1e-6), std::invalid_argument);
    EXPECT_THROW(sim.run_transient(1e-3, 0.0), std::invalid_argument);
}

TEST(Transient, TimeAxisCoversWindow) {
    Netlist nl = rc_netlist(1.0_kOhm, 1.0_uF, 1.0);
    Simulator sim(nl);
    const auto result = sim.run_transient(1e-3, 1e-5);
    EXPECT_DOUBLE_EQ(result.time().front(), 0.0);
    EXPECT_NEAR(result.time().back(), 1e-3, 1e-12);
    EXPECT_GE(result.num_points(), 100u);
}

/// Charge conservation: with only a capacitor across a current source, the
/// integral of the current equals C * dV regardless of step size.
class ChargeConservation : public ::testing::TestWithParam<double> {};

TEST_P(ChargeConservation, IntegralMatches) {
    const double dt = GetParam();
    Netlist nl;
    PulseSpec pulse;
    pulse.v1 = 0.0;
    pulse.v2 = 2e-6;
    pulse.rise = 1e-12;
    pulse.width = 1.0;
    nl.add_current_source("I1", "0", "a", SourceSpec(pulse));
    nl.add_capacitor("C1", "a", "0", 0.5_uF);
    nl.add_resistor("Rleak", "a", "0", 1e9);
    Simulator sim(nl);
    const auto result = sim.run_transient(1e-3, dt);
    // V = I*t/C = 2e-6 * 1e-3 / 0.5e-6 = 4 mV.
    EXPECT_NEAR(result.signal("V(a)").back(), 4e-3, 4e-3 * 0.02);
}

INSTANTIATE_TEST_SUITE_P(StepSizes, ChargeConservation,
                         ::testing::Values(1e-6, 5e-6, 2e-5));

}  // namespace
}  // namespace snnfi::spice
