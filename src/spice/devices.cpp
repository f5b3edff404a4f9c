#include "spice/devices.hpp"

#include <cmath>
#include <stdexcept>

namespace snnfi::spice {

namespace {
double node_value(std::span<const double> x, NodeId n) {
    return n == kGround ? 0.0 : x[static_cast<std::size_t>(n)];
}
}  // namespace

// ---------------------------------------------------------------- Resistor
Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Device(std::move(name)), a_(a), b_(b), ohms_(ohms) {
    if (ohms <= 0.0) throw std::invalid_argument("Resistor: non-positive resistance");
}

void Resistor::stamp(Stamper& s) const { s.add_conductance(a_, b_, 1.0 / ohms_); }

void Resistor::set_resistance(double ohms) {
    if (ohms <= 0.0) throw std::invalid_argument("Resistor: non-positive resistance");
    ohms_ = ohms;
}

// --------------------------------------------------------------- Capacitor
Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads)
    : Device(std::move(name)), a_(a), b_(b), farads_(farads) {
    if (farads <= 0.0) throw std::invalid_argument("Capacitor: non-positive capacitance");
}

void Capacitor::set_capacitance(double farads) {
    if (farads <= 0.0) throw std::invalid_argument("Capacitor: non-positive capacitance");
    farads_ = farads;
}

double Capacitor::terminal_voltage(std::span<const double> x) const {
    return node_value(x, a_) - node_value(x, b_);
}

void Capacitor::stamp(Stamper& s) const {
    if (!s.transient()) return;  // open circuit at DC
    // Backward Euler: i = geq*(v - v_prev), the history term entering as a
    // source b -> a.
    const double geq = farads_ / s.dt();
    s.add_conductance(a_, b_, geq);
    s.add_current_source(b_, a_, geq * v_prev_);
}

void Capacitor::begin_transient(std::span<const double> x, int /*num_nodes*/) {
    v_prev_ = terminal_voltage(x);
}

void Capacitor::accept_step(std::span<const double> x, int /*num_nodes*/,
                            double /*dt*/) {
    v_prev_ = terminal_voltage(x);
}

// ----------------------------------------------------------- VoltageSource
VoltageSource::VoltageSource(std::string name, NodeId a, NodeId b, SourceSpec spec)
    : Device(std::move(name)), a_(a), b_(b), spec_(std::move(spec)) {}

void VoltageSource::stamp(Stamper& s) const {
    const int m = branch_row_;
    s.add(a_, m, +1.0);
    s.add(b_, m, -1.0);
    s.add(m, a_, +1.0);
    s.add(m, b_, -1.0);
    const double value = s.transient() ? spec_.eval(s.time()) : spec_.dc_value();
    s.add_rhs(m, value * s.source_scale());
}

// ----------------------------------------------------------- CurrentSource
CurrentSource::CurrentSource(std::string name, NodeId a, NodeId b, SourceSpec spec)
    : Device(std::move(name)), a_(a), b_(b), spec_(std::move(spec)) {}

void CurrentSource::stamp(Stamper& s) const {
    const double value = s.transient() ? spec_.eval(s.time()) : spec_.dc_value();
    s.add_current_source(a_, b_, value * s.source_scale());
}

// ------------------------------------------------------------------ Mosfet
Mosfet::Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
               MosParams params)
    : Device(std::move(name)), d_(drain), g_(gate), s_(source), params_(params) {}

void Mosfet::stamp(Stamper& st) const {
    const double vd = st.voltage(d_);
    const double vg = st.voltage(g_);
    const double vs = st.voltage(s_);

    double id, gm, gds;
    double vgs_used, vds_used;
    if (params_.type == MosType::kNmos) {
        vgs_used = vg - vs;
        vds_used = vd - vs;
        const MosEval e = evaluate_nmos(params_, vgs_used, vds_used);
        id = e.id;
        gm = e.gm;
        gds = e.gds;
    } else {
        // PMOS mirrors the NMOS surface: Id(d->s) = -F(-(vg-vs), -(vd-vs));
        // chain rule keeps gm/gds positive.
        vgs_used = vg - vs;
        vds_used = vd - vs;
        const MosEval e = evaluate_nmos(params_, -vgs_used, -vds_used);
        id = -e.id;
        gm = e.gm;
        gds = e.gds;
    }

    // Linearised drain current, flowing d -> s inside the device:
    //   i = id_k + gm*(vgs - vgs_k) + gds*(vds - vds_k)
    const double i_eq = id - gm * vgs_used - gds * vds_used;
    st.add(d_, g_, +gm);
    st.add(d_, s_, -(gm + gds));
    st.add(d_, d_, +gds);
    st.add(s_, g_, -gm);
    st.add(s_, s_, +(gm + gds));
    st.add(s_, d_, -gds);
    st.add_current_source(d_, s_, i_eq);
}

double Mosfet::drain_current(std::span<const double> x) const {
    const double vgs = node_value(x, g_) - node_value(x, s_);
    const double vds = node_value(x, d_) - node_value(x, s_);
    if (params_.type == MosType::kNmos) return evaluate_nmos(params_, vgs, vds).id;
    return -evaluate_nmos(params_, -vgs, -vds).id;
}

// ------------------------------------------------------------------- OpAmp
OpAmp::OpAmp(std::string name, NodeId in_plus, NodeId in_minus, NodeId out,
             double gain, double rail_lo, double rail_hi)
    : Device(std::move(name)), p_(in_plus), m_(in_minus), out_(out), gain_(gain),
      rail_lo_(rail_lo), rail_hi_(rail_hi) {
    if (rail_hi_ <= rail_lo_) throw std::invalid_argument("OpAmp: rail_hi <= rail_lo");
    if (gain_ <= 0.0) throw std::invalid_argument("OpAmp: non-positive gain");
}

void OpAmp::set_rails(double lo, double hi) {
    if (hi <= lo) throw std::invalid_argument("OpAmp::set_rails: hi <= lo");
    rail_lo_ = lo;
    rail_hi_ = hi;
}

double OpAmp::transfer(double vd, double gain) const {
    const double mid = 0.5 * (rail_hi_ + rail_lo_);
    const double swing = 0.5 * (rail_hi_ - rail_lo_);
    return mid + swing * std::tanh(gain * vd / swing);
}

double OpAmp::transfer_derivative(double vd, double gain) const {
    const double swing = 0.5 * (rail_hi_ - rail_lo_);
    const double th = std::tanh(gain * vd / swing);
    return gain * (1.0 - th * th);
}

void OpAmp::stamp(Stamper& s) const {
    const int mrow = branch_row_;
    // Relaxation continuation: gain^relax spans [1, gain] as relax goes
    // 0 -> 1, widening the linear input range for early DC stages.
    const double gain = std::pow(gain_, s.relax());
    const double vd = s.voltage(p_) - s.voltage(m_);
    const double f = transfer(vd, gain);
    const double fp = transfer_derivative(vd, gain);

    // Branch equation: V(out) - [f(vd_k) + f'(vd_k)(vd - vd_k)] = 0.
    s.add(out_, mrow, +1.0);
    s.add(mrow, out_, +1.0);
    s.add(mrow, p_, -fp);
    s.add(mrow, m_, +fp);
    s.add_rhs(mrow, f - fp * vd);
}

// -------------------------------------------------------------------- Vcvs
Vcvs::Vcvs(std::string name, NodeId out_p, NodeId out_m, NodeId ctrl_p, NodeId ctrl_m,
           double gain)
    : Device(std::move(name)), op_(out_p), om_(out_m), cp_(ctrl_p), cm_(ctrl_m),
      gain_(gain) {}

void Vcvs::stamp(Stamper& s) const {
    const int mrow = branch_row_;
    s.add(op_, mrow, +1.0);
    s.add(om_, mrow, -1.0);
    s.add(mrow, op_, +1.0);
    s.add(mrow, om_, -1.0);
    s.add(mrow, cp_, -gain_);
    s.add(mrow, cm_, +gain_);
}

}  // namespace snnfi::spice
