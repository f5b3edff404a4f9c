// Concrete circuit elements: R, C, V/I sources, MOSFET, op-amp, VCVS.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "spice/device.hpp"
#include "spice/mosfet_model.hpp"
#include "spice/waveform.hpp"

namespace snnfi::spice {

class Resistor final : public Device {
public:
    Resistor(std::string name, NodeId a, NodeId b, double ohms);
    void stamp(Stamper& s) const override;
    void set_resistance(double ohms);
    double resistance() const noexcept { return ohms_; }

private:
    NodeId a_, b_;
    double ohms_;
};

class Capacitor final : public Device {
public:
    Capacitor(std::string name, NodeId a, NodeId b, double farads);
    void stamp(Stamper& s) const override;
    void begin_transient(std::span<const double> x, int num_nodes) override;
    void accept_step(std::span<const double> x, int num_nodes, double dt) override;
    double capacitance() const noexcept { return farads_; }
    void set_capacitance(double farads);

private:
    double terminal_voltage(std::span<const double> x) const;
    NodeId a_, b_;
    double farads_;
    double v_prev_ = 0.0;  ///< voltage across device at last accepted point
};

/// Independent voltage source from a(+) to b(-); adds one branch unknown.
class VoltageSource final : public Device {
public:
    VoltageSource(std::string name, NodeId a, NodeId b, SourceSpec spec);
    void stamp(Stamper& s) const override;
    int num_branches() const override { return 1; }
    SourceSpec& spec() noexcept { return spec_; }
    const SourceSpec& spec() const noexcept { return spec_; }
    /// Branch current (positive from + terminal through the source to -).
    double branch_current(std::span<const double> x) const {
        return x[static_cast<std::size_t>(branch_row_)];
    }

private:
    NodeId a_, b_;
    SourceSpec spec_;
};

/// Independent current source pushing current from a through itself to b
/// (SPICE convention: positive current flows a -> b inside the source).
class CurrentSource final : public Device {
public:
    CurrentSource(std::string name, NodeId a, NodeId b, SourceSpec spec);
    void stamp(Stamper& s) const override;
    SourceSpec& spec() noexcept { return spec_; }
    const SourceSpec& spec() const noexcept { return spec_; }

private:
    NodeId a_, b_;
    SourceSpec spec_;
};

/// MOSFET (EKV behavioral model; bulk tied to source internally).
class Mosfet final : public Device {
public:
    Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source, MosParams params);
    void stamp(Stamper& s) const override;
    bool nonlinear() const override { return true; }
    const MosParams& params() const noexcept { return params_; }
    MosParams& params() noexcept { return params_; }
    /// Drain current at a solved operating point (positive into drain for
    /// NMOS forward conduction).
    double drain_current(std::span<const double> x) const;

private:
    NodeId d_, g_, s_;
    MosParams params_;
};

/// Behavioral op-amp: out = mid + swing*tanh(gain*(v+ - v-)/swing), clamped
/// smoothly between rail_lo and rail_hi. One branch unknown (ideal voltage
/// output). Used for the robust current driver and comparator defenses.
class OpAmp final : public Device {
public:
    OpAmp(std::string name, NodeId in_plus, NodeId in_minus, NodeId out,
          double gain, double rail_lo, double rail_hi);
    void stamp(Stamper& s) const override;
    bool nonlinear() const override { return true; }
    int num_branches() const override { return 1; }
    void set_rails(double lo, double hi);
    double gain() const noexcept { return gain_; }

private:
    double transfer(double vd, double gain) const;
    double transfer_derivative(double vd, double gain) const;
    NodeId p_, m_, out_;
    double gain_;
    double rail_lo_, rail_hi_;
};

/// Linear voltage-controlled voltage source (SPICE E element):
/// V(out_p) - V(out_m) = gain * (V(ctrl_p) - V(ctrl_m)).
class Vcvs final : public Device {
public:
    Vcvs(std::string name, NodeId out_p, NodeId out_m, NodeId ctrl_p, NodeId ctrl_m,
         double gain);
    void stamp(Stamper& s) const override;
    int num_branches() const override { return 1; }

private:
    NodeId op_, om_, cp_, cm_;
    double gain_;
};

}  // namespace snnfi::spice
