// Device abstraction for MNA assembly.
//
// The engine owns the unknown vector x = [node voltages | branch currents].
// Each Newton-Raphson iteration asks every device to stamp its linearised
// companion model into (G, rhs) around the current iterate; nonlinear
// devices therefore see the iterate through the Stamper.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "spice/linear.hpp"

namespace snnfi::spice {

/// Node handle. Ground is the dedicated constant; it has no matrix row.
using NodeId = int;
inline constexpr NodeId kGround = -1;

/// Assembly interface handed to Device::stamp. Transient steps integrate
/// with backward Euler.
class Stamper {
public:
    Stamper(Matrix& g, std::vector<double>& rhs, std::span<const double> x,
            int num_nodes, double t, double dt, double source_scale,
            double relax = 1.0)
        : g_(g), rhs_(rhs), x_(x), num_nodes_(num_nodes), time_(t), dt_(dt),
          source_scale_(source_scale), relax_(relax) {}

    /// Node voltage at the current Newton iterate (0 for ground).
    double voltage(NodeId node) const {
        return node == kGround ? 0.0 : x_[static_cast<std::size_t>(node)];
    }
    /// Raw unknown (used by branch devices to read their own current).
    double unknown(int row) const { return x_[static_cast<std::size_t>(row)]; }

    /// G[row][col] += value; rows/cols < 0 (ground) are ignored.
    void add(int row, int col, double value) {
        if (row < 0 || col < 0) return;
        g_(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += value;
    }
    /// rhs[row] += value; ground rows are ignored.
    void add_rhs(int row, double value) {
        if (row < 0) return;
        rhs_[static_cast<std::size_t>(row)] += value;
    }
    /// Conductance g between nodes a and b.
    void add_conductance(NodeId a, NodeId b, double g) {
        add(a, a, g);
        add(b, b, g);
        add(a, b, -g);
        add(b, a, -g);
    }
    /// Independent current i flowing from a through the source into b.
    void add_current_source(NodeId a, NodeId b, double i) {
        add_rhs(a, -i);
        add_rhs(b, +i);
    }

    double time() const noexcept { return time_; }
    double dt() const noexcept { return dt_; }
    bool transient() const noexcept { return dt_ > 0.0; }
    /// Independent sources multiply their value by this (source stepping).
    double source_scale() const noexcept { return source_scale_; }
    /// Nonlinearity relaxation in (0, 1]: continuation knob for devices with
    /// near-step transfer curves (behavioral op-amps raise their gain to the
    /// power of this value). 1.0 = full model.
    double relax() const noexcept { return relax_; }
    int num_nodes() const noexcept { return num_nodes_; }

private:
    Matrix& g_;
    std::vector<double>& rhs_;
    std::span<const double> x_;
    int num_nodes_;
    double time_;
    double dt_;
    double source_scale_;
    double relax_;
};

/// Base class for all circuit elements.
class Device {
public:
    explicit Device(std::string name) : name_(std::move(name)) {}
    virtual ~Device() = default;
    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    const std::string& name() const noexcept { return name_; }

    /// Adds the device's (linearised) contribution for the current iterate.
    virtual void stamp(Stamper& s) const = 0;

    /// True if the device requires Newton iteration even in a linear circuit.
    virtual bool nonlinear() const { return false; }

    /// Number of extra branch-current unknowns (voltage-defined elements).
    virtual int num_branches() const { return 0; }
    /// Engine assigns the first branch row before simulation.
    virtual void assign_branch_row(int row) { branch_row_ = row; }
    int branch_row() const noexcept { return branch_row_; }

    /// Latches state from the DC solution before the first transient step.
    virtual void begin_transient(std::span<const double> /*x*/, int /*num_nodes*/) {}
    /// Latches state after an accepted transient step of size dt.
    virtual void accept_step(std::span<const double> /*x*/, int /*num_nodes*/,
                             double /*dt*/) {}

protected:
    int branch_row_ = -1;

private:
    std::string name_;
};

}  // namespace snnfi::spice
