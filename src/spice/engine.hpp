// Simulation engine: Newton-Raphson DC operating point (with gmin and
// source stepping fallbacks) and fixed-step backward-Euler transient
// analysis with automatic step halving on nonconvergence.
//
// Telemetry: each run_transient() is one `spice.transient` span, and each
// solve_dc() and run_transient() call adds its work to the counters
// `spice.steps` (accepted transient steps), `spice.newton_iters`,
// `spice.step_halvings`, `spice.lu_factorizations` and `spice.lu_replays`
// (factorisations that replayed the recorded elimination to the end) once,
// when it returns or throws.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "spice/linear.hpp"
#include "spice/netlist.hpp"
#include "spice/waveform.hpp"

namespace snnfi::spice {

struct SimOptions {
    double vntol = 1e-6;        ///< absolute voltage tolerance [V]
    double reltol = 1e-4;       ///< relative tolerance
    int max_nr_iterations = 150;
    double gmin = 1e-12;        ///< permanent node-to-ground conductance
    double vlimit = 0.4;        ///< max per-iteration voltage update [V]
    int max_step_halvings = 10; ///< transient step-retry budget
    bool record_branch_currents = true;
};

/// DC operating point: unknown vector + node-name accessors.
class DcSolution {
public:
    DcSolution(std::vector<double> x, const Netlist& netlist);
    double voltage(const std::string& node_name) const;
    const std::vector<double>& unknowns() const noexcept { return x_; }

private:
    std::vector<double> x_;
    const Netlist* netlist_;
};

class Simulator {
public:
    explicit Simulator(Netlist& netlist, SimOptions options = {});

    /// Solves the DC operating point. Throws std::runtime_error if every
    /// fallback (plain NR, gmin stepping, source stepping) fails.
    DcSolution solve_dc();

    /// Runs transient analysis over [0, t_stop] with nominal step dt.
    /// The initial state is the DC operating point. Records every node
    /// voltage as "V(node)" and every voltage-defined branch as "I(name)".
    TransientResult run_transient(double t_stop, double dt);

    const SimOptions& options() const noexcept { return options_; }
    SimOptions& options() noexcept { return options_; }

private:
    /// Work of the current solve_dc()/run_transient() call.
    struct Tally {
        std::uint64_t steps = 0;
        std::uint64_t newton_iters = 0;
        std::uint64_t step_halvings = 0;
        std::uint64_t lu_factorizations = 0;
        std::uint64_t lu_replays = 0;

        /// Adds the counts to the spice.* counters and zeroes them.
        void flush() noexcept;
    };
    /// Flushes the tally when the solve_dc()/run_transient() call that
    /// holds it returns or throws.
    struct FlushOnExit {
        Tally& tally;
        ~FlushOnExit() { tally.flush(); }
    };

    /// One Newton solve at fixed (t, dt). Starts from `x` and updates it
    /// in place. Returns true on convergence.
    bool newton_solve(std::vector<double>& x, double t, double dt, double gmin,
                      double source_scale, double relax = 1.0);

    Netlist& netlist_;
    SimOptions options_;
    // The MNA system and its factorisation live across Newton iterations,
    // solves and steps: the LU replays the elimination it recorded last.
    Matrix g_;
    std::vector<double> rhs_;
    LuFactorization lu_;
    Tally tally_;
};

}  // namespace snnfi::spice
