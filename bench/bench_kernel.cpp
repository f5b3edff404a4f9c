// Micro-benchmark of the snn::kernels hot-loop layer in isolation:
// sparse blocked drive accumulation vs the naive one-row-at-a-time
// reference, and the excitatory update's two layer loops vs the scalar
// oracle (kernels::exc_update_reference):
//   * the identity loop, on a layer with no faulted neuron;
//   * the fault-aware loop, on a layer whose every neuron carries a
//     threshold fault (whole-layer drift, as in train-under-fault).
//
//   $ ./bench_kernel [--quick] [--neurons=100] [--inputs=784]
//                    [--active-fraction=0.1] [--out=BENCH_kernel.json]
//
// Every comparison is checked for bit-identity before timing is
// reported — a speedup over a kernel that computes something different
// would be meaningless. Emits BENCH_kernel.json with the dimensionless
// `drive_speedup`, `update_speedup` (oracle vs identity loop) and
// `fault_update_speedup` (oracle vs fault-aware loop) ratios, each gated
// by tools/bench_compare against bench/baselines/BENCH_kernel.json, so a
// loop that stops vectorizing fails the gate. Absolute rates
// (row-accumulations/s, ns per neuron-step) are recorded for context.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "snn/kernels.hpp"
#include "snn/tensor.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace {

using namespace snnfi;
namespace kernels = snn::kernels;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

/// A layer's fault arrays: every neuron's threshold distance scaled by
/// `thresh_scale` (1 = the identity), everything else nominal.
struct Faults {
    std::vector<float> thresh_scale, drive_gain;
    std::vector<std::uint8_t> forced;
    std::vector<std::int32_t> refrac_period;
    std::vector<std::uint32_t> patch;

    Faults(std::size_t n, float scale, std::int32_t refrac_steps)
        : thresh_scale(n, scale), drive_gain(n, 1.0f), forced(n, 0),
          refrac_period(n, refrac_steps) {
        if (scale != 1.0f) {
            for (std::uint32_t i = 0; i < n; ++i) patch.push_back(i);
        }
    }
    kernels::LayerFaults view() const {
        return {thresh_scale.data(), drive_gain.data(), forced.data(),
                refrac_period.data(), patch};
    }
};

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser parser("snn kernel micro-benchmark (drive + neuron update)");
    parser.add_flag("quick", "Fewer repetitions for CI smoke runs");
    parser.add_option("inputs", "784", "Presynaptic rows (input pixels)");
    parser.add_option("neurons", "100", "Postsynaptic columns (EL neurons)");
    parser.add_option("active-fraction", "0.1", "Mean fraction of rows firing per step");
    parser.add_option("steps", "250", "Distinct per-step active sets");
    parser.add_option("reps", "0", "Timed repetitions, min taken (0 = default)");
    parser.add_option("out", "BENCH_kernel.json", "JSON output path");
    try {
        if (!parser.parse(argc, argv)) return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n" << parser.usage();
        return 2;
    }
    const bool quick = parser.get_bool("quick");
    const std::size_t n_pre = static_cast<std::size_t>(parser.get_int("inputs"));
    const std::size_t n = static_cast<std::size_t>(parser.get_int("neurons"));
    const double fraction = parser.get_double("active-fraction");
    const std::size_t steps = static_cast<std::size_t>(parser.get_int("steps"));
    std::size_t reps = static_cast<std::size_t>(parser.get_int("reps"));
    if (reps == 0) reps = quick ? 5 : 9;
    const std::size_t passes = quick ? 40 : 200;  ///< step-sweeps per rep

    // --- workload: padded weights + per-step ascending active sets -------
    util::Rng rng(0xBE7C);
    snn::Matrix weights(n_pre, n);
    for (std::size_t r = 0; r < n_pre; ++r) {
        for (float& w : weights.row(r))
            w = static_cast<float>(rng.uniform()) * 0.3f;
    }
    // Per-row pointers: the naive reference's form.
    std::vector<const float*> rows(n_pre);
    for (std::size_t r = 0; r < n_pre; ++r)
        rows[r] = weights.padded_row(r).data();
    std::vector<std::vector<std::uint32_t>> active(steps);
    for (auto& set : active) {
        for (std::uint32_t r = 0; r < n_pre; ++r) {
            if (rng.uniform() < fraction) set.push_back(r);
        }
    }
    std::size_t total_rows = 0;
    for (const auto& set : active) total_rows += set.size();

    // --- drive accumulation: blocked vs naive reference ------------------
    const std::size_t padded = kernels::padded_size(n);
    snn::AlignedVector out_blocked(padded, 0.0f);
    snn::AlignedVector out_naive(padded, 0.0f);
    const auto sweep_blocked = [&] {
        for (const auto& set : active) {
            std::fill(out_blocked.begin(), out_blocked.end(), 0.0f);
            kernels::accumulate_rows(weights.data(), weights.stride(), set,
                                     out_blocked.data(), padded);
        }
    };
    const auto sweep_naive = [&] {
        for (const auto& set : active) {
            std::fill(out_naive.begin(), out_naive.end(), 0.0f);
            kernels::accumulate_rows_reference(rows.data(), set,
                                               out_naive.data(), n);
        }
    };
    // Equivalence first (summation order is identical by construction).
    sweep_blocked();
    sweep_naive();
    if (std::memcmp(out_blocked.data(), out_naive.data(), n * sizeof(float)) != 0) {
        std::cerr << "error: blocked drive accumulation diverges from the "
                     "naive reference — nothing to benchmark\n";
        return 1;
    }
    double blocked_s = 1e300;
    double naive_s = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        for (std::size_t p = 0; p < passes; ++p) sweep_blocked();
        blocked_s = std::min(blocked_s, seconds_since(start));
        start = std::chrono::steady_clock::now();
        for (std::size_t p = 0; p < passes; ++p) sweep_naive();
        naive_s = std::min(naive_s, seconds_since(start));
    }
    const double rows_per_s =
        static_cast<double>(total_rows * passes) / blocked_s;
    const double drive_speedup = blocked_s > 0.0 ? naive_s / blocked_s : 0.0;

    // --- neuron update: both layer loops vs the scalar oracle ------------
    const kernels::ExcParams p{.v_rest = -65.0f, .v_reset = -60.0f,
                               .decay = std::exp(-1.0f / 100.0f), .thresh_span = 13.0f,
                               .theta_decay = std::exp(-1.0f / 1e7f),
                               .theta_plus = 0.05f, .refrac_steps = 5, .w_inh = -17.5f};
    struct Neurons {
        std::vector<float> v, theta;
        std::vector<std::int32_t> refrac;
        std::vector<std::uint8_t> spiked, inh_spiked;
        std::vector<kernels::NeuronState> save;
        std::size_t inh_total = 0;
        explicit Neurons(std::size_t n_, float v_rest)
            : v(n_, v_rest), theta(n_, 0.0f), refrac(n_, 0), spiked(n_, 0),
              inh_spiked(n_, 0), save(n_) {}
        bool operator==(const Neurons& other) const {
            return std::memcmp(v.data(), other.v.data(), v.size() * sizeof(float)) == 0 &&
                   std::memcmp(theta.data(), other.theta.data(),
                               theta.size() * sizeof(float)) == 0 &&
                   spiked == other.spiked && refrac == other.refrac;
        }
    };
    // Each step's drive, accumulated once before any update runs, so the
    // update kernel sees realistic spiking dynamics and the timed sweeps
    // time the update alone.
    snn::AlignedVector drives(steps * padded, 0.0f);
    for (std::size_t s = 0; s < steps; ++s)
        kernels::accumulate_rows(weights.data(), weights.stride(), active[s],
                                 drives.data() + s * padded, padded);
    const auto sweep_update = [&](Neurons& neurons, const auto& step_fn) {
        for (std::size_t s = 0; s < steps; ++s) {
            const std::size_t spikes = step_fn(neurons, drives.data() + s * padded);
            // Feed lateral inhibition back like the real network: the IL
            // layer mirrors EL spikes one step later.
            neurons.inh_total = spikes;
            neurons.inh_spiked.assign(neurons.spiked.begin(),
                                      neurons.spiked.end());
        }
    };
    // Per-sweep update time of the kernel and of the oracle over `faults`,
    // after checking that they agree over the full dynamic state.
    struct UpdateTiming {
        double kernel_s = 0.0;
        double oracle_s = 0.0;
    };
    const auto time_update = [&](const Faults& faults, UpdateTiming& timing) {
        const kernels::LayerFaults view = faults.view();
        const auto kernel_fn = [&](Neurons& ne, const float* drive) {
            return kernels::exc_update(p, view, drive, ne.inh_spiked.data(),
                                       ne.inh_total, ne.v.data(), ne.refrac.data(),
                                       ne.theta.data(), ne.spiked.data(), n,
                                       ne.save.data());
        };
        const auto oracle_fn = [&](Neurons& ne, const float* drive) {
            return kernels::exc_update_reference(
                p, view, drive, ne.inh_spiked.data(), ne.inh_total,
                ne.v.data(), ne.refrac.data(), ne.theta.data(), ne.spiked.data(), n);
        };
        Neurons kernel_state(n, p.v_rest);
        Neurons oracle_state(n, p.v_rest);
        sweep_update(kernel_state, kernel_fn);
        sweep_update(oracle_state, oracle_fn);
        if (!(kernel_state == oracle_state)) return false;
        double kernel_s = 1e300;
        double oracle_s = 1e300;
        for (std::size_t rep = 0; rep < reps; ++rep) {
            auto start = std::chrono::steady_clock::now();
            for (std::size_t q = 0; q < passes; ++q)
                sweep_update(kernel_state, kernel_fn);
            kernel_s = std::min(kernel_s, seconds_since(start));
            start = std::chrono::steady_clock::now();
            for (std::size_t q = 0; q < passes; ++q)
                sweep_update(oracle_state, oracle_fn);
            oracle_s = std::min(oracle_s, seconds_since(start));
        }
        timing.kernel_s = kernel_s / static_cast<double>(passes);
        timing.oracle_s = oracle_s / static_cast<double>(passes);
        return true;
    };
    UpdateTiming identity;
    UpdateTiming faulted;
    if (!time_update(Faults(n, 1.0f, p.refrac_steps), identity) ||
        !time_update(Faults(n, 0.9f, p.refrac_steps), faulted)) {
        std::cerr << "error: a neuron-update loop diverges from the scalar "
                     "oracle — nothing to benchmark\n";
        return 1;
    }
    const double update_speedup = identity.oracle_s / identity.kernel_s;
    const double fault_update_speedup = faulted.oracle_s / faulted.kernel_s;
    const double neuron_steps = static_cast<double>(n * steps);
    const auto ns_per_step = [&](double s) { return s / neuron_steps * 1e9; };

    // --- report -----------------------------------------------------------
    util::ResultTable table(
        "snn kernels — blocked drive + layer-update loops vs references",
        {"inputs", "neurons", "drive_speedup", "rows_per_s", "update_speedup",
         "fault_update_speedup", "identity_ns", "fault_ns", "oracle_ns"});
    table.add_row({static_cast<double>(n_pre), static_cast<double>(n),
                   drive_speedup, rows_per_s, update_speedup, fault_update_speedup,
                   ns_per_step(identity.kernel_s), ns_per_step(faulted.kernel_s),
                   ns_per_step(identity.oracle_s)});
    std::cout << table;

    std::ostringstream json;
    json << "{\"benchmark\":\"kernel\",\"quick\":" << (quick ? "true" : "false")
         << ",\"workload\":{\"inputs\":" << n_pre << ",\"neurons\":" << n
         << ",\"steps\":" << steps
         << ",\"active_fraction\":" << util::json_number(fraction)
         << "},\"drive\":{\"blocked_ms\":"
         << util::json_number(blocked_s * 1000.0)
         << ",\"naive_ms\":" << util::json_number(naive_s * 1000.0)
         << ",\"drive_speedup\":" << util::json_number(drive_speedup)
         << ",\"rows_per_s\":" << util::json_number(rows_per_s)
         << "},\"update\":{\"identity_ns_per_step\":"
         << util::json_number(ns_per_step(identity.kernel_s))
         << ",\"oracle_ns_per_step\":"
         << util::json_number(ns_per_step(identity.oracle_s))
         << ",\"update_speedup\":" << util::json_number(update_speedup)
         << "},\"fault_update\":{\"fault_ns_per_step\":"
         << util::json_number(ns_per_step(faulted.kernel_s))
         << ",\"oracle_ns_per_step\":"
         << util::json_number(ns_per_step(faulted.oracle_s))
         << ",\"fault_update_speedup\":" << util::json_number(fault_update_speedup)
         << "}}";
    const std::string out_path = parser.get("out");
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
    }
    out << json.str() << "\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
