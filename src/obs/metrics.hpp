// obs::Registry — named counters, gauges and fixed-bucket histograms.
//
// The measurement layer under the campaign platform: Session cache
// traffic, store I/O bytes and timings, and per-phase campaign latencies
// all land here, and the registry renders one metrics JSON document
// (--metrics-out, plus the "obs" block of the --json envelope).
//
// Telemetry is compiled in but DEFAULT-OFF: every recording call first
// checks one relaxed atomic bool (obs::enabled()) and returns immediately
// when telemetry is disabled, so the instrumented hot paths run at seed
// throughput (gated by bench_obs / BENCH_obs.json). When enabled, the hot
// path is lock-free: instruments are plain atomics, and the registry mutex
// is only taken to *resolve* an instrument by name — resolve once, keep
// the reference (references stay valid for the registry's lifetime).
//
// Snapshots are thread-safe: they read the atomics with relaxed loads
// while workers keep incrementing, and render name-sorted JSON so two
// snapshots of the same state are byte-identical.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace snnfi::obs {

/// Process-global telemetry switch. Default off.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

namespace detail {
/// Portable atomic double accumulation (CAS loop; fetch_add on
/// atomic<double> is C++20 but not worth a toolchain dependency).
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
}
}  // namespace detail

/// Monotonic event count. add() is a no-op while telemetry is disabled.
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept {
        if (!enabled()) return;
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    friend class Registry;
    Counter() = default;
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (rates, sizes). set() is a no-op while disabled.
class Gauge {
public:
    void set(double value) noexcept {
        if (!enabled()) return;
        value_.store(value, std::memory_order_relaxed);
    }
    double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    friend class Registry;
    Gauge() = default;
    std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. The bounds are upper-inclusive: a sample v
/// lands in the first bucket whose bound satisfies v <= bound; samples
/// beyond the last bound land in the implicit overflow bucket, so
/// counts() has bounds().size() + 1 entries. Bounds are fixed at first
/// registration and never reallocated — observe() is lock-free.
class Histogram {
public:
    /// Samples for one histogram gathered in plain integers by one thread
    /// and added to it in one go. A loop that records every iteration
    /// tallies here and flushes once at its end, instead of paying
    /// observe()'s three contended atomic updates per iteration.
    class Tally {
    public:
        explicit Tally(Histogram& histogram)
            : histogram_(&histogram), counts_(histogram.bounds_.size() + 1, 0) {}

        void observe(double value) noexcept {
            ++counts_[histogram_->bucket(value)];
            ++count_;
            sum_ += value;
        }
        std::uint64_t count() const noexcept { return count_; }
        /// Adds the tallied samples to the histogram (a no-op while
        /// telemetry is disabled) and empties the tally.
        void flush() noexcept;

    private:
        Histogram* histogram_;
        std::vector<std::uint64_t> counts_;  ///< bounds().size() + 1 (overflow last)
        std::uint64_t count_ = 0;
        double sum_ = 0.0;
    };

    void observe(double value) noexcept {
        if (!enabled()) return;
        counts_[bucket(value)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        detail::atomic_add(sum_, value);
    }

    const std::vector<double>& bounds() const noexcept { return bounds_; }
    /// Snapshot of the per-bucket counts (size bounds().size() + 1; the
    /// last entry is the overflow bucket).
    std::vector<std::uint64_t> counts() const;
    std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

private:
    friend class Registry;
    explicit Histogram(std::vector<double> bounds);
    std::size_t bucket(double value) const noexcept {
        std::size_t b = 0;
        while (b < bounds_.size() && value > bounds_[b]) ++b;
        return b;
    }
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// One consistent-enough view of every instrument, name-sorted. "Enough":
/// counters keep moving while the snapshot is taken; each individual value
/// is a coherent relaxed load.
struct MetricsSnapshot {
    struct HistogramValue {
        std::string name;
        std::vector<double> bounds;
        std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow last)
        std::uint64_t count = 0;
        double sum = 0.0;
    };
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramValue> histograms;

    /// {"counters":{...},"gauges":{...},"histograms":{"name":{"bounds":[..],
    ///  "counts":[..],"count":N,"sum":S}}} — keys name-sorted.
    std::string to_json() const;
};

class Registry {
public:
    /// The process-global registry every instrumented subsystem records
    /// into. (Tests may build private registries.)
    static Registry& global();

    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// Resolve-or-create by name. The returned references stay valid for
    /// the registry's lifetime; resolve once outside loops — resolution
    /// takes the registry mutex, recording does not.
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    /// `bounds` must be strictly increasing; they bind at first
    /// registration (later calls for the same name return the existing
    /// histogram, whatever bounds they pass).
    Histogram& histogram(const std::string& name, std::vector<double> bounds);

    MetricsSnapshot snapshot() const;
    /// Zeroes every instrument's value (instruments themselves — and any
    /// references held to them — stay registered and valid).
    void reset();

private:
    mutable std::mutex mutex_;  ///< guards the maps, never the values
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The full metrics document of the global registry:
/// {"enabled":bool,"counters":...} — the --metrics-out payload and the
/// "obs" block of the --json envelope. Rendered (with whatever was
/// recorded) even while telemetry is disabled.
std::string metrics_json();
/// Writes metrics_json() to `path`. Returns false on I/O failure.
bool write_metrics(const std::string& path);

}  // namespace snnfi::obs
