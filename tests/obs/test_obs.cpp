// Telemetry layer: registry instruments under concurrency, span nesting
// across ThreadPool task hand-off, Chrome-trace export validity, heartbeat
// round-trip/age-out, and the determinism contract (campaign results are
// bit-identical with telemetry on or off).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "fi/campaign.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace snnfi::obs {
namespace {

namespace fs = std::filesystem;

/// Every test starts from an enabled, empty registry/trace and leaves
/// telemetry disabled again (the shipping default other suites rely on).
class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        set_enabled(true);
        Registry::global().reset();
        reset_trace();
    }
    void TearDown() override {
        set_enabled(false);
        Registry::global().reset();
        reset_trace();
    }
};

TEST_F(ObsTest, DisabledRecordingIsANoOp) {
    set_enabled(false);
    Counter& counter = Registry::global().counter("test.noop.counter");
    Gauge& gauge = Registry::global().gauge("test.noop.gauge");
    Histogram& histogram =
        Registry::global().histogram("test.noop.histogram", {1.0, 2.0});
    counter.add(5);
    gauge.set(3.5);
    histogram.observe(1.5);
    {
        Span span("test.noop.span");
        span.tag("key", "value");
    }
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(gauge.value(), 0.0);
    EXPECT_EQ(histogram.count(), 0u);
    EXPECT_EQ(trace_event_count(), 0u);
    EXPECT_EQ(current_context().span_id, 0u);
}

TEST_F(ObsTest, CounterSurvivesConcurrentIncrementsAcrossPoolWorkers) {
    Counter& counter = Registry::global().counter("test.concurrent.counter");
    util::ThreadPool pool(4);
    pool.parallel_for(1000, [&](std::size_t) { counter.add(3); });
    EXPECT_EQ(counter.value(), 3000u);
}

TEST_F(ObsTest, HistogramBucketBoundsAreUpperInclusive) {
    Histogram& histogram =
        Registry::global().histogram("test.bounds", {1.0, 2.0, 4.0});
    // The same samples through a tally, flushed once, land the same way.
    Histogram& flushed =
        Registry::global().histogram("test.bounds.tally", {1.0, 2.0, 4.0});
    Histogram::Tally tally(flushed);
    // below first bound -> bucket 0; exactly on a bound -> that bucket
    // (inclusive); bucket 1; last bound, still bucket 2; beyond every
    // bound -> overflow bucket
    for (const double value : {0.5, 1.0, 1.5, 4.0, 5.0}) {
        histogram.observe(value);
        tally.observe(value);
    }
    const std::vector<std::uint64_t> expected{2, 1, 1, 1};
    EXPECT_EQ(histogram.counts(), expected);
    EXPECT_EQ(histogram.count(), 5u);
    EXPECT_DOUBLE_EQ(histogram.sum(), 12.0);
    EXPECT_EQ(flushed.count(), 0u);
    tally.flush();
    EXPECT_EQ(flushed.counts(), expected);
    EXPECT_EQ(flushed.count(), 5u);
    EXPECT_DOUBLE_EQ(flushed.sum(), 12.0);
    // A flush empties the tally, and is a no-op while telemetry is off.
    tally.observe(0.5);
    set_enabled(false);
    tally.flush();
    set_enabled(true);
    tally.flush();
    EXPECT_EQ(flushed.count(), 5u);
}

TEST_F(ObsTest, HistogramRejectsNonIncreasingBounds) {
    EXPECT_THROW(Registry::global().histogram("test.bad.bounds", {2.0, 2.0}),
                 std::invalid_argument);
}

TEST_F(ObsTest, SnapshotIsCoherentUnderConcurrentRecording) {
    Counter& counter = Registry::global().counter("test.snapshot.counter");
    constexpr std::size_t kThreads = 4;
    constexpr std::uint64_t kPerThread = 20000;
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        writers.emplace_back([&] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
        });
    }
    // Snapshots taken mid-flight must be monotone over the counter.
    std::uint64_t previous = 0;
    for (int s = 0; s < 50; ++s) {
        const MetricsSnapshot snap = Registry::global().snapshot();
        for (const auto& [name, value] : snap.counters) {
            if (name != "test.snapshot.counter") continue;
            EXPECT_GE(value, previous);
            previous = value;
        }
    }
    for (auto& writer : writers) writer.join();
    const MetricsSnapshot final_snap = Registry::global().snapshot();
    bool found = false;
    for (const auto& [name, value] : final_snap.counters) {
        if (name != "test.snapshot.counter") continue;
        found = true;
        EXPECT_EQ(value, kThreads * kPerThread);
    }
    EXPECT_TRUE(found);
}

TEST_F(ObsTest, SpanNestingSurvivesThreadPoolHandOff) {
    std::uint64_t root_id = 0;
    {
        Span root("test.root");
        root_id = root.context().span_id;
        ASSERT_NE(root_id, 0u);
        // The documented idiom: capture the context BEFORE dispatch, anchor
        // the task spans on it inside the body (which runs on arbitrary
        // pool workers where this thread's current span is invisible).
        const Context ctx = current_context();
        EXPECT_EQ(ctx.span_id, root_id);
        util::ThreadPool pool(4);
        pool.parallel_for(8, [&](std::size_t i) {
            Span task("test.task", ctx);
            task.tag("index", static_cast<double>(i));
            Span inner("test.inner");  // implicit: nests under `task`
        });
    }
    const std::vector<TraceEventRecord> events = trace_events();
    std::size_t roots = 0, tasks = 0, inners = 0;
    std::vector<std::uint64_t> task_ids;
    for (const auto& event : events) {
        if (event.name == "test.task") task_ids.push_back(event.id);
    }
    for (const auto& event : events) {
        if (event.name == "test.root") {
            ++roots;
            EXPECT_EQ(event.parent, 0u);
        } else if (event.name == "test.task") {
            ++tasks;
            EXPECT_EQ(event.parent, root_id);
        } else if (event.name == "test.inner") {
            ++inners;
            EXPECT_NE(std::find(task_ids.begin(), task_ids.end(), event.parent),
                      task_ids.end())
                << "inner span not parented under any task span";
        }
    }
    EXPECT_EQ(roots, 1u);
    EXPECT_EQ(tasks, 8u);
    EXPECT_EQ(inners, 8u);
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormedAndEventsNest) {
    {
        Span outer("test.outer");
        outer.tag("label", "with \"quotes\"");
        { Span inner("test.inner"); }
    }
    // Structural checks on the rendered document.
    const std::string json = chrome_trace_json();
    EXPECT_EQ(json.substr(0, 16), "{\"traceEvents\":[");
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"test.outer\""), std::string::npos);
    EXPECT_NE(json.find("with \\\"quotes\\\""), std::string::npos);

    // Event pairing: every child's [ts, ts+dur] window sits inside its
    // parent's window (complete events, so containment IS the nesting).
    const std::vector<TraceEventRecord> events = trace_events();
    ASSERT_EQ(events.size(), 2u);
    for (const auto& child : events) {
        if (child.parent == 0) continue;
        bool matched = false;
        for (const auto& parent : events) {
            if (parent.id != child.parent) continue;
            matched = true;
            EXPECT_GE(child.ts_us, parent.ts_us);
            EXPECT_LE(child.ts_us + child.dur_us, parent.ts_us + parent.dur_us);
        }
        EXPECT_TRUE(matched);
    }
    // A written file ends in exactly the same document.
    const fs::path path =
        fs::path(::testing::TempDir()) / "snnfi_obs_trace.json";
    ASSERT_TRUE(write_chrome_trace(path.string()));
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, json);
    fs::remove(path);
}

TEST_F(ObsTest, MetricsJsonCarriesEnabledFlagAndInstruments) {
    Registry::global().counter("test.json.counter").add(7);
    Registry::global().gauge("test.json.gauge").set(2.5);
    const std::string json = metrics_json();
    EXPECT_EQ(json.substr(0, 16), "{\"enabled\":true,");
    EXPECT_NE(json.find("\"test.json.counter\":7"), std::string::npos);
    EXPECT_NE(json.find("\"test.json.gauge\":2.5"), std::string::npos);
}

TEST_F(ObsTest, HeartbeatRoundTripsThroughDisk) {
    const fs::path dir = fs::path(::testing::TempDir()) / "snnfi_obs_beat";
    fs::remove_all(dir);
    Heartbeat beat;
    beat.shard = 2;
    beat.shards = 4;
    beat.cells_done = 5;
    beat.cells_total = 9;
    beat.ewma_cells_per_s = 1.25;
    beat.interval_s = 2.0;
    beat.written_unix_ms = 1700000000123;
    beat.checkpoint_unix_ms = 1700000000100;
    beat.done = false;
    write_heartbeat(dir, beat);
    const auto loaded = read_heartbeat(dir, 2);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->to_json(), beat.to_json());
    EXPECT_FALSE(read_heartbeat(dir, 3).has_value());  // other shard: absent
    fs::remove_all(dir);
}

TEST_F(ObsTest, HeartbeatStatusAgesOutAtThreeIntervals) {
    Heartbeat beat;
    beat.interval_s = 2.0;
    beat.written_unix_ms = 10'000;
    // Fresh (age 1 s < 3 x 2 s) -> live.
    EXPECT_EQ(heartbeat_status(beat, 11'000), HeartbeatStatus::kLive);
    // Just inside the limit (age 6 s == 3 x 2 s) -> still live.
    EXPECT_EQ(heartbeat_status(beat, 16'000), HeartbeatStatus::kLive);
    // Beyond it (the SIGKILLed-worker case) -> stalled, never live.
    EXPECT_EQ(heartbeat_status(beat, 16'001), HeartbeatStatus::kStalled);
    // A done shard stays done no matter how old its file gets.
    beat.done = true;
    EXPECT_EQ(heartbeat_status(beat, 1'000'000), HeartbeatStatus::kDone);
}

TEST_F(ObsTest, MalformedHeartbeatReadsAsAbsent) {
    EXPECT_FALSE(Heartbeat::from_json("").has_value());
    EXPECT_FALSE(Heartbeat::from_json("{\"shard\":1").has_value());
    EXPECT_FALSE(Heartbeat::from_json("not json at all").has_value());
}

TEST_F(ObsTest, CampaignResultsAreBitIdenticalWithTelemetryOnAndOff) {
    const auto render = [] {
        core::RunOptions options;
        options.quick = true;
        options.train_samples = 60;
        options.n_neurons = 16;
        options.eval_window = 30;
        options.max_workers = 2;
        core::Session session(options);
        fi::CampaignConfig config;
        config.models = {fi::find_fault_model("dead_neuron")};
        config.sites.max_sites = 2;
        config.eval_samples = 20;
        config.early_stop = {.min_replicas = 2, .max_replicas = 2};
        fi::CampaignEngine engine(session, std::move(config));
        return engine.run()->to_json();
    };
    set_enabled(false);
    const std::string without = render();
    set_enabled(true);
    const std::string with = render();
    EXPECT_EQ(without, with);
    // ... and telemetry actually recorded something while it was on.
    EXPECT_GT(trace_event_count(), 0u);
}

}  // namespace
}  // namespace snnfi::obs
