// Sharded-campaign tests: deterministic partitioning, JSONL round-trips,
// worker + merge bit-identity against a single-process run,
// interrupt/resume recovery, and readers and writers of a live campaign
// directory.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "fi/campaign.hpp"
#include "fi/catalog.hpp"
#include "fi/shard.hpp"

namespace snnfi::fi {
namespace {

namespace fs = std::filesystem;

core::RunOptions quick_options() {
    core::RunOptions options;
    options.quick = true;
    return options;
}

class ShardTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::path(::testing::TempDir()) /
               (std::string("snnfi_shard_") + info->name());
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
};

TEST(ShardCells, RoundRobinPartitionIsDisjointAndComplete) {
    std::vector<char> seen(11, 0);
    for (std::size_t shard = 0; shard < 3; ++shard) {
        for (const std::size_t c : shard_cells(11, 3, shard)) {
            ASSERT_LT(c, 11u);
            EXPECT_FALSE(seen[c]) << "cell " << c << " assigned twice";
            seen[c] = 1;
        }
    }
    for (std::size_t c = 0; c < 11; ++c) EXPECT_TRUE(seen[c]);
    // Round-robin: consecutive (expensive) cells spread across shards.
    EXPECT_EQ(shard_cells(11, 3, 0), (std::vector<std::size_t>{0, 3, 6, 9}));
    EXPECT_THROW(shard_cells(4, 0, 0), std::invalid_argument);
    EXPECT_THROW(shard_cells(4, 2, 2), std::invalid_argument);
}

TEST(ShardJsonl, CellRoundTripsBitExact) {
    CellResult cell;
    cell.plan_index = 17;
    cell.model = "vdd_glitch";
    cell.site.kind = SiteKind::kParameter;
    cell.site.layer = attack::TargetLayer::kExcitatory;
    cell.site.neuron = 3;
    cell.site.pre = 1;
    cell.site.post = 2;
    cell.label = "rect:d0.8:o0.25:w0.25";
    cell.footprint = "strat:0.25@7";
    cell.severity = 0.8;
    cell.replicas = 3;
    cell.accuracy_pct = 100.0 / 3.0;  // not exactly representable
    cell.drop_pct = 12.345678901234567;
    cell.ci_halfwidth_pct = 1.0 / 7.0;
    cell.critical = true;
    cell.early_stopped = false;
    cell.trained = true;
    cell.scheduled = true;

    const std::string line = cell_to_jsonl(cell, 200.0 / 3.0);
    const auto record = cell_from_jsonl(line);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->baseline_pct, 200.0 / 3.0);
    const CellResult& back = record->cell;
    EXPECT_EQ(back.plan_index, cell.plan_index);
    EXPECT_EQ(back.model, cell.model);
    EXPECT_EQ(back.site.kind, cell.site.kind);
    EXPECT_EQ(back.site.layer, cell.site.layer);
    EXPECT_EQ(back.site.neuron, cell.site.neuron);
    EXPECT_EQ(back.site.pre, cell.site.pre);
    EXPECT_EQ(back.site.post, cell.site.post);
    EXPECT_EQ(back.label, cell.label);
    EXPECT_EQ(back.footprint, cell.footprint);
    EXPECT_EQ(back.severity, cell.severity);
    EXPECT_EQ(back.replicas, cell.replicas);
    EXPECT_EQ(back.accuracy_pct, cell.accuracy_pct);   // bit-exact doubles
    EXPECT_EQ(back.drop_pct, cell.drop_pct);
    EXPECT_EQ(back.ci_halfwidth_pct, cell.ci_halfwidth_pct);
    EXPECT_EQ(back.critical, cell.critical);
    EXPECT_EQ(back.early_stopped, cell.early_stopped);
    EXPECT_EQ(back.trained, cell.trained);
    EXPECT_EQ(back.scheduled, cell.scheduled);
    EXPECT_EQ(back.site_id(), cell.site_id());
}

TEST(ShardJsonl, TruncatedLineIsRejected) {
    CellResult cell;
    cell.model = "dead_neuron";
    const std::string line = cell_to_jsonl(cell, 80.0);
    for (const std::size_t keep : {line.size() / 4, line.size() / 2,
                                   line.size() - 1}) {
        EXPECT_FALSE(cell_from_jsonl(line.substr(0, keep)).has_value())
            << "accepted a line truncated to " << keep << " bytes";
    }
    EXPECT_FALSE(cell_from_jsonl("").has_value());
    EXPECT_FALSE(cell_from_jsonl("{\"plan_index\":0}").has_value());

    // Hostile fields: a sign on an unsigned count, and \u escapes that are
    // not four hex digits in the ASCII range.
    const auto with = [&](const std::string& from, const std::string& to) {
        std::string hostile = line;
        hostile.replace(hostile.find(from), from.size(), to);
        return hostile;
    };
    const std::string empty_label = "\"label\":\"\"";
    EXPECT_FALSE(
        cell_from_jsonl(with("\"replicas\":0", "\"replicas\":-3")).has_value());
    EXPECT_FALSE(
        cell_from_jsonl(with(empty_label, "\"label\":\"\\uzzzz\"")).has_value());
    EXPECT_FALSE(
        cell_from_jsonl(with(empty_label, "\"label\":\"\\u00e9\"")).has_value());
    const auto control = cell_from_jsonl(with(empty_label, "\"label\":\"\\u0007\""));
    ASSERT_TRUE(control.has_value());
    EXPECT_EQ(control->cell.label, "\a");
}

TEST_F(ShardTest, ManifestRoundTripsAndRefusesMismatch) {
    CampaignManifest manifest;
    manifest.scenario = "fi.smoke";
    manifest.shards = 4;
    manifest.cells = 12;
    manifest.quick = true;
    manifest.campaign_key = "models=dead_neuron+|key with \"quotes\"";
    write_manifest(dir_, manifest);
    const CampaignManifest back = read_manifest(dir_);
    EXPECT_EQ(back.scenario, manifest.scenario);
    EXPECT_EQ(back.shards, manifest.shards);
    EXPECT_EQ(back.cells, manifest.cells);
    EXPECT_EQ(back.quick, manifest.quick);
    EXPECT_EQ(back.campaign_key, manifest.campaign_key);

    write_manifest(dir_, manifest);  // identical re-write is fine
    CampaignManifest other = manifest;
    other.shards = 2;
    EXPECT_THROW(write_manifest(dir_, other), std::runtime_error);
    EXPECT_THROW(read_manifest(dir_ / "nowhere"), std::runtime_error);
}

TEST_F(ShardTest, ConcurrentManifestWritersAllSucceed) {
    // The workers of one campaign start together and all publish the same
    // manifest; a large key widens the window in which their writes overlap.
    CampaignManifest manifest;
    manifest.scenario = "fi.smoke";
    manifest.shards = 4;
    manifest.cells = 12;
    manifest.quick = true;
    manifest.campaign_key = std::string(200 * 1024, 'k');
    for (int trial = 0; trial < 20; ++trial) {
        const fs::path dir = dir_ / std::to_string(trial);
        std::atomic<int> failures{0};
        std::vector<std::thread> writers;
        for (int w = 0; w < 4; ++w) {
            writers.emplace_back([&] {
                try {
                    write_manifest(dir, manifest);
                } catch (const std::exception&) {
                    ++failures;
                }
            });
        }
        for (std::thread& writer : writers) writer.join();
        ASSERT_EQ(failures.load(), 0) << "trial " << trial;
        EXPECT_EQ(read_manifest(dir).to_json(), manifest.to_json());
    }
}

TEST_F(ShardTest, ReadersLeaveALiveShardFileUntouched) {
    CampaignManifest manifest;
    manifest.scenario = "fi.smoke";
    manifest.shards = 1;
    manifest.cells = 2;
    manifest.quick = true;
    manifest.campaign_key = "key";
    write_manifest(dir_, manifest);
    CellResult cell;
    cell.model = "dead_neuron";
    const std::string first = cell_to_jsonl(cell, 80.0) + "\n";
    cell.plan_index = 1;
    const std::string second = cell_to_jsonl(cell, 80.0) + "\n";

    // A live worker: one record appended, the next one half written.
    const fs::path file = shard_file(dir_, 0);
    std::ofstream out(file, std::ios::binary | std::ios::app);
    out << first << second.substr(0, second.size() / 2) << std::flush;
    const auto live_size = fs::file_size(file);

    const util::ResultTable progress = shard_progress_table(dir_);
    EXPECT_EQ(std::get<std::string>(progress.at(0, 1)), "1");  // cells_done
    EXPECT_THROW(merge_campaign_dir(dir_), std::runtime_error);
    EXPECT_EQ(fs::file_size(file), live_size);

    // The worker finishes its record into the same file.
    out << second.substr(second.size() / 2) << std::flush;
    out.close();
    EXPECT_EQ(fs::file_size(file), first.size() + second.size());
    EXPECT_EQ(merge_campaign_dir(dir_).cells.size(), 2u);
}

TEST_F(ShardTest, EngineRunCellsMatchesFullRunPerCell) {
    core::Session session(quick_options());
    const CampaignCatalogEntry& entry = find_campaign_entry("fi.smoke");
    CampaignEngine engine(session, entry.build(session));
    const auto full = engine.run();
    ASSERT_GE(full->cells.size(), 2u);

    // Every singleton subset reproduces the full run's cell bit-for-bit.
    for (std::size_t c = 0; c < full->cells.size(); ++c) {
        const CampaignResult part = engine.run_cells({c});
        ASSERT_EQ(part.cells.size(), 1u);
        EXPECT_EQ(part.baseline_accuracy_pct, full->baseline_accuracy_pct);
        EXPECT_EQ(part.cells[0].site_id(), full->cells[c].site_id());
        EXPECT_DOUBLE_EQ(part.cells[0].accuracy_pct, full->cells[c].accuracy_pct);
        EXPECT_DOUBLE_EQ(part.cells[0].drop_pct, full->cells[c].drop_pct);
        EXPECT_EQ(part.cells[0].replicas, full->cells[c].replicas);
    }
    EXPECT_THROW(engine.run_cells({full->cells.size()}), std::out_of_range);
    EXPECT_EQ(engine.plan_cells(), full->cells.size());
}

TEST_F(ShardTest, ShardedRunMergesBitIdenticalToSingleProcess) {
    core::Session session(quick_options());
    const CampaignCatalogEntry& entry = find_campaign_entry("fi.smoke");
    CampaignEngine engine(session, entry.build(session));
    const auto full = engine.run();

    // Partial merge must refuse (shard 1 missing).
    ASSERT_GT(run_shard(session, "fi.smoke", dir_, 0, 2), 0u);
    EXPECT_THROW(merge_campaign_dir(dir_), std::runtime_error);

    ASSERT_GT(run_shard(session, "fi.smoke", dir_, 1, 2), 0u);
    const CampaignResult merged = merge_campaign_dir(dir_);

    // to_json renders every double at round-trip precision, so string
    // equality is bit-identity of the whole result — cells, counters,
    // sensitivity map and all.
    EXPECT_EQ(merged.to_json(), full->to_json());
    EXPECT_EQ(merged.evaluations, full->evaluations);
    EXPECT_EQ(merged.trainings, full->trainings);

    // Completed shards are idempotent: re-running executes nothing.
    EXPECT_EQ(run_shard(session, "fi.smoke", dir_, 0, 2), 0u);
}

TEST_F(ShardTest, InterruptedShardResumesBitIdentical) {
    core::Session session(quick_options());
    const CampaignCatalogEntry& entry = find_campaign_entry("fi.smoke");
    CampaignEngine engine(session, entry.build(session));
    const auto full = engine.run();

    ASSERT_GT(run_shard(session, "fi.smoke", dir_, 0, 1), 0u);

    // Simulate a worker killed mid-write: chop the file mid-way through
    // its final line, leaving a valid prefix plus a torn record.
    const fs::path file = shard_file(dir_, 0);
    const auto size = fs::file_size(file);
    fs::resize_file(file, size - 25);

    // Resume: the torn line is discarded and only its cell re-executes.
    const std::size_t resumed = run_shard(session, "fi.smoke", dir_, 0, 1);
    EXPECT_GE(resumed, 1u);
    EXPECT_LT(resumed, full->cells.size());

    const CampaignResult merged = merge_campaign_dir(dir_);
    EXPECT_EQ(merged.to_json(), full->to_json());
}

TEST_F(ShardTest, EarlyStoppingShardsTornAndResumedMergeBitIdentical) {
    // Full mode, so early stopping is live and cells close at different
    // replica counts: shard lines land in completion order, not plan order.
    core::RunOptions options;
    options.quick = false;
    options.train_samples = 60;
    options.n_neurons = 16;
    core::Session session(options);
    const CampaignCatalogEntry& entry = find_campaign_entry("fi.weights");
    CampaignEngine engine(session, entry.build(session));
    const auto full = engine.run();
    std::set<std::size_t> replica_counts;
    for (const CellResult& cell : full->cells) replica_counts.insert(cell.replicas);
    ASSERT_GT(replica_counts.size(), 1u) << "no cell ran past min_replicas";

    ASSERT_GT(run_shard(session, "fi.weights", dir_, 0, 2), 0u);
    const fs::path file = shard_file(dir_, 0);
    fs::resize_file(file, fs::file_size(file) - 25);  // torn mid-record
    const std::size_t resumed = run_shard(session, "fi.weights", dir_, 0, 2);
    EXPECT_GE(resumed, 1u);
    ASSERT_GT(run_shard(session, "fi.weights", dir_, 1, 2), 0u);

    const CampaignResult merged = merge_campaign_dir(dir_);
    EXPECT_EQ(merged.to_json(), full->to_json());
    EXPECT_EQ(merged.evaluations, full->evaluations);
}

TEST(TrainReplicas, TrainCellsCarryConfidenceIntervals) {
    // train_replicas > 1 retrains each train-under-fault cell over derived
    // seed streams: replica counts, the trainings counter and a CI show up,
    // while train_replicas = 1 (the default) keeps the classic single
    // training (pinned elsewhere against fig7b).
    core::RunOptions options = quick_options();
    options.train_samples = 120;  // keep the retraining cheap
    core::Session session(options);

    CampaignConfig config;
    config.models = {find_fault_model("driver_gain_drift")};
    config.eval_samples = 30;
    config.early_stop = {.min_replicas = 2, .max_replicas = 2};
    config.train_replicas = 2;

    CampaignEngine engine(session, config);
    const auto result = engine.run();
    ASSERT_FALSE(result->cells.empty());
    std::size_t expected_trainings = 0;
    for (const CellResult& cell : result->cells) {
        ASSERT_TRUE(cell.trained);
        EXPECT_EQ(cell.replicas, 2u);
        EXPECT_GE(cell.ci_halfwidth_pct, 0.0);
        expected_trainings += cell.replicas;
    }
    EXPECT_EQ(result->trainings, expected_trainings);

    // The replica axis changes the campaign identity (and so the session
    // cache key).
    CampaignConfig single = config;
    single.train_replicas = 1;
    EXPECT_NE(single.cache_key(), config.cache_key());
}

}  // namespace
}  // namespace snnfi::fi
