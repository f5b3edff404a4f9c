// Seeded mutation fuzzer over the readers of bytes from outside the
// process: the store's blob codecs, the campaign directory's flat records
// (shard line, manifest, heartbeat), the IDX dataset reader and the
// command-line parser.
//
// Property: every mutated input is either rejected through the reader's
// documented error (store::BlobError, std::nullopt, std::runtime_error,
// std::invalid_argument) or parses to a value whose encoding parses back
// to the same encoding. Any other exception fails the test; a crash or an
// out-of-bounds access fails it under the sanitizers. The seed and the
// iteration count are fixed, so every run replays the same inputs.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "attack/glitch.hpp"
#include "data/idx.hpp"
#include "fi/campaign.hpp"
#include "fi/shard.hpp"
#include "obs/heartbeat.hpp"
#include "store/artifacts.hpp"
#include "store/blob.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"

namespace snnfi {
namespace {

constexpr std::uint64_t kSeed = 0x5eedf022;
constexpr int kIterations = 20000;

/// Bytes worth planting: JSON structure, number syntax, the argv separator
/// used below, and the extremes of a byte.
constexpr char kInteresting[] = {'"', '\\', ',', ':', '{', '}', '-', '+', '0',
                                 '9', 'e', '.', 'u', '=', '\n', ' ', '\0',
                                 '\x7f', '\x80', '\xff'};

/// One to four byte-level edits: flip a bit, overwrite or insert a random
/// or interesting byte, erase a run, duplicate a slice, or truncate.
std::string mutate(std::string input, util::Rng& rng) {
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.below(n));
    };
    const auto any_byte = [&] {
        return rng.below(2) != 0 ? kInteresting[pick(sizeof kInteresting)]
                                 : static_cast<char>(rng.below(256));
    };
    const std::size_t edits = 1 + pick(4);
    for (std::size_t e = 0; e < edits; ++e) {
        const std::size_t at = pick(input.size() + 1);
        const bool inside = at < input.size();
        switch (pick(6)) {
            case 0:
                if (inside) input[at] = static_cast<char>(input[at] ^ (1 << pick(8)));
                break;
            case 1:
                if (inside) input[at] = any_byte();
                break;
            case 2: input.insert(at, 1, any_byte()); break;
            case 3: input.erase(at, 1 + pick(8)); break;
            case 4: {
                const std::string slice = input.substr(at, 1 + pick(16));
                input.insert(pick(input.size() + 1), slice);
                break;
            }
            default: input.resize(at); break;
        }
    }
    return input;
}

/// Parses an input and returns the encoding of what it parsed, or
/// std::nullopt when the reader rejects it through its documented error.
using Reencode = std::function<std::optional<std::string>(const std::string&)>;

void fuzz(const std::vector<std::string>& seeds, const Reencode& reencode) {
    for (const std::string& seed : seeds)
        ASSERT_TRUE(reencode(seed).has_value()) << "seed rejected";
    util::Rng rng(kSeed);
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string input = mutate(seeds[rng.below(seeds.size())], rng);
        const auto encoded = reencode(input);
        if (!encoded) continue;
        ++accepted;
        const auto again = reencode(*encoded);
        ASSERT_TRUE(again.has_value())
            << "iteration " << i << ": the re-encoding was rejected";
        ASSERT_EQ(*again, *encoded)
            << "iteration " << i << ": the re-encoding does not round-trip";
    }
    // Both outcomes must occur, or the mutator tests nothing.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kIterations);
}

std::span<const std::byte> bytes_of(const std::string& text) {
    return std::as_bytes(std::span(text.data(), text.size()));
}

std::string text_of(const std::vector<std::byte>& bytes) {
    std::string text(bytes.size(), '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i)
        text[i] = static_cast<char>(bytes[i]);
    return text;
}

/// Wraps a blob round trip: BlobError is the codecs' one rejection.
template <typename Decode, typename Encode>
Reencode blob_codec(Decode decode, Encode encode) {
    return [=](const std::string& input) -> std::optional<std::string> {
        try {
            return text_of(encode(decode(bytes_of(input))));
        } catch (const store::BlobError&) {
            return std::nullopt;
        }
    };
}

TEST(Fuzz, TrainedBaselineBlob) {
    snn::DiehlCookConfig config;
    config.n_input = 4;
    config.n_neurons = 3;
    snn::Matrix weights(4, 3);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            weights(r, c) = 0.1f * static_cast<float>(r * 3 + c + 1);
    util::Rng rng(12345);
    rng.normal();  // a cached deviate in the snapshot
    store::TrainedBaseline baseline;
    baseline.model = std::make_shared<snn::NetworkModel>(
        config, weights, std::vector<float>{0.25f, 0.5f, 0.75f}, rng);
    baseline.result.train_accuracy = 0.87654321;
    baseline.result.total_exc_spikes = 123456;
    fuzz({text_of(store::encode_trained_baseline(baseline))},
         blob_codec(store::decode_trained_baseline, store::encode_trained_baseline));
}

TEST(Fuzz, VddPointsBlob) {
    std::vector<circuits::VddPoint> points;
    for (int i = 0; i < 3; ++i) {
        circuits::VddPoint point;
        point.vdd = 0.8 + 0.1 * i;
        point.value = 1.0 / (i + 3.0);
        point.change_pct = -1.5 * i;
        points.push_back(point);
    }
    fuzz({text_of(store::encode_vdd_points(points)), text_of(store::encode_vdd_points({}))},
         blob_codec(store::decode_vdd_points, store::encode_vdd_points));
}

TEST(Fuzz, GlitchProfileBlob) {
    std::vector<attack::GlitchWindow> windows;
    windows.push_back({0.0, 0.25, 0.0, 1.0});
    windows.push_back({0.25, 0.5, -0.007123456789, 0.83456789012345});
    windows.push_back({0.5, 1.0, 0.001, 1.0});
    const attack::GlitchProfile profile{windows};
    fuzz({text_of(store::encode_glitch_profile(profile))},
         blob_codec(store::decode_glitch_profile, store::encode_glitch_profile));
}

TEST(Fuzz, ShardLine) {
    fi::CellResult cell;
    cell.plan_index = 17;
    cell.model = "vdd_glitch";
    cell.site.kind = fi::SiteKind::kSynapse;
    cell.site.pre = 523;
    cell.site.post = 7;
    cell.label = "rect:d0.8 \"q\"\\\t";
    cell.footprint = "strat:0.25@7";
    cell.severity = 0.8;
    cell.replicas = 3;
    cell.accuracy_pct = 100.0 / 3.0;
    cell.drop_pct = -1e-300;
    cell.ci_halfwidth_pct = 1.0 / 7.0;
    cell.critical = true;
    cell.scheduled = true;
    fuzz({fi::cell_to_jsonl(cell, 200.0 / 3.0), fi::cell_to_jsonl(fi::CellResult{}, 0.0)},
         [](const std::string& input) -> std::optional<std::string> {
             const auto record = fi::cell_from_jsonl(input);
             if (!record) return std::nullopt;
             return fi::cell_to_jsonl(record->cell, record->baseline_pct);
         });
}

TEST(Fuzz, Manifest) {
    fi::CampaignManifest manifest;
    manifest.scenario = "fi.quick-sweep";
    manifest.shards = 2;
    manifest.cells = 26;
    manifest.quick = true;
    manifest.campaign_key = "models=stuck_at_0+|layers=excitatory+|es=0,2,10,1.5";
    fuzz({manifest.to_json()}, [](const std::string& input) -> std::optional<std::string> {
        try {
            return fi::CampaignManifest::from_json(input).to_json();
        } catch (const std::runtime_error&) {
            return std::nullopt;
        }
    });
}

TEST(Fuzz, Heartbeat) {
    obs::Heartbeat beat;
    beat.shard = 1;
    beat.shards = 2;
    beat.cells_done = 5;
    beat.cells_total = 13;
    beat.ewma_cells_per_s = 48.43199145099625;
    beat.interval_s = 1.0;
    beat.written_unix_ms = 1792249342301;
    beat.checkpoint_unix_ms = -1;
    fuzz({beat.to_json()}, [](const std::string& input) -> std::optional<std::string> {
        const auto parsed = obs::Heartbeat::from_json(input);
        if (!parsed) return std::nullopt;
        return parsed->to_json();
    });
}

TEST(Fuzz, IdxPair) {
    // An input is an images file followed by a labels file. The images
    // file is as long as its header declares (16 + count x rows x cols
    // bytes) when the input holds that much; the rest is the labels file.
    // The re-encoding is what save_idx_pair writes for the loaded dataset.
    const auto dir = std::filesystem::temp_directory_path();
    const std::string images = (dir / "snnfi_fuzz_idx_images").string();
    const std::string labels = (dir / "snnfi_fuzz_idx_labels").string();
    const auto write_file = [](const std::string& path, std::string_view bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    };
    const auto read_file = [](const std::string& path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const auto be32 = [](const std::string& bytes, std::size_t at) {
        std::uint64_t value = 0;
        for (std::size_t i = at; i < at + 4; ++i)
            value = (value << 8) | static_cast<unsigned char>(bytes[i]);
        return value;
    };
    const Reencode reencode = [&](const std::string& input) -> std::optional<std::string> {
        std::size_t split = input.size();
        if (input.size() >= 16) {
            const std::uint64_t count = be32(input, 4);
            const std::uint64_t size = be32(input, 8) * be32(input, 12);
            if (size == 0 || count <= (input.size() - 16) / size)
                split = static_cast<std::size_t>(16 + count * size);
        }
        write_file(images, std::string_view(input).substr(0, split));
        write_file(labels, std::string_view(input).substr(split));
        snn::Dataset dataset;
        try {
            dataset = data::load_idx_pair(images, labels);
        } catch (const std::runtime_error&) {
            return std::nullopt;
        }
        data::save_idx_pair(dataset, images, labels);
        return read_file(images) + read_file(labels);
    };
    snn::Dataset square;
    square.image_size = 9;
    for (std::size_t i = 0; i < 3; ++i) {
        std::vector<float> image(9);
        for (std::size_t p = 0; p < 9; ++p) image[p] = static_cast<float>((i * 9 + p) % 7) / 6.0f;
        square.images.push_back(image);
        square.labels.push_back(i * 4);
    }
    snn::Dataset wide;
    wide.image_size = 5;
    wide.images = {{0.0f, 0.25f, 0.5f, 0.75f, 1.0f}};
    wide.labels = {9};
    std::vector<std::string> seeds;
    for (const snn::Dataset* dataset : {&square, &wide}) {
        data::save_idx_pair(*dataset, images, labels);
        seeds.push_back(read_file(images) + read_file(labels));
    }
    fuzz(seeds, reencode);
    std::filesystem::remove(images);
    std::filesystem::remove(labels);
}

TEST(Fuzz, ArgParser) {
    // An argv is its arguments joined by '\n', so mutations can also split,
    // merge and drop arguments. The re-encoding lists every set option once
    // as --name=<its comma-joined values>.
    const std::vector<std::string> names{"quick",   "json",         "experiment",
                                         "samples", "threads",      "campaign-dir",
                                         "shard",   "deltas"};
    const std::size_t kFlags = 2;  // names[0..1] are flags
    const Reencode reencode = [&](const std::string& input) -> std::optional<std::string> {
        util::ArgParser parser("fuzz");
        for (std::size_t n = 0; n < names.size(); ++n) {
            if (n < kFlags) parser.add_flag(names[n], "");
            else parser.add_option(names[n], "0", "");
        }
        std::vector<std::string> args{"run"};
        for (std::size_t start = 0; !input.empty();) {
            const std::size_t end = input.find('\n', start);
            args.push_back(input.substr(start, end - start));
            if (end == std::string::npos) break;
            start = end + 1;
        }
        std::vector<const char*> argv;
        for (const std::string& arg : args) argv.push_back(arg.c_str());
        try {
            if (!parser.parse(static_cast<int>(argv.size()), argv.data()))
                return std::nullopt;  // --help
        } catch (const std::invalid_argument&) {
            return std::nullopt;
        }
        std::string encoded;
        for (const std::string& name : names) {
            // Typed reads either succeed or throw std::invalid_argument.
            try { parser.get_int(name); } catch (const std::invalid_argument&) {}
            try { parser.get_double(name); } catch (const std::invalid_argument&) {}
            try { parser.get_bool(name); } catch (const std::invalid_argument&) {}
            try { parser.get_doubles(name); } catch (const std::invalid_argument&) {}
            if (!parser.was_set(name)) continue;
            if (!encoded.empty()) encoded += '\n';
            encoded += "--" + name + "=";
            const std::vector<std::string> values = parser.get_strings(name);
            for (std::size_t v = 0; v < values.size(); ++v)
                encoded += (v ? "," : "") + values[v];
        }
        return encoded;
    };
    fuzz({"--experiment=fi.quick-sweep\n--campaign-dir=camp\n--shard=1\n--quick\n"
          "--samples\n300\n--threads=4\n--deltas=-0.2,0.1e1\n--json=false"},
         reencode);
}

}  // namespace
}  // namespace snnfi
