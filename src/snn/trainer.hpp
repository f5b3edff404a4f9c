// Training/evaluation loop reproducing the paper's experimental setup
// (§IV-A): one pass over 1000 Poisson-encoded digit images, STDP learning,
// activity-based label assignment, accuracy on the training activity.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "snn/classifier.hpp"
#include "snn/encoding.hpp"
#include "snn/network.hpp"
#include "snn/runtime.hpp"

namespace snnfi::snn {

/// A labelled digit dataset (images flattened, intensities in [0,1]).
struct Dataset {
    std::size_t image_size = 784;
    std::vector<std::vector<float>> images;
    std::vector<std::size_t> labels;
    std::size_t size() const noexcept { return images.size(); }
};

struct TrainResult {
    /// Online windowed accuracy (BindsNET eth_mnist metric, the paper's
    /// §IV-A number): every `eval_window` samples the last window is scored
    /// with the neuron->label assignments from the activity accumulated
    /// before it, then assignments are refreshed.
    double train_accuracy = 0.0;
    /// Retrospective accuracy: assignments from the full training activity,
    /// scored on all training samples. Less noisy; reported alongside.
    double retro_accuracy = 0.0;
    double test_accuracy = -1.0;   ///< on held-out set, -1 if no test set
    std::size_t total_exc_spikes = 0;
    std::size_t total_inh_spikes = 0;
    double mean_exc_spikes_per_sample = 0.0;
};

/// Optional per-sample hook (fault scheduling, progress).
using SampleHook = std::function<void(std::size_t index)>;

class Trainer {
public:
    /// Trains a Model/Runtime replica: the runtime's learning mode is
    /// enabled for the pass, and runtime.freeze() after run() yields the
    /// trained immutable NetworkModel. With a `raster` (not owned; it must
    /// outlive run()), sample i of the pass replays raster sample i
    /// instead of encoding train.images[i]; the raster must have been
    /// encoded from those images.
    explicit Trainer(NetworkRuntime& runtime, std::size_t eval_window = 250,
                     const SpikeRaster* raster = nullptr)
        : runtime_(&runtime), eval_window_(eval_window), raster_(raster) {}

    /// Trains on `train` (single pass, learning on), computing the online
    /// windowed accuracy and the retrospective accuracy; when `test` is
    /// non-null, also evaluates on the held-out set with learning frozen.
    /// A replayed pass leaves runtime.rng() at the raster's end state, so
    /// the results, the test pass and freeze() equal a live-encoding
    /// pass's bit for bit. Throws std::invalid_argument when the raster's
    /// sample count, encoder config, steps per sample or start state
    /// differ from `train` and the runtime.
    TrainResult run(const Dataset& train, const Dataset* test = nullptr,
                    const SampleHook& hook = {});

private:
    NetworkRuntime* runtime_ = nullptr;
    std::size_t eval_window_;
    const SpikeRaster* raster_ = nullptr;
};

}  // namespace snnfi::snn
