// The fault library: taxonomy integrity, bit-exact overlay round trips,
// behavioural fault expression through the runtime, and the drift models'
// equivalence with the paper's attacks.
#include "fi/fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>

#include "snn/model.hpp"
#include "snn/runtime.hpp"

namespace snnfi::fi {
namespace {

snn::DiehlCookConfig small_config() {
    snn::DiehlCookConfig config;
    config.n_input = 12;
    config.n_neurons = 5;
    config.steps_per_sample = 50;
    return config;
}

std::shared_ptr<const snn::NetworkModel> small_model() {
    return snn::NetworkModel::random(small_config(), /*seed=*/3);
}

TEST(FaultLibrary, CatalogNamesUniqueAndResolvable) {
    const auto& library = standard_fault_library();
    EXPECT_GE(library.size(), 7u);  // >= 5 models demanded by the campaign
    std::set<std::string> names;
    for (const auto& model : library) {
        EXPECT_TRUE(names.insert(model->name()).second) << model->name();
        EXPECT_FALSE(std::string(model->description()).empty());
        EXPECT_FALSE(model->severity_grid(true).empty());
        EXPECT_FALSE(model->severity_grid(false).empty());
        EXPECT_EQ(find_fault_model(model->name()).get(), model.get());
    }
    EXPECT_THROW(find_fault_model("gamma_ray"), std::invalid_argument);
}

TEST(FaultLibrary, BitFlipIsAnInvolution) {
    for (const float value : {0.0f, 0.125f, -3.5f, 1e-30f}) {
        for (const unsigned bit : {0u, 7u, 22u, 23u, 30u, 31u}) {
            const float flipped = flip_weight_bit(value, bit);
            EXPECT_NE(std::memcmp(&flipped, &value, sizeof(float)), 0);
            const float restored = flip_weight_bit(flipped, bit);
            EXPECT_EQ(std::memcmp(&restored, &value, sizeof(float)), 0);
        }
    }
    EXPECT_THROW(flip_weight_bit(1.0f, 32), std::invalid_argument);
}

TEST(FaultLibrary, BitFlipOverlayRoundTripsBitExact) {
    const auto model = small_model();
    const auto config = small_config();

    FaultSite site;
    site.kind = SiteKind::kSynapse;
    site.pre = 7;
    site.post = 3;
    const auto bit_flip = find_fault_model("bit_flip");

    snn::NetworkRuntime flipped(model, bit_flip->overlay(config, site, 30));
    EXPECT_NE(flipped.weight_row(7)[3], model->input_weights()(7, 3));

    // Injecting the same fault twice restores the weight bit-exactly.
    snn::FaultOverlay twice;
    bit_flip->build_overlay(twice, config, site, 30);
    bit_flip->build_overlay(twice, config, site, 30);
    snn::NetworkRuntime restored(model, twice);
    for (std::size_t pre = 0; pre < config.n_input; ++pre) {
        const auto row = restored.weight_row(pre);
        ASSERT_EQ(std::memcmp(row.data(), model->weight_row(pre).data(),
                              row.size() * sizeof(float)),
                  0)
            << "row " << pre;
    }
}

TEST(FaultLibrary, StuckAtPinsTheWeightToTheRailValue) {
    const auto model = small_model();
    const auto config = small_config();
    FaultSite site;
    site.kind = SiteKind::kSynapse;
    site.pre = 2;
    site.post = 4;
    snn::NetworkRuntime high(model,
                             find_fault_model("stuck_at_1")->overlay(config, site, 1.0));
    EXPECT_EQ(high.weight_row(2)[4], config.stdp.wmax);
    snn::NetworkRuntime low(model,
                            find_fault_model("stuck_at_0")->overlay(config, site, 1.0));
    EXPECT_EQ(low.weight_row(2)[4], config.stdp.wmin);
}

TEST(FaultLibrary, DeadAndSaturatedNeuronsForceTheLayerOutput) {
    const auto model = small_model();
    const auto config = small_config();

    FaultSite dead;
    dead.kind = SiteKind::kNeuron;
    dead.layer = attack::TargetLayer::kExcitatory;
    dead.neuron = 1;
    FaultSite saturated;
    saturated.kind = SiteKind::kNeuron;
    saturated.layer = attack::TargetLayer::kExcitatory;
    saturated.neuron = 2;

    snn::FaultOverlay overlay;
    find_fault_model("dead_neuron")->build_overlay(overlay, config, dead, 1.0);
    find_fault_model("saturated_neuron")
        ->build_overlay(overlay, config, saturated, 1.0);
    snn::NetworkRuntime runtime(model, overlay);
    EXPECT_EQ(runtime.forced_state(snn::OverlayLayer::kExcitatory, 1),
              snn::NeuronFault::kDead);
    EXPECT_EQ(runtime.forced_state(snn::OverlayLayer::kExcitatory, 2),
              snn::NeuronFault::kSaturated);

    // Behaviour: the saturated neuron fires on every step, the dead one
    // never — even under a bright input.
    const std::vector<float> image(config.n_input, 1.0f);
    const auto activity = runtime.run_sample(image);
    EXPECT_EQ(activity.exc_counts[1], 0u);
    EXPECT_EQ(activity.exc_counts[2],
              static_cast<std::uint32_t>(config.steps_per_sample));

    // Clearing the overlay restores nominal behaviour.
    runtime.set_overlay(snn::FaultOverlay{});
    EXPECT_EQ(runtime.forced_state(snn::OverlayLayer::kExcitatory, 1),
              snn::NeuronFault::kNominal);
    EXPECT_EQ(runtime.forced_state(snn::OverlayLayer::kExcitatory, 2),
              snn::NeuronFault::kNominal);
}

TEST(FaultLibrary, RefractoryStretchMultipliesThePeriod) {
    const auto model = small_model();
    const auto config = small_config();
    FaultSite site;
    site.kind = SiteKind::kNeuron;
    site.layer = attack::TargetLayer::kExcitatory;
    site.neuron = 0;
    const int nominal = config.excitatory.lif.refrac_steps;
    snn::NetworkRuntime runtime(
        model, find_fault_model("refractory_stretch")->overlay(config, site, 4.0));
    EXPECT_EQ(runtime.refractory_steps(snn::OverlayLayer::kExcitatory, 0),
              4 * nominal);
    EXPECT_EQ(runtime.refractory_steps(snn::OverlayLayer::kExcitatory, 1), nominal);
}

TEST(FaultLibrary, DriftModelsExpressThePaperAttacks) {
    const auto threshold = find_fault_model("threshold_drift");
    const auto gain = find_fault_model("driver_gain_drift");
    EXPECT_TRUE(threshold->trains_under_fault());
    EXPECT_TRUE(gain->trains_under_fault());
    EXPECT_TRUE(gain->network_wide());
    const auto config = small_config();

    // Attacks 2-4: a BindsNET-semantics threshold shift on every neuron of
    // the site's layer, and nothing else.
    FaultSite layer_site;
    layer_site.kind = SiteKind::kParameter;
    layer_site.layer = attack::TargetLayer::kInhibitory;
    const snn::FaultOverlay thr = threshold->overlay(config, layer_site, -0.2);
    EXPECT_FALSE(thr.has_driver_gain());
    EXPECT_TRUE(thr.weight_ops().empty());
    std::set<std::uint32_t> shifted;
    for (const snn::NeuronOp& op : thr.neuron_ops()) {
        EXPECT_EQ(op.layer, snn::OverlayLayer::kInhibitory);
        EXPECT_EQ(op.field, snn::NeuronOp::Field::kThresholdValueDelta);
        EXPECT_FLOAT_EQ(op.value, -0.2f);
        shifted.insert(op.neuron);
    }
    EXPECT_EQ(thr.neuron_ops().size(), config.n_neurons);
    EXPECT_EQ(shifted.size(), config.n_neurons);

    // The same fault in the paper's vocabulary expands to the same state.
    attack::FaultSpec spec;
    spec.layer = attack::TargetLayer::kInhibitory;
    spec.threshold_delta = -0.2;
    const snn::NetworkRuntime drift(small_model(), thr);
    const snn::NetworkRuntime paper(small_model(), attack::overlay_for(spec, config));
    for (const auto layer :
         {snn::OverlayLayer::kExcitatory, snn::OverlayLayer::kInhibitory}) {
        for (std::size_t n = 0; n < config.n_neurons; ++n) {
            EXPECT_EQ(drift.effective_threshold(layer, n),
                      paper.effective_threshold(layer, n));
        }
    }
    EXPECT_EQ(drift.driver_gain(), paper.driver_gain());

    // Attack 1: the network-wide input-driver gain.
    FaultSite network_site;
    network_site.kind = SiteKind::kParameter;
    network_site.layer = attack::TargetLayer::kNone;
    const snn::FaultOverlay theta = gain->overlay(config, network_site, -0.2);
    EXPECT_TRUE(theta.has_driver_gain());
    EXPECT_FLOAT_EQ(theta.driver_gain(), 0.8f);  // attack 1's -20% point
    EXPECT_TRUE(theta.neuron_ops().empty());
    EXPECT_TRUE(theta.weight_ops().empty());

    // Drift models only live on parameter sites.
    FaultSite neuron_site;
    EXPECT_THROW(threshold->overlay(config, neuron_site, -0.2), std::invalid_argument);
    EXPECT_THROW(gain->overlay(config, neuron_site, -0.2), std::invalid_argument);
}

TEST(FaultLibrary, FaultedReplicasNeverTouchTheSharedModel) {
    const auto model = small_model();
    const auto config = small_config();
    const snn::Matrix before = model->input_weights();

    FaultSite synapse;
    synapse.kind = SiteKind::kSynapse;
    synapse.pre = 2;
    synapse.post = 4;
    FaultSite neuron;
    neuron.kind = SiteKind::kNeuron;
    neuron.layer = attack::TargetLayer::kExcitatory;
    neuron.neuron = 0;

    snn::NetworkRuntime stuck(model,
                              find_fault_model("stuck_at_1")->overlay(config, synapse, 1.0));
    snn::NetworkRuntime dead(model,
                             find_fault_model("dead_neuron")->overlay(config, neuron, 1.0));
    const std::vector<float> image(config.n_input, 0.9f);
    (void)stuck.run_sample(image);
    (void)dead.run_sample(image);

    // The shared frozen model is bit-identical after both faulted runs.
    const std::vector<float> after_flat = model->input_weights().to_vector();
    const std::vector<float> before_flat = before.to_vector();
    ASSERT_EQ(after_flat.size(), before_flat.size());
    EXPECT_EQ(std::memcmp(after_flat.data(), before_flat.data(),
                          before_flat.size() * sizeof(float)),
              0);
}

}  // namespace
}  // namespace snnfi::fi
