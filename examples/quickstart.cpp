// Quickstart: train the Diehl&Cook SNN on digits, attack it, defend it.
//
//   $ ./quickstart [--samples=500] [--neurons=100]
//
// Walks through the library in ~a minute, driving everything through one
// core::Session — the shared engine behind the bench binaries and the
// `run` CLI. The session caches the dataset and the trained baseline, so
// the three stages below train the attack-free network exactly once:
//   1. train an attack-free network and report its accuracy;
//   2. inject the paper's worst-case fault (Attack 4: -20% threshold on
//      both layers) and watch the accuracy collapse;
//   3. re-run with the bandgap-referenced threshold defense and watch the
//      accuracy recover.
#include <iostream>

#include "core/snnfi.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
    using namespace snnfi;

    util::ArgParser parser("snnfi quickstart: train -> attack -> defend");
    parser.add_option("samples", "500", "Number of training images");
    parser.add_option("neurons", "100", "Neurons per layer");
    if (!parser.parse(argc, argv)) return 0;

    // 1. One Session holds the workload knobs and every shared artifact
    //    (dataset, trained baseline, circuit characterisations).
    core::RunOptions options;
    options.train_samples = static_cast<std::size_t>(parser.get_int("samples"));
    options.n_neurons = static_cast<std::size_t>(parser.get_int("neurons"));
    core::Session session(options);

    auto suite = session.attack_suite();
    std::cout << "dataset: " << suite->dataset().size() << " images of "
              << suite->dataset().image_size << " pixels\n";

    std::cout << "\n[1/3] training attack-free baseline...\n";
    const double baseline = suite->baseline_accuracy();
    std::cout << "      baseline accuracy: " << baseline * 100.0 << "%\n";

    // 2. Worst-case white-box attack (paper Fig. 8c): -20% threshold fault
    //    on 100% of both neuron layers.
    std::cout << "\n[2/3] injecting Attack 4 (-20% threshold, both layers)...\n";
    attack::FaultSpec fault;
    fault.layer = attack::TargetLayer::kBoth;
    fault.fraction = 1.0;
    fault.threshold_delta = -0.20;
    const attack::AttackOutcome attacked = suite->run_many({fault})[0];
    std::cout << "      attacked accuracy: " << attacked.accuracy * 100.0 << "% ("
              << attacked.degradation_pct << "% vs baseline)\n";

    // 3. Defense: a bandgap-referenced threshold limits the corruption the
    //    supply attack can induce to +/-0.56%.
    std::cout << "\n[3/3] enabling the bandgap-Vthr defense...\n";
    const circuits::BandgapModel bandgap;
    attack::FaultSpec defended = fault;
    defended.threshold_delta = bandgap.deviation_pct(0.8) / 100.0;
    const attack::AttackOutcome recovered = suite->run_many({defended})[0];
    std::cout << "      defended accuracy: " << recovered.accuracy * 100.0 << "% ("
              << recovered.degradation_pct << "% vs baseline)\n";

    std::cout << "\nSummary: " << baseline * 100.0 << "% -> "
              << attacked.accuracy * 100.0 << "% under attack -> "
              << recovered.accuracy * 100.0 << "% with the defense.\n"
              << "(session cache: " << session.cache_hits() << " hit(s), "
              << session.cache_misses() << " miss(es) — the baseline was "
              << "trained once)\n";
    return 0;
}
