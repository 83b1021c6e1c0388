// Table II reproduction: the adaptive-training ablation — mAP and training
// time (forward / backward / overall seconds on a Jetson TX2) for:
//   Ours (replay at pool)  |  Input replay  |  Completely freezing
//   conv5_4 replay         |  No replay memory
//
// Paper reference (mAP %, fwd s, bwd s, overall s):
//   Ours     53.5  17.8  0.8  18.6      Input  49.6  536.2  31.6  567.8
//   Freezing 50.7  17.8  0.7  18.5      conv5_4 52.3  20.2   5.8  26.0
//   NoReplay 45.6  95.7  6.2  101.9
//
// Timing uses the deployed YOLOv4-ResNet18 profile with the paper's session
// shape (300 images, 1500 replay, K=64, 8 epochs). Accuracy is measured by
// running the full edge-cloud simulation with each trainer variant.
#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/adaptive_trainer.hpp"
#include "fleet/testbed.hpp"
#include "models/pretrain.hpp"

using namespace shog;

namespace {

struct Variant {
    const char* name;
    core::Trainer_config config;
};

} // namespace

int main(int argc, char** argv) {
    const cli::Args args =
        cli::parse_args(cli::Usage{"bench_table2", "[duration_seconds>0] [seed]"}, argc, argv, 2);
    const double duration = args.duration_or(0, 240.0);
    const std::uint64_t seed = args.number_or<std::uint64_t>(1, "seed", 2023);

    std::cout << "=== Table II: adaptive-training ablation (UA-DETRAC-like) ===\n"
              << "(duration " << duration << " s, seed " << seed << ")\n\n";

    const std::vector<Variant> variants = {
        {"Ours (pool)", core::ours_config()},
        {"Input", core::input_replay_config()},
        {"Completely Freezing", core::completely_freezing_config()},
        {"Conv5_4", core::conv5_4_config()},
        {"No Replay Memory", core::no_replay_config()},
    };

    const fleet::Testbed tb = fleet::make_testbed("ua_detrac", 1, seed, duration);
    const sim::Harness_config harness = benchutil::paper_harness(seed);

    Text_table table{{"Method", "mAP (%)", "Forward (s)", "Backward (s)", "Overall (s)"}};
    for (const Variant& variant : variants) {
        // Timing: one steady-state session with the paper's exact shape.
        auto timing_student = tb.pristine->clone();
        core::Trainer_config timing_cfg = variant.config;
        timing_cfg.samples_per_image = 1.0; // price in "image" units like the paper
        core::Adaptive_trainer timing_trainer{*timing_student, timing_cfg, device::jetson_tx2()};
        if (timing_cfg.replay_capacity > 0) {
            models::Pretrain_config warm_cfg;
            warm_cfg.domains = models::daytime_domains();
            warm_cfg.samples = timing_cfg.replay_capacity;
            warm_cfg.seed = seed ^ 0x77;
            timing_trainer.warm_start(
                models::synth_dataset(tb.streams.front()->world(), timing_student->config(),
                                      warm_cfg));
        }
        const core::Training_report cost =
            timing_trainer.estimate_session_cost(timing_cfg.batch_size);

        // Accuracy: run the full system with this trainer variant.
        core::Shoggoth_config system_cfg;
        system_cfg.trainer = variant.config;
        const sim::Run_result result = fleet::run_shoggoth(tb, harness, std::move(system_cfg));

        std::cout << "  " << variant.name << ": mAP=" << result.map * 100.0
                  << "% sessions=" << result.training_sessions
                  << " fwd=" << cost.forward_seconds.value() // report in raw seconds
                  << "s bwd=" << cost.backward_seconds.value() << "s\n";

        table.add_row({variant.name, Text_table::num(result.map * 100.0, 1),
                       Text_table::num(cost.forward_seconds.value(), 1),
                       Text_table::num(cost.backward_seconds.value(), 1),
                       Text_table::num(cost.overall_seconds().value(), 1)});
    }

    std::cout << "\n" << table.str() << std::flush;
    return 0;
}
