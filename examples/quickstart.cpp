// Quickstart: the smallest end-to-end Shoggoth deployment.
//
// Builds a drifting synthetic traffic stream, pre-trains a lightweight
// student (daytime only) and a golden teacher (all conditions), runs the
// full edge-cloud collaborative system for five simulated minutes, and
// prints the accuracy/bandwidth/fps summary next to the Edge-Only baseline.
//
//   ./quickstart [duration_seconds] [seed]
#include <iostream>

#include "common/cli.hpp"
#include "fleet/testbed.hpp"

int main(int argc, char** argv) {
    using namespace shog;

    const cli::Args args = cli::parse_args(
        cli::Usage{"quickstart", "[duration_seconds>0] [seed]"}, argc, argv, 2);
    const double duration = args.duration_or(0, 300.0);
    const std::uint64_t seed = args.number_or<std::uint64_t>(1, "seed", 7);

    // 1. A drifting video stream (UA-DETRAC-like traffic surveillance that
    //    cycles through sunny / cloudy / rain / dusk / night) and its
    //    detectors: the lightweight edge student (pre-trained on daytime
    //    only — vulnerable to drift) and the cloud teacher (golden model).
    const fleet::Testbed testbed = fleet::make_testbed("ua_detrac", 1, seed, duration);
    const video::Video_stream& stream = *testbed.streams.front();
    std::cout << "stream: " << stream.frame_count() << " frames at " << stream.fps()
              << " fps, " << stream.num_classes() << " classes, "
              << stream.track_count() << " vehicle tracks\n";

    // 2. Baseline: the same student with no adaptation.
    const sim::Harness_config harness{};
    const sim::Run_result edge = fleet::run_edge_only(testbed, harness);

    // 3. Shoggoth: decoupled knowledge distillation with adaptive online
    //    learning (defaults reproduce the paper's configuration).
    const sim::Run_result result = fleet::run_shoggoth(testbed, harness);

    // 4. Summary.
    std::cout << "\n               mAP@0.5   up Kbps  down Kbps   fps   sessions\n";
    auto row = [](const char* name, const sim::Run_result& r) {
        std::printf("%-12s %8.1f%% %9.1f %10.1f %5.1f %10zu\n", name, r.map * 100.0,
                    r.up_kbps, r.down_kbps, r.average_fps, r.training_sessions);
    };
    row("Edge-Only", edge);
    row("Shoggoth", result);
    std::cout << "\nadaptive online learning gained "
              << (result.map - edge.map) * 100.0
              << " mAP points over the non-adaptive edge model.\n";
    return 0;
}
