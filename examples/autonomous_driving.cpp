// Autonomous-driving scenario: a KITTI-like ego-motion dashcam (single
// "car" class, day-only weather drift) — the stream where rain, not night,
// is the enemy. Compares all five strategies on the same drive.
//
//   ./autonomous_driving [duration_seconds] [seed]
#include <iostream>

#include "common/cli.hpp"
#include "fleet/testbed.hpp"

int main(int argc, char** argv) {
    using namespace shog;

    const cli::Args args = cli::parse_args(
        cli::Usage{"autonomous_driving", "[duration_seconds>0] [seed]"}, argc, argv, 2);
    const double duration = args.duration_or(0, 420.0);
    const std::uint64_t seed = args.number_or<std::uint64_t>(1, "seed", 13);

    const fleet::Testbed testbed = fleet::make_testbed("kitti", 1, seed, duration);
    std::cout << "KITTI-like drive: " << duration << " s, ego-motion "
              << testbed.streams.front()->config().ego_motion << ", car-only detection\n\n";
    const sim::Harness_config harness{};

    std::printf("%-12s %8s %9s %10s %6s %9s %10s\n", "strategy", "mAP@0.5", "up Kbps",
                "down Kbps", "fps", "sessions", "cloud GPU");
    auto report = [](const char* name, const sim::Run_result& r) {
        std::printf("%-12s %7.1f%% %9.1f %10.1f %6.1f %9zu %9.1fs\n", name, r.map * 100.0,
                    r.up_kbps, r.down_kbps, r.average_fps, r.training_sessions,
                    r.cloud_gpu_seconds);
    };

    report("Edge-Only", fleet::run_edge_only(testbed, harness));
    report("Cloud-Only", fleet::run_cloud_only(testbed, harness));
    core::Shoggoth_config prompt;
    prompt.adaptive_sampling = false;
    report("Prompt", fleet::run_shoggoth(testbed, harness, prompt));
    report("AMS", fleet::run_ams(testbed, harness));
    report("Shoggoth", fleet::run_shoggoth(testbed, harness));
    return 0;
}
