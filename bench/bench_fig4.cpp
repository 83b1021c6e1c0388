// Figure 4 reproduction: average fps per strategy (left panel) and the
// Shoggoth fps-over-time curve for the initial segment of the UA-DETRAC
// stream (right panel, rendered as an ASCII series).
//
// Paper reference: Edge-Only 30, Cloud-Only ~5-6, Prompt ~23.5, AMS ~29.7,
// Shoggoth ~27.3 average fps; the right panel shows dips from 30 toward
// ~15 fps while adaptive training sessions run.
#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "fleet/testbed.hpp"

using namespace shog;

int main(int argc, char** argv) {
    const cli::Args args =
        cli::parse_args(cli::Usage{"bench_fig4", "[duration_seconds>0] [seed]"}, argc, argv, 2);
    const double duration = args.duration_or(0, 240.0);
    const std::uint64_t seed = args.number_or<std::uint64_t>(1, "seed", 2023);

    std::cout << "=== Figure 4: inference fps under each strategy (UA-DETRAC-like) ===\n"
              << "(duration " << duration << " s, seed " << seed << ")\n\n";

    const fleet::Testbed tb = fleet::make_testbed("ua_detrac", 1, seed, duration);
    const sim::Harness_config harness = benchutil::paper_harness(seed);

    Text_table table{{"Strategy", "Average FPS"}};
    const sim::Run_result edge = fleet::run_edge_only(tb, harness);
    table.add_row({"Edge-Only", Text_table::num(edge.average_fps, 1)});
    const sim::Run_result cloud = fleet::run_cloud_only(tb, harness);
    table.add_row({"Cloud-Only", Text_table::num(cloud.average_fps, 1)});
    core::Shoggoth_config prompt_config;
    prompt_config.adaptive_sampling = false;
    const sim::Run_result prompt = fleet::run_shoggoth(tb, harness, prompt_config);
    table.add_row({"Prompt", Text_table::num(prompt.average_fps, 1)});
    const sim::Run_result ams = fleet::run_ams(tb, harness);
    table.add_row({"AMS", Text_table::num(ams.average_fps, 1)});
    const sim::Run_result shoggoth = fleet::run_shoggoth(tb, harness);
    table.add_row({"Shoggoth", Text_table::num(shoggoth.average_fps, 1)});

    std::cout << table.str() << "\n";

    std::cout << "--- Shoggoth fps over time (right panel; '#' = 2 fps) ---\n";
    // Sample the timeline at 10 s resolution over the initial segment.
    const double horizon = std::min(duration, 400.0);
    for (double t = 0.0; t < horizon; t += 10.0) {
        double fps = 30.0;
        for (const auto& [from, value] : shoggoth.fps_timeline) {
            if (from <= t) {
                fps = value;
            } else {
                break;
            }
        }
        std::cout << "  t=" << static_cast<int>(t) << "s\t" << Text_table::num(fps, 1) << "\t";
        for (int i = 0; i < static_cast<int>(fps / 2.0); ++i) {
            std::cout << '#';
        }
        std::cout << "\n";
    }

    std::cout << "\nTraining sessions: " << shoggoth.training_sessions
              << "; average fps loss vs Edge-Only: "
              << Text_table::num(edge.average_fps - shoggoth.average_fps, 1) << " fps\n"
              << std::flush;
    return 0;
}
