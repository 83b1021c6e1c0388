// Table I reproduction: Up/Down bandwidth (Kbps) and mAP@0.5 (%) for the
// five strategies on the three dataset presets.
//
// Paper reference values (UA-DETRAC / KITTI / Waymo):
//   Edge-Only  : 0/0 Kbps,       34.2 / 56.8 / 47.5 mAP
//   Cloud-Only : ~3257/3539 etc, 58.9 / 78.0 / 64.7 mAP (best accuracy)
//   Prompt     : 303/22 etc,     48.3 / 71.4 / 61.5 mAP
//   AMS        : 151/226 etc,    51.6 / 72.8 / 59.1 mAP (downlink heavy)
//   Shoggoth   : 135/10 etc,     53.5 / 74.7 / 61.9 mAP
// The harness reproduces the *shape*: ordering, gain over Edge-Only,
// bandwidth ratios.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "fleet/testbed.hpp"

int main(int argc, char** argv) {
    using namespace shog;

    const cli::Args args = cli::parse_args(
        cli::Usage{"bench_table1", "[duration_seconds>0] [seed] [preset]"}, argc, argv, 3);
    const double duration = args.duration_or(0, 240.0);
    const std::uint64_t seed = args.number_or<std::uint64_t>(1, "seed", 2023);
    std::vector<const char*> presets(video::preset_names.begin(), video::preset_names.end());
    if (args.positional.size() > 2) {
        const std::string& name = args.positional[2];
        const auto known = std::ranges::find(video::preset_names, name);
        if (known == video::preset_names.end()) {
            cli::fail_usage(args.usage, "bad value '" + name + "' for preset");
        }
        presets = {*known};
    }

    std::cout << "=== Table I: strategy comparison on three datasets ===\n"
              << "(duration " << duration << " s per stream, seed " << seed << ")\n\n";

    const sim::Harness_config harness = benchutil::paper_harness(seed);
    core::Shoggoth_config prompt_config;
    prompt_config.adaptive_sampling = false;
    Text_table table{{"Dataset", "Metric", "Edge-Only", "Cloud-Only", "Prompt", "AMS",
                      "Shoggoth"}};

    for (const char* preset : presets) {
        const fleet::Testbed tb = fleet::make_testbed(preset, 1, seed, duration);

        const sim::Run_result edge = fleet::run_edge_only(tb, harness);
        benchutil::print_result_line(preset, edge);
        const sim::Run_result cloud = fleet::run_cloud_only(tb, harness);
        benchutil::print_result_line(preset, cloud);
        const sim::Run_result prompt = fleet::run_shoggoth(tb, harness, prompt_config);
        benchutil::print_result_line(preset, prompt);
        const sim::Run_result ams = fleet::run_ams(tb, harness);
        benchutil::print_result_line(preset, ams);
        const sim::Run_result shoggoth = fleet::run_shoggoth(tb, harness);
        benchutil::print_result_line(preset, shoggoth);

        auto bw = [](const sim::Run_result& r) {
            return Text_table::num(r.up_kbps, 0) + "/" + Text_table::num(r.down_kbps, 0);
        };
        auto map = [](const sim::Run_result& r) { return Text_table::num(r.map * 100.0, 1); };

        table.add_row({preset, "Up/Down Bandwidth (Kbps)", bw(edge), bw(cloud), bw(prompt),
                       bw(ams), bw(shoggoth)});
        table.add_row({preset, "mAP@0.5 (%)", map(edge), map(cloud), map(prompt), map(ams),
                       map(shoggoth)});
    }

    std::cout << "\n" << table.str() << std::flush;
    return 0;
}
