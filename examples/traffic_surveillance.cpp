// Traffic-surveillance scenario: a static UA-DETRAC-like intersection
// camera riding through full day/weather cycles, with a live view of the
// sampling-rate controller at work.
//
// Demonstrates:
//  - the control loop (phi / alpha / lambda -> sampling rate, Eq. 2-3)
//  - where the training sessions land relative to scene changes
//  - per-segment accuracy vs the Edge-Only baseline
//
//   ./traffic_surveillance [duration_seconds] [seed]
#include <iostream>

#include "common/cli.hpp"
#include "fleet/testbed.hpp"

int main(int argc, char** argv) {
    using namespace shog;

    const cli::Args args = cli::parse_args(
        cli::Usage{"traffic_surveillance", "[duration_seconds>0] [seed]"}, argc, argv, 2);
    const double duration = args.duration_or(0, 420.0);
    const std::uint64_t seed = args.number_or<std::uint64_t>(1, "seed", 11);

    const fleet::Testbed testbed = fleet::make_testbed("ua_detrac", 1, seed, duration);
    const video::Video_stream& stream = *testbed.streams.front();
    const sim::Harness_config harness{};
    const sim::Run_result edge = fleet::run_edge_only(testbed, harness);

    // Built by hand rather than through fleet::run_shoggoth: the trace
    // below reads the strategy's control records after the run.
    const auto student = testbed.pristine->clone();
    core::Shoggoth_strategy shoggoth{*student, *testbed.teacher, core::Shoggoth_config{},
                                     device::jetson_tx2(), device::v100()};
    const sim::Run_result result = sim::run_strategy(shoggoth, stream, harness);

    std::cout << "=== control loop trace (cloud sampling-rate controller) ===\n";
    std::cout << "   time  scene                rate(fps)  alpha  phi_bar\n";
    std::size_t shown = 0;
    for (const auto& rec : shoggoth.control_trace()) {
        if (shown++ % 4 != 0) {
            continue;
        }
        const video::Domain d = stream.schedule().at(rec.at.value()); // frame domain
        std::printf("  %5.0fs  illum=%.2f %-8s  %8.2f  %5.2f  %6.2f\n",
                    rec.at.value(), // printf needs the raw seconds
                    d.illumination, video::to_string(d.weather), rec.rate, rec.alpha,
                    rec.phi_bar);
    }

    std::cout << "\n=== per-window accuracy: Shoggoth vs Edge-Only ===\n";
    for (std::size_t i = 0; i < result.windowed_map.size() && i < edge.windowed_map.size();
         ++i) {
        const double t = result.windowed_map[i].first;
        const video::Domain d = stream.schedule().at(t);
        std::printf("  t=%4.0fs illum=%.2f  shoggoth=%.3f  edge-only=%.3f  gain=%+.3f\n", t,
                    d.illumination, result.windowed_map[i].second, edge.windowed_map[i].second,
                    result.windowed_map[i].second - edge.windowed_map[i].second);
    }

    std::printf("\noverall: Shoggoth %.1f%% vs Edge-Only %.1f%% mAP (uplink %.0f Kbps, "
                "%zu sessions, %zu frames labeled)\n",
                result.map * 100.0, edge.map * 100.0, result.up_kbps,
                result.training_sessions, shoggoth.frames_labeled());
    return 0;
}
