// Table III reproduction: sensitivity to the frame sampling rate — uplink
// bandwidth and average IoU for fixed rates {0.1 .. 2.0} fps vs adaptive.
//
// Paper reference:
//   rate       0.1   0.2   0.4   0.8   1.6   2.0   Adaptive
//   Up (Kbps)   19    36    61   122   249   307   135
//   Avg IoU   .483  .524  .556  .623  .612  .597   .640
// Shape: IoU peaks at a mid fixed rate (high rates overfit to recent
// frames), and adaptive beats every fixed rate at moderate bandwidth.
#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "fleet/testbed.hpp"

using namespace shog;

int main(int argc, char** argv) {
    const cli::Args args =
        cli::parse_args(cli::Usage{"bench_table3", "[duration_seconds>0] [seed]"}, argc, argv, 2);
    const double duration = args.duration_or(0, 240.0);
    const std::uint64_t seed = args.number_or<std::uint64_t>(1, "seed", 2023);

    std::cout << "=== Table III: sensitivity to the sampling rate (UA-DETRAC-like) ===\n"
              << "(duration " << duration << " s, seed " << seed << ")\n\n";

    const fleet::Testbed tb = fleet::make_testbed("ua_detrac", 1, seed, duration);
    const sim::Harness_config harness = benchutil::paper_harness(seed);

    std::vector<std::string> header{"rate ->"};
    std::vector<std::string> bw_row{"Up BW (Kbps)"};
    std::vector<std::string> iou_row{"Average IoU"};
    std::vector<std::string> map_row{"mAP@0.5 (%)"};

    for (double rate : {0.1, 0.2, 0.4, 0.8, 1.6, 2.0}) {
        core::Shoggoth_config cfg;
        cfg.adaptive_sampling = false;
        cfg.fixed_rate = rate;
        const sim::Run_result r = fleet::run_shoggoth(tb, harness, std::move(cfg));
        std::cout << "  fixed " << rate << " fps: up=" << r.up_kbps
                  << "Kbps iou=" << r.average_iou << " mAP=" << r.map * 100.0 << "%\n";
        header.push_back(Text_table::num(rate, 1));
        bw_row.push_back(Text_table::num(r.up_kbps, 0));
        iou_row.push_back(Text_table::num(r.average_iou, 3));
        map_row.push_back(Text_table::num(r.map * 100.0, 1));
    }

    const sim::Run_result adaptive = fleet::run_shoggoth(tb, harness);
    std::cout << "  adaptive: up=" << adaptive.up_kbps << "Kbps iou=" << adaptive.average_iou
              << " mAP=" << adaptive.map * 100.0 << "%\n";
    header.push_back("Adaptive");
    bw_row.push_back(Text_table::num(adaptive.up_kbps, 0));
    iou_row.push_back(Text_table::num(adaptive.average_iou, 3));
    map_row.push_back(Text_table::num(adaptive.map * 100.0, 1));

    Text_table table{header};
    table.add_row(bw_row);
    table.add_row(iou_row);
    table.add_row(map_row);
    std::cout << "\n" << table.str() << std::flush;
    return 0;
}
