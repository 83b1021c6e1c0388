// Design-choice ablations beyond the paper's Table II: quantifies each of
// the reproduction's own mechanisms (documented in DESIGN.md §2) on the
// UA-DETRAC-like stream:
//   - warm replay memory on/off
//   - validation-gated commit on/off
//   - recent-frame horizon lengths
//   - alpha source: cloud agreement vs the paper's posterior threshold
//   - Batch Renorm front-stat adaptation speed
#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "fleet/testbed.hpp"

using namespace shog;

int main(int argc, char** argv) {
    const cli::Args args =
        cli::parse_args(cli::Usage{"bench_ablation", "[duration_seconds>0] [seed]"}, argc, argv, 2);
    const double duration = args.duration_or(0, 240.0);
    const std::uint64_t seed = args.number_or<std::uint64_t>(1, "seed", 2023);

    std::cout << "=== Design-choice ablations (UA-DETRAC-like, " << duration << " s) ===\n\n";

    const fleet::Testbed tb = fleet::make_testbed("ua_detrac", 1, seed, duration);
    const sim::Harness_config harness = benchutil::paper_harness(seed);
    Text_table table{{"Variant", "mAP (%)", "Up Kbps", "Sessions", "Avg IoU"}};

    auto run = [&](const char* name, core::Shoggoth_config cfg) {
        const sim::Run_result r = fleet::run_shoggoth(tb, harness, std::move(cfg));
        std::cout << "  " << name << ": mAP=" << r.map * 100.0 << "% up=" << r.up_kbps
                  << " sessions=" << r.training_sessions << "\n";
        table.add_row({name, Text_table::num(r.map * 100.0, 1), Text_table::num(r.up_kbps, 0),
                       std::to_string(r.training_sessions), Text_table::num(r.average_iou, 3)});
    };

    run("full system", core::Shoggoth_config{});

    {
        core::Shoggoth_config cfg;
        cfg.warm_replay = false;
        run("no warm replay", std::move(cfg));
    }
    {
        core::Shoggoth_config cfg;
        cfg.trainer.validation_fraction = 0.0;
        run("no validation gate", std::move(cfg));
    }
    {
        core::Shoggoth_config cfg;
        cfg.sample_horizon = Sim_duration{30.0};
        run("horizon 30s", std::move(cfg));
    }
    {
        core::Shoggoth_config cfg;
        cfg.sample_horizon = Sim_duration{300.0};
        run("horizon 300s", std::move(cfg));
    }
    {
        core::Shoggoth_config cfg;
        cfg.alpha_source = core::Shoggoth_config::Alpha_source::posterior;
        run("posterior alpha (paper literal)", std::move(cfg));
    }
    {
        core::Shoggoth_config cfg;
        cfg.trainer.front_stats_momentum = 0.05;
        run("fast front stats (aging)", std::move(cfg));
    }
    {
        core::Shoggoth_config cfg;
        cfg.trainer.replay_capacity = 375; // quarter-size replay memory
        run("replay memory / 4", std::move(cfg));
    }

    std::cout << "\n" << table.str() << std::flush;
    return 0;
}
