// Drift explorer: a microscope on the data-drift mechanism itself.
//
// Sweeps the domain dial from bright day to deep night and prints, for each
// condition, the student's and teacher's classifier accuracy and detection
// agreement — the raw material behind Fig. 1's "misalignment" story. Then
// runs one adaptive training session on night labels and shows the
// before/after recovery.
//
//   ./drift_explorer [seed]
#include <iostream>

#include "common/cli.hpp"
#include "core/adaptive_trainer.hpp"
#include "fleet/testbed.hpp"
#include "models/pretrain.hpp"

int main(int argc, char** argv) {
    using namespace shog;

    const cli::Args args =
        cli::parse_args(cli::Usage{"drift_explorer", "[seed]"}, argc, argv, 1);
    const std::uint64_t seed = args.number_or<std::uint64_t>(0, "seed", 3);

    const fleet::Testbed testbed = fleet::make_testbed("ua_detrac", 1, seed, 120.0);
    const video::World_model& world = testbed.streams.front()->world();
    const auto student = testbed.pristine->clone(); // trained below
    models::Detector& teacher = *testbed.teacher;

    auto accuracy_under = [&world](models::Detector& det, const video::Domain& domain,
                                   std::uint64_t s) {
        models::Pretrain_config cfg;
        cfg.domains = {domain};
        cfg.samples = 1200;
        cfg.seed = s;
        const auto ds = models::synth_dataset(world, det.config(), cfg);
        return models::classifier_accuracy(det, ds);
    };

    std::cout << "=== classifier accuracy across the domain dial ===\n";
    std::cout << "condition          student  teacher\n";
    struct Probe {
        const char* name;
        video::Domain domain;
    };
    const Probe probes[] = {
        {"bright day", video::day_sunny(0.6)}, {"cloudy", video::day_cloudy(0.6)},
        {"rain", video::day_rainy(0.6)},       {"dusk", video::dusk(0.5)},
        {"night", video::night(0.5)},
    };
    for (const Probe& p : probes) {
        std::printf("%-18s %6.1f%% %8.1f%%\n", p.name,
                    100.0 * accuracy_under(*student, p.domain, seed ^ 1),
                    100.0 * accuracy_under(teacher, p.domain, seed ^ 1));
    }

    std::cout << "\n=== one adaptive training session on teacher-labeled night data ===\n";
    const double night_before = accuracy_under(*student, video::night(0.5), seed ^ 2);
    const double day_before = accuracy_under(*student, video::day_sunny(0.6), seed ^ 3);

    core::Adaptive_trainer trainer{*student, core::ours_config(), device::jetson_tx2()};
    // Warm the replay memory from the offline training data, as deployed.
    models::Pretrain_config warm;
    warm.domains = models::daytime_domains();
    warm.samples = 1200;
    warm.seed = seed ^ 4;
    trainer.warm_start(models::synth_dataset(world, student->config(), warm));

    // Teacher-labeled night samples.
    models::Pretrain_config night_cfg;
    night_cfg.domains = {video::night(0.5)};
    night_cfg.samples = 500;
    night_cfg.seed = seed ^ 5;
    const auto night_batch = models::synth_dataset(world, student->config(), night_cfg);
    const core::Training_report report = trainer.train(night_batch);

    const double night_after = accuracy_under(*student, video::night(0.5), seed ^ 2);
    const double day_after = accuracy_under(*student, video::day_sunny(0.6), seed ^ 3);

    std::printf("night accuracy: %.1f%% -> %.1f%%\n", 100.0 * night_before,
                100.0 * night_after);
    std::printf("day accuracy:   %.1f%% -> %.1f%% (replay memory guards it)\n",
                100.0 * day_before, 100.0 * day_after);
    std::printf("session: %zu mini-batches, loss %.3f -> %.3f, modeled %.1f s on a TX2, "
                "%s\n",
                report.minibatches, report.initial_loss, report.final_loss,
                report.overall_seconds().value(), // printf needs the raw seconds
                report.committed ? "committed" : "rolled back by the validation gate");
    return 0;
}
