// Mechanism diagnostics (not a paper artifact): isolates each link of the
// adaptive-online-learning chain so calibration problems are attributable.
#include <iostream>

#include "bench_util.hpp"
#include "core/adaptive_trainer.hpp"
#include "core/labeling.hpp"
#include "detect/metrics.hpp"
#include "fleet/testbed.hpp"
#include "models/pretrain.hpp"

using namespace shog;

namespace {

// Detection-level mAP of a detector over frames drawn from one time span.
double span_map(models::Detector& det, const video::Video_stream& stream, double t0, double t1,
                std::size_t stride = 10) {
    std::vector<detect::Frame_eval> frames;
    for (std::size_t i = stream.index_at(t0); i < stream.index_at(t1); i += stride) {
        const video::Frame f = stream.frame_at(i);
        frames.push_back(
            detect::Frame_eval{det.detect(f, stream.world()), video::Video_stream::ground_truth(f)});
    }
    return detect::mean_average_precision(frames, stream.num_classes(), 0.5);
}

// Classifier accuracy on fresh samples from a fixed domain.
double domain_accuracy(models::Detector& det, const video::World_model& world,
                       const video::Domain& domain, std::uint64_t seed) {
    models::Pretrain_config cfg;
    cfg.domains = {domain};
    cfg.samples = 1500;
    cfg.seed = seed;
    const auto ds = models::synth_dataset(world, det.config(), cfg);
    return models::classifier_accuracy(det, ds);
}

} // namespace

int main() {
    const std::uint64_t seed = 2023;
    const fleet::Testbed tb = fleet::make_testbed("ua_detrac", 1, seed, 200.0);
    const sim::Harness_config harness = benchutil::paper_harness(seed);
    const video::Video_stream& stream = *tb.streams.front();
    const video::World_model& world = stream.world();

    std::cout << "--- classifier accuracy by domain (before adaptation) ---\n";
    for (auto [name, dom] : {std::pair{"day_sunny", video::day_sunny(0.6)},
                             std::pair{"day_rainy", video::day_rainy(0.6)},
                             std::pair{"night", video::night(0.5)}}) {
        std::cout << "  student@" << name << ": "
                  << domain_accuracy(*tb.pristine, world, dom, seed ^ 1) << "\n";
        std::cout << "  teacher@" << name << ": "
                  << domain_accuracy(*tb.teacher, world, dom, seed ^ 1) << "\n";
    }

    std::cout << "--- teacher label quality on night frames ---\n";
    {
        // Find a night span: DETRAC schedule night segment.
        double night_t = 0.0;
        for (double t = 0.0; t < 600.0; t += 5.0) {
            if (stream.schedule().at(t).illumination < 0.2) {
                night_t = t;
                break;
            }
        }
        std::cout << "  night at t=" << night_t << "\n";
        auto student = tb.pristine->clone();
        core::Online_labeler labeler{*tb.teacher};
        Rng rng{99};
        std::size_t pos = 0, pos_correct = 0, neg = 0, total_gt = 0;
        for (std::size_t k = 0; k < 40; ++k) {
            const video::Frame f = stream.frame_at(stream.index_at(night_t) + k * 15);
            const auto proposals = student->propose(f, world);
            const auto labeled = labeler.label(f, world, proposals, rng);
            total_gt += f.objects.size();
            for (std::size_t i = 0; i < labeled.samples.size(); ++i) {
                const auto& s = labeled.samples[i];
                if (s.class_label == 0) {
                    ++neg;
                    continue;
                }
                ++pos;
                // Check against simulation truth via the proposal provenance.
                // (proposals[i] ordering == labeled sample ordering only when
                // negative_keep=1, which is the default.)
                if (i < proposals.size() && proposals[i].from_object &&
                    f.objects[proposals[i].gt_index].class_id == s.class_label) {
                    ++pos_correct;
                }
            }
        }
        std::cout << "  positives=" << pos << " (correct class " << pos_correct << "), negatives="
                  << neg << ", gt objects=" << total_gt << "\n";
    }

    std::cout << "--- student ceiling: head trained on CLEAN night labels ---\n";
    {
        auto student = tb.pristine->clone();
        models::Pretrain_config cfg;
        cfg.domains = {video::night(0.5)};
        cfg.samples = 3000;
        cfg.epochs = 10;
        cfg.seed = 4242;
        const auto clean_night = models::synth_dataset(world, student->config(), cfg);
        nn::Sequential& trunk = student->net().trunk();
        trunk.set_lr_scale_range(0, trunk.layer_count(), 0.0);
        (void)models::pretrain(*student, clean_night, cfg);
        std::cout << "  night accuracy after clean head training: "
                  << domain_accuracy(*student, world, video::night(0.5), 8) << "\n";
        std::cout << "  day accuracy after clean night training:  "
                  << domain_accuracy(*student, world, video::day_sunny(0.6), 7) << "\n";
    }

    std::cout << "--- teacher label class mix at night vs ground truth ---\n";
    {
        auto student = tb.pristine->clone();
        core::Online_labeler labeler{*tb.teacher};
        Rng rng{77};
        double night_t = 225.0;
        std::vector<std::size_t> label_hist(world.num_classes() + 1, 0);
        std::vector<std::size_t> gt_hist(world.num_classes() + 1, 0);
        for (std::size_t k = 0; k < 40; ++k) {
            const video::Frame f = stream.frame_at(stream.index_at(night_t) + k * 15);
            for (const auto& obj : f.objects) {
                ++gt_hist[obj.class_id];
            }
            const auto proposals = student->propose(f, world);
            const auto labeled = labeler.label(f, world, proposals, rng);
            for (const auto& s : labeled.samples) {
                ++label_hist[s.class_label];
            }
        }
        std::cout << "  teacher labels:";
        for (std::size_t c = 0; c <= world.num_classes(); ++c) {
            std::cout << " c" << c << "=" << label_hist[c];
        }
        std::cout << "\n  ground truth:  ";
        for (std::size_t c = 0; c <= world.num_classes(); ++c) {
            std::cout << " c" << c << "=" << gt_hist[c];
        }
        std::cout << "\n";
    }

    std::cout << "--- controller trace over the full stream ---\n";
    {
        auto student = tb.pristine->clone();
        core::Shoggoth_strategy strategy{*student, *tb.teacher, core::Shoggoth_config{},
                                         device::jetson_tx2(), device::v100()};
        const auto result = sim::run_strategy(strategy, stream, harness);
        std::cout << "  mAP=" << result.map << " sessions=" << result.training_sessions
                  << " up=" << result.up_kbps << "\n";
        int shown = 0;
        for (const auto& rec : strategy.control_trace()) {
            if (shown++ % 4 == 0) {
                std::cout << "  t=" << rec.at.value() << " illum=" // report raw seconds
                          << stream.schedule().at(rec.at.value()).illumination
                          << " rate=" << rec.rate << " alpha=" << rec.alpha
                          << " phi=" << rec.phi_bar << " lambda=" << rec.lambda << "\n";
            }
        }

        std::cout << "--- windowed mAP: Shoggoth vs Edge-Only ---\n";
        const auto edge = fleet::run_edge_only(tb, harness);
        for (std::size_t i = 0; i < result.windowed_map.size() &&
                                i < edge.windowed_map.size();
             i += 2) {
            const double t = result.windowed_map[i].first;
            std::cout << "  t=" << t << " illum=" << stream.schedule().at(t).illumination
                      << " shoggoth=" << result.windowed_map[i].second
                      << " edge=" << edge.windowed_map[i].second << " gain="
                      << result.windowed_map[i].second - edge.windowed_map[i].second << "\n";
        }
    }

    std::cout << "--- oracle adaptation session on night samples ---\n";
    {
        auto student = tb.pristine->clone();
        const double day_before = domain_accuracy(*student, world, video::day_sunny(0.6), 7);
        const double night_before = domain_accuracy(*student, world, video::night(0.5), 8);

        // Collect teacher-labeled night samples exactly like the system does.
        core::Online_labeler labeler{*tb.teacher};
        Rng rng{123};
        double night_t = 0.0;
        for (double t = 0.0; t < 600.0; t += 5.0) {
            if (stream.schedule().at(t).illumination < 0.2) {
                night_t = t;
                break;
            }
        }
        std::vector<models::Labeled_sample> batch;
        std::size_t k = 0;
        while (batch.size() < 600 && k < 1500) {
            const video::Frame f = stream.frame_at(stream.index_at(night_t) + k * 7);
            const auto proposals = student->propose(f, world);
            auto labeled = labeler.label(f, world, proposals, rng);
            for (auto& s : labeled.samples) {
                batch.push_back(std::move(s));
            }
            ++k;
        }
        std::cout << "  collected " << batch.size() << " night samples from " << k
                  << " frames\n";

        core::Adaptive_trainer trainer{*student, core::ours_config(), device::jetson_tx2()};
        const auto report = trainer.train(batch);
        std::cout << "  session loss " << report.initial_loss << " -> " << report.final_loss
                  << "\n";

        const double day_after = domain_accuracy(*student, world, video::day_sunny(0.6), 7);
        const double night_after = domain_accuracy(*student, world, video::night(0.5), 8);
        std::cout << "  day accuracy:   " << day_before << " -> " << day_after << "\n";
        std::cout << "  night accuracy: " << night_before << " -> " << night_after << "\n";

        std::cout << "  night mAP (stream) before/after: ";
        auto fresh = tb.pristine->clone();
        std::cout << span_map(*fresh, stream, night_t, night_t + 50.0) << " -> "
                  << span_map(*student, stream, night_t, night_t + 50.0) << "\n";
        std::cout << "  day mAP (stream) before/after:   ";
        std::cout << span_map(*fresh, stream, 5.0, 50.0) << " -> "
                  << span_map(*student, stream, 5.0, 50.0) << "\n";
    }
    return 0;
}
