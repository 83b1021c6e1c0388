// White-box tests of the Shoggoth strategy plumbing: configuration
// semantics, Prompt mode, warm replay, the alpha sources, and parameterized
// sweeps over system knobs on a short stream.
#include <gtest/gtest.h>

#include "baselines/edge_only.hpp"
#include "core/shoggoth.hpp"
#include "pretrained_fixture.hpp"
#include "sim/harness.hpp"
#include "video/presets.hpp"

namespace shog::core {
namespace {

struct System_fixture : public Pretrained_fixture<System_fixture> {
    static void SetUpTestSuite() { load(video::ua_detrac_like(31, 200.0), 31); }
    void SetUp() override { harness.eval_stride = 16; }

    std::pair<sim::Run_result, std::unique_ptr<Shoggoth_strategy>> run(
        Shoggoth_config cfg) {
        auto local_student = student().clone();
        auto strategy = std::make_unique<Shoggoth_strategy>(
            *local_student, teacher(), std::move(cfg), device::jetson_tx2(), device::v100());
        sim::Run_result r = sim::run_strategy(*strategy, stream(), harness);
        students.push_back(std::move(local_student)); // keep alive with the strategy
        return {std::move(r), std::move(strategy)};
    }

    std::vector<std::unique_ptr<models::Detector>> students;
    sim::Harness_config harness;
};

TEST_F(System_fixture, NamesFollowMode) {
    Shoggoth_config adaptive;
    auto [r1, s1] = run(std::move(adaptive));
    EXPECT_EQ(r1.strategy, "Shoggoth");

    Shoggoth_config fixed;
    fixed.adaptive_sampling = false;
    auto [r2, s2] = run(std::move(fixed));
    EXPECT_EQ(r2.strategy, "Prompt");
}

TEST_F(System_fixture, PromptHoldsFixedRate) {
    Shoggoth_config cfg;
    cfg.adaptive_sampling = false;
    cfg.fixed_rate = 1.5;
    auto [r, strategy] = run(std::move(cfg));
    EXPECT_DOUBLE_EQ(strategy->current_rate(), 1.5);
    EXPECT_TRUE(strategy->control_trace().empty()); // no control rounds
    // Uplink consistent with ~1.5 fps of 512x512 samples.
    EXPECT_GT(r.up_kbps, 40.0);
}

TEST_F(System_fixture, AdaptiveRateStaysInBounds) {
    auto [r, strategy] = run(Shoggoth_config{});
    for (const auto& rec : strategy->control_trace()) {
        EXPECT_GE(rec.rate, 0.1);
        EXPECT_LE(rec.rate, 2.0);
        EXPECT_GE(rec.alpha, 0.0);
        EXPECT_LE(rec.alpha, 1.0);
        EXPECT_GE(rec.lambda, 0.0);
        EXPECT_LE(rec.lambda, 1.0);
    }
    EXPECT_GT(strategy->frames_uploaded(), 10u);
    // Every labeled frame was uploaded; the tail batch flushed at stream end
    // (plus at most one batch still in flight) may not finish labeling
    // before the simulation horizon cuts off.
    EXPECT_GE(strategy->frames_uploaded(), strategy->frames_labeled());
    EXPECT_LE(strategy->frames_uploaded() - strategy->frames_labeled(),
              2 * Shoggoth_config{}.upload_batch_frames);
}

TEST_F(System_fixture, WarmReplayPrefillsMemory) {
    Shoggoth_config warm;
    warm.warm_replay = true;
    auto [r1, s1] = run(std::move(warm));
    EXPECT_GT(s1->trainer().memory().size(), 0u);

    Shoggoth_config cold;
    cold.warm_replay = false;
    cold.frames_per_session = 1000000; // never trains -> memory stays empty
    auto [r2, s2] = run(std::move(cold));
    EXPECT_EQ(s2->trainer().memory().size(), 0u);
}

TEST_F(System_fixture, UplinkScalesWithUploadResolution) {
    Shoggoth_config small;
    small.adaptive_sampling = false;
    small.fixed_rate = 1.0;
    small.upload_resolution = 256.0;
    auto [r_small, s1] = run(std::move(small));

    Shoggoth_config big;
    big.adaptive_sampling = false;
    big.fixed_rate = 1.0;
    big.upload_resolution = 512.0;
    auto [r_big, s2] = run(std::move(big));

    EXPECT_GT(r_big.up_kbps, 1.8 * r_small.up_kbps);
}

TEST_F(System_fixture, PosteriorAlphaRunsEndToEnd) {
    Shoggoth_config cfg;
    cfg.alpha_source = Shoggoth_config::Alpha_source::posterior;
    auto [r, strategy] = run(std::move(cfg));
    EXPECT_GT(r.map, 0.0);
    EXPECT_FALSE(strategy->control_trace().empty());
}

TEST_F(System_fixture, DownlinkIsLabelsOnly) {
    auto [r, strategy] = run(Shoggoth_config{});
    // Labels are a few hundred bytes per frame: downlink must be tiny
    // relative to uplink (paper: 135 up vs 10 down).
    EXPECT_LT(r.down_kbps, 0.6 * r.up_kbps);
}

TEST_F(System_fixture, CloudGpuTimeIsLabelingOnly) {
    auto [r, strategy] = run(Shoggoth_config{});
    // Teacher inference ~40ms/frame on V100: total cloud time should be
    // close to frames_labeled * 0.04 s, far below stream duration.
    const double expected = static_cast<double>(strategy->frames_labeled()) * 0.04;
    EXPECT_NEAR(r.cloud_gpu_seconds, expected, 0.5 * expected + 1.0);
    EXPECT_LT(r.cloud_gpu_seconds, 0.3 * stream().duration());
}

class SessionTrigger : public System_fixture,
                       public ::testing::WithParamInterface<std::size_t> {};

TEST_P(SessionTrigger, MoreFramesPerSessionMeansFewerSessions) {
    Shoggoth_config cfg;
    cfg.adaptive_sampling = false; // fixed 2 fps (the default rate) so supply is constant
    cfg.frames_per_session = GetParam();
    auto [r, strategy] = run(std::move(cfg));
    // Upper bound: total sampled frames / frames_per_session.
    const double sampled = 2.0 * stream().duration();
    EXPECT_LE(static_cast<double>(r.training_sessions),
              sampled / static_cast<double>(GetParam()) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Triggers, SessionTrigger, ::testing::Values(30u, 60u, 120u));

} // namespace
} // namespace shog::core
