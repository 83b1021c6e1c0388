// Integration tests: full edge-cloud simulations asserting the paper's
// qualitative claims hold end-to-end. These use a short, drift-heavy custom
// stream so the suite stays fast while the mechanisms still engage.
#include <gtest/gtest.h>

#include "pretrained_fixture.hpp"

namespace shog {
namespace {

/// A compressed drift gauntlet: day -> night -> day -> night, fast ramps.
video::Dataset_preset gauntlet(std::uint64_t seed, double duration) {
    video::Dataset_preset p = video::ua_detrac_like(seed, duration);
    p.schedule = video::Domain_schedule{{
                                            {video::day_sunny(0.8), 50.0},
                                            {video::night(0.6), 70.0},
                                            {video::day_sunny(0.8), 50.0},
                                            {video::night(0.6), 70.0},
                                        },
                                        10.0,
                                        /*cycle=*/true};
    return p;
}

struct Integration_fixture : public Pretrained_fixture<Integration_fixture> {
    static void SetUpTestSuite() { load(gauntlet(2023, 300.0), 2023); }
    void SetUp() override { config.eval_stride = 14; }

    sim::Harness_config config;
};

TEST_F(Integration_fixture, ShoggothBeatsEdgeOnlyUnderDrift) {
    // The headline claim: adaptive online learning improves accuracy on a
    // drifting stream.
    const sim::Run_result edge = fleet::run_edge_only(*testbed, config);
    const sim::Run_result shog = fleet::run_shoggoth(*testbed, config);
    EXPECT_GT(shog.map, edge.map + 0.02)
        << "Shoggoth " << shog.map << " vs Edge-Only " << edge.map;
    EXPECT_GT(shog.training_sessions, 0u);
}

TEST_F(Integration_fixture, ShoggothUsesFarLessBandwidthThanCloudOnly) {
    const sim::Run_result cloud_result = fleet::run_cloud_only(*testbed, config);
    const sim::Run_result shog = fleet::run_shoggoth(*testbed, config);
    EXPECT_GT(cloud_result.up_kbps, 8.0 * shog.up_kbps);
    EXPECT_GT(cloud_result.down_kbps, 20.0 * shog.down_kbps);
    // Cloud-Only remains the accuracy upper bound.
    EXPECT_GE(cloud_result.map, shog.map - 0.02);
}

TEST_F(Integration_fixture, AmsShipsModelsDownlinkHeavy) {
    const sim::Run_result ams = fleet::run_ams(*testbed, config);
    const sim::Run_result shog = fleet::run_shoggoth(*testbed, config);
    EXPECT_GT(ams.down_kbps, 3.0 * shog.down_kbps)
        << "AMS downlink " << ams.down_kbps << " vs Shoggoth " << shog.down_kbps;
    // AMS trains in the cloud: more cloud GPU time, fewer edge fps dips.
    EXPECT_GT(ams.cloud_gpu_seconds, 1.5 * shog.cloud_gpu_seconds);
    EXPECT_GT(ams.average_fps, shog.average_fps - 0.5);
}

TEST_F(Integration_fixture, TrainingCostsEdgeFps) {
    const sim::Run_result edge = fleet::run_edge_only(*testbed, config);
    const sim::Run_result shog = fleet::run_shoggoth(*testbed, config);
    EXPECT_GT(edge.average_fps, shog.average_fps); // Fig. 4's 2-3 fps loss
    EXPECT_GT(shog.average_fps, 15.0);             // but not catastrophic
    bool dipped = false;
    for (const auto& [t, fps] : shog.fps_timeline) {
        dipped = dipped || fps < 20.0;
    }
    EXPECT_TRUE(dipped); // sessions visibly dent the timeline
}

TEST_F(Integration_fixture, PromptUsesMoreUplinkThanAdaptive) {
    core::Shoggoth_config prompt_cfg;
    prompt_cfg.adaptive_sampling = false;
    const sim::Run_result prompt = fleet::run_shoggoth(*testbed, config, prompt_cfg);
    const sim::Run_result shog = fleet::run_shoggoth(*testbed, config);
    EXPECT_EQ(prompt.strategy, "Prompt");
    EXPECT_GT(prompt.up_kbps, shog.up_kbps);
}

TEST_F(Integration_fixture, DeterministicEndToEnd) {
    const sim::Run_result a = fleet::run_shoggoth(*testbed, config);
    const sim::Run_result b = fleet::run_shoggoth(*testbed, config);
    EXPECT_DOUBLE_EQ(a.map, b.map);
    EXPECT_DOUBLE_EQ(a.up_kbps, b.up_kbps);
    EXPECT_DOUBLE_EQ(a.down_kbps, b.down_kbps);
    EXPECT_EQ(a.training_sessions, b.training_sessions);
}

TEST_F(Integration_fixture, SamplingRateRespondsToDrift) {
    auto local_student = student().clone();
    core::Shoggoth_strategy strategy{*local_student, teacher(), core::Shoggoth_config{},
                                     device::jetson_tx2(), device::v100()};
    (void)sim::run_strategy(strategy, stream(), config);
    const auto& trace = strategy.control_trace();
    ASSERT_GT(trace.size(), 5u);
    double min_rate = 10.0;
    double max_rate = 0.0;
    for (const auto& rec : trace) {
        min_rate = std::min(min_rate, rec.rate);
        max_rate = std::max(max_rate, rec.rate);
        EXPECT_GE(rec.rate, 0.1);
        EXPECT_LE(rec.rate, 2.0);
    }
    // The controller actually moves across its range on a drifting stream.
    EXPECT_GT(max_rate, 2.5 * min_rate);
}

} // namespace
} // namespace shog
