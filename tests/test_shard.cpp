// Tests for sim::run_cluster_sharded: device-sharded execution of ONE fleet
// must be observationally invisible. Every test is differential — the same
// cell through the sequential engine and the sharded engine at shard counts
// {1, 2, 3, hardware} must serialize to identical bytes (fps timelines,
// windowed-mAP series and Streaming_quantile fold order included), via
// tests/determinism_harness.hpp. Plus the failure path: a device whose
// strategy throws mid-run must propagate the exception out of
// run_cluster_sharded with all workers joined.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "determinism_harness.hpp"
#include "pretrained_fixture.hpp"
#include "sim/shard.hpp"

namespace shog::sim {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 3, 0}; // 0 = hardware concurrency

// One 4-camera testbed serves every differential test (construction
// dominates).
struct Shard_fixture : public Pretrained_fixture<Shard_fixture> {
    static video::Dataset_preset preset() { return video::ua_detrac_like(23, 30.0); }
    static void SetUpTestSuite() { load(preset(), 23, /*cameras=*/4); }
};

/// Everything a frame carries, compared exactly.
bool same_frame(const video::Frame& a, const video::Frame& b) {
    auto same_object = [](const video::Rendered_object& x, const video::Rendered_object& y) {
        return x.object_id == y.object_id && x.class_id == y.class_id &&
               x.box.x1 == y.box.x1 && x.box.y1 == y.box.y1 && x.box.x2 == y.box.x2 &&
               x.box.y2 == y.box.y2 && *x.appearance == *y.appearance &&
               x.occlusion == y.occlusion && x.scale == y.scale;
    };
    return a.index == b.index && a.timestamp == b.timestamp &&
           a.domain.illumination == b.domain.illumination &&
           a.domain.weather == b.domain.weather && a.domain.density == b.domain.density &&
           a.domain.clutter == b.domain.clutter && a.motion_level == b.motion_level &&
           a.complexity == b.complexity &&
           std::equal(a.objects.begin(), a.objects.end(), b.objects.begin(), b.objects.end(),
                      same_object);
}

TEST_F(Shard_fixture, CameraIIsThePresetStreamWithSeedPlusI) {
    // make_testbed's camera i replays, frame for frame, the preset's stream
    // built by hand with stream seed + i.
    const video::Dataset_preset dataset = preset();
    ASSERT_EQ(testbed->streams.size(), 4u);
    for (std::size_t camera = 0; camera < testbed->streams.size(); ++camera) {
        video::Stream_config config = dataset.stream;
        config.seed += camera;
        const video::Video_stream expected{config, dataset.world, dataset.schedule};
        const video::Video_stream& actual = *testbed->streams[camera];
        ASSERT_EQ(actual.frame_count(), expected.frame_count());
        ASSERT_EQ(actual.track_count(), expected.track_count());
        for (std::size_t i = 0; i < expected.frame_count(); ++i) {
            ASSERT_TRUE(same_frame(actual.frame_at(i), expected.frame_at(i)))
                << "camera " << camera << " frame " << i;
        }
    }
}

TEST_F(Shard_fixture, MixedFleetWrapsDevicesOntoCameras) {
    // Six devices on four cameras: device i watches camera i mod 4, so
    // devices 4 and 5 share cameras 0 and 1 instead of the build throwing.
    const fleet::Fleet fleet = fleet::make_mixed_fleet(*testbed, 6, 0);
    ASSERT_EQ(fleet.specs.size(), 6u);
    for (std::size_t i = 0; i < fleet.specs.size(); ++i) {
        EXPECT_EQ(fleet.specs[i].stream, testbed->streams[i % 4].get()) << "device " << i;
    }
}

TEST_F(Shard_fixture, ShardsOneMatchesRunClusterBitIdentically) {
    // The shards=1 pin: a single shard still runs the full protocol (worker
    // thread, proxy buffering, barrier rounds) and must reproduce the
    // sequential engine to the last bit.
    Cloud_config cloud;
    cloud.policy = Policy_kind::priority;
    shog::testing::expect_identical_cluster(
        [&] {
            return fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, cloud, 23,
                                   /*shards=*/0);
        },
        [&] {
            return fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, cloud, 23,
                                   /*shards=*/1);
        },
        "shards=1 vs run_cluster");
}

TEST_F(Shard_fixture, MixedFleetPolicyCellsByteIdenticalAcrossShardCounts) {
    // Property-style sweep over the contended operating point: the
    // half-Shoggoth half-AMS heterogeneous fleet under different policies
    // and seeds, replayed at every shard count against the sequential
    // serialization.
    Cloud_config priority_preempt;
    priority_preempt.policy = Policy_kind::priority;
    priority_preempt.preempt_label_wait = Sim_duration{2.0};
    const fleet::Cloud_cell cells[] = {
        {"fifo", Cloud_config{}},
        {"priority_preempt", priority_preempt},
    };
    for (const std::uint64_t seed : {std::uint64_t{23}, std::uint64_t{111}}) {
        for (const fleet::Cloud_cell& cell : cells) {
            const std::string reference = shog::testing::serialize_cluster(
                fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, cell.cloud, seed,
                                /*shards=*/0));
            ASSERT_NE(reference.find("device 3"), std::string::npos);
            for (const std::size_t shards : kShardCounts) {
                EXPECT_EQ(reference,
                          shog::testing::serialize_cluster(fleet::run_cell(
                              *testbed, 4, /*heterogeneous=*/true, cell.cloud, seed, shards)))
                    << cell.label << " seed=" << seed << " shards=" << shards;
            }
        }
    }
}

TEST_F(Shard_fixture, BatchedMultiGpuShardingCellByteIdentical) {
    // Cross-device teacher batching (max_batch > 1) coalesces jobs from
    // devices in *different* shards into one dispatch whose completion fans
    // callbacks back out — the hardest path for the delivery protocol.
    Cloud_config cloud;
    cloud.gpu_count = 2;
    cloud.placement = Placement_kind::any_free;
    cloud.policy = Policy_kind::fifo;
    cloud.max_batch = 4;
    const std::string reference = shog::testing::serialize_cluster(
        fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, cloud, 23, /*shards=*/0));
    ASSERT_NE(reference.find("device 3"), std::string::npos);
    for (const std::size_t shards : kShardCounts) {
        EXPECT_EQ(reference,
                  shog::testing::serialize_cluster(fleet::run_cell(
                      *testbed, 4, /*heterogeneous=*/true, cloud, 23, shards)))
            << "shards=" << shards;
    }
}

TEST_F(Shard_fixture, ReliabilityCellWithFailuresByteIdentical) {
    // Server failures, a 4x straggler, straggler re-queueing and preemption
    // all at once: every cloud-side perturbation the simulator models, still
    // byte-identical under sharding.
    Cloud_config cloud;
    cloud.gpu_count = 2;
    cloud.placement = Placement_kind::speed_aware;
    cloud.policy = Policy_kind::priority;
    cloud.gpu_profiles =
        fleet::make_straggler_profiles(2, 0.25, Sim_duration{12.0}, Sim_duration{3.0});
    cloud.straggler_requeue_factor = 1.5;
    cloud.preempt_label_wait = Sim_duration{2.0};
    const std::string reference = shog::testing::serialize_cluster(
        fleet::run_cell(*testbed, 4, /*heterogeneous=*/true, cloud, 23, /*shards=*/0));
    ASSERT_NE(reference.find("device 3"), std::string::npos);
    for (const std::size_t shards : kShardCounts) {
        EXPECT_EQ(reference,
                  shog::testing::serialize_cluster(fleet::run_cell(
                      *testbed, 4, /*heterogeneous=*/true, cloud, 23, shards)))
            << "shards=" << shards;
    }
}

// ---------------------------------------------------------------------------
// Failure propagation: no video/model machinery, just scripted strategies.
// ---------------------------------------------------------------------------

/// Periodically submits cloud work so shards genuinely interleave at the
/// coordinator before the bomb goes off.
class Quiet_strategy final : public Strategy {
public:
    [[nodiscard]] std::string name() const override { return "quiet"; }
    void start(Edge_runtime& rt) override { tick(rt); }
    [[nodiscard]] std::vector<detect::Detection> infer(Edge_runtime&,
                                                       const video::Frame&) override {
        return {};
    }

private:
    void tick(Edge_runtime& rt) {
        rt.cloud().submit(rt.device_id(), Sim_duration{0.3}, {});
        rt.schedule(Sim_duration{1.0}, [this, &rt] { tick(rt); });
    }
};

/// Same as Quiet_strategy until t=5, then throws from inside its shard's
/// parallel phase.
class Bomb_strategy final : public Strategy {
public:
    [[nodiscard]] std::string name() const override { return "bomb"; }
    void start(Edge_runtime& rt) override {
        rt.cloud().submit(rt.device_id(), Sim_duration{0.3}, {});
        rt.schedule(Sim_duration{5.0},
                    [] { throw std::runtime_error("device 2 failed"); });
    }
    [[nodiscard]] std::vector<detect::Detection> infer(Edge_runtime&,
                                                       const video::Frame&) override {
        return {};
    }
};

TEST(RunClusterSharded, ThrowingDevicePropagatesWithWorkersJoined) {
    const video::Dataset_preset preset = video::ua_detrac_like(7, 10.0);
    const video::Video_stream stream{preset.stream, preset.world, preset.schedule};

    Quiet_strategy quiet_a;
    Quiet_strategy quiet_b;
    Bomb_strategy bomb;
    Quiet_strategy quiet_c;
    std::vector<Device_spec> specs{{&quiet_a, &stream, {}},
                                   {&quiet_b, &stream, {}},
                                   {&bomb, &stream, {}},
                                   {&quiet_c, &stream, {}}};
    const Cluster_config config;
    for (const std::size_t shards : kShardCounts) {
        try {
            (void)run_cluster_sharded(specs, config, Shard_options{shards});
            FAIL() << "expected the device exception to propagate, shards=" << shards;
        } catch (const std::runtime_error& error) {
            EXPECT_STREQ(error.what(), "device 2 failed") << "shards=" << shards;
        }
    }

    // The engine is fully reusable after a failed run: a healthy fleet over
    // the same stream still completes (all workers from the failed runs were
    // joined; nothing leaked into this run).
    Quiet_strategy healthy_a;
    Quiet_strategy healthy_b;
    std::vector<Device_spec> healthy{{&healthy_a, &stream, {}}, {&healthy_b, &stream, {}}};
    const Cluster_result result = run_cluster_sharded(healthy, config, Shard_options{2});
    EXPECT_EQ(result.devices.size(), 2u);
    EXPECT_GT(result.cloud_jobs, 0u);
}

} // namespace
} // namespace shog::sim
